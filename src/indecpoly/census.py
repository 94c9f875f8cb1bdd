"""Exact counting of (in)decomposable polynomials of degree d over F_q.

Three routes that must agree:

* closed forms for the polynomial count N_d, for decomposable counts when d
  has at most two prime factors, and bound data otherwise;
* the induction formula I_d = N_d - sum over proper divisors d' of
  q^(d/d' - 1) * I_{d'}, seeded with I_1 = q(q^n - 1) (n >= 2 only: the
  one-variable convention does not partition the decomposables);
* exhaustive enumeration: count every polynomial of exact degree d, by the
  engine or by the image (below).  F = u(H) exactly when alpha F =
  (alpha u)(H) for alpha != 0, so only the monic representative of each orbit
  {alpha F} is classified, the one whose first nonzero top coefficient is
  1, and its verdict counts q - 1 times.  The top coefficients are the
  slowest digits of the scan index, so each top form T owns one block of
  consecutive indices, and the monic blocks are counted in closed form; one
  scan serves every arity.  Arity decides only how the decomposables are
  found.  In one variable the single top x^d owns the indices [q^d, 2 q^d),
  and each polynomial goes to decompose.decompose_uni_dense at every split.
  In n >= 2 variables they are counted by their composition image.  F =
  u(H) has the top form lc(u) top(H)^e, so the monic tops that carry a
  decomposable at e are the powers H^e of the monic forms H of degree d/e,
  listed once per census with the powers [1, H, ..., H^e] of each H, the
  census's only products.  F = u(H) exactly when F + c = (u + c)(H), and the
  constant term is the fastest digit of the scan index, so each run of q
  consecutive indices is one set {F + c} with one verdict.  The
  decomposable runs are those of the composites u(H + h) under the listed
  tops (decompose.composites_from_top), collected block by block into a
  sorted tuple of distinct runs, so a run reached twice counts once.  The
  slices of a census, in order, share each block's tuple through a
  one-entry memo, so each block's image is drawn once per census (von zur
  Gathen, "Counting decomposable multivariate polynomials", AAECC 2011,
  counts D this way).

Counts are exact big integers; every ratio or bound check is done in
Fraction arithmetic.  Enumeration supports disjoint index-range partitions
whose partial reports merge by addition (merge_reports), which is also how
the command line front end's process pool combines its workers' reports.
A slice reports q - 1 times the verdicts at the monic indices it holds, so a
slice of non-representative indices reports 0; in n >= 2 a run's verdict
counts for each of its indices in the slice, wherever its constant-0 index
lies.  The merged counts of a cover of the index space are exact.
"""

from __future__ import annotations

import functools
import os
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor, gcd

from .arith import (CensusReport, big_omega, digit_tuples, divisors, factorint, power_over,
                    prime_power)
from .decompose import _inner_powers, composites_from_top, decompose_uni_dense, outer_degrees
from .fields import DEFAULT_GUARD, GuardExceeded, field_from_order
from .mpoly import MPoly, monomials_upto


def count_total(q, n, d) -> int:
    """Number of polynomials of exact degree d in n variables over F_q."""
    prime_power(q)  # ValueError unless q is a prime power
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return (q ** comb(n + d - 1, n - 1) - 1) * q ** comb(n + d - 1, n)


def count_recursive(q, n, d) -> CensusReport:
    """Indecomposable/decomposable counts by the divisor recursion (n >= 2)."""
    if n < 2:
        raise ValueError("the divisor recursion needs n >= 2; one-variable "
                         "splits overlap and do not partition")
    memo: dict[int, int] = {}

    def indec(m):
        if m == 1:
            return q * (q ** n - 1)
        if m not in memo:
            memo[m] = count_total(q, n, m) - sum(
                q ** (m // dd - 1) * indec(dd) for dd in divisors(m) if dd < m
            )
        return memo[m]

    total = count_total(q, n, d)
    ind = indec(d)
    return CensusReport(q, n, d, total, ind, total - ind, "recursion")


def count_closed_small(q, n, d):
    """Closed-form decomposable count for d with at most two prime factors
    (counted with multiplicity); None otherwise."""
    prime_power(q)  # ValueError unless q is a prime power
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if n < 2:
        raise ValueError("closed forms here are for n >= 2")
    fac = factorint(d) if d > 1 else {}
    omega = sum(fac.values())
    if d == 1 or omega > 2:
        return None
    unit = q ** n - 1
    if omega == 1:
        return q ** d * unit
    (primes_list) = sorted(fac)
    if len(primes_list) == 1:
        p = primes_list[0]  # d = p^2
        return q ** (p - 1) * count_total(q, n, p) + (q ** d - q ** (2 * p - 1)) * unit
    p, pp = primes_list  # d = p * p', p < p'
    return (
        q ** (p - 1) * count_total(q, n, pp)
        + q ** (pp - 1) * count_total(q, n, p)
        + (q ** d - 2 * q ** (p + pp - 1)) * unit
    )


def b_of(d) -> int:
    return (d + 1) * (d + 2) // 2


@dataclass
class BoundsReportN2:
    q: int
    d: int
    alpha: Fraction
    beta: Fraction
    ratio: Fraction
    holds: bool


def bounds_check_n2(q, d) -> BoundsReportN2:
    """|D_d/N_d - alpha_d| <= alpha_d * beta_d for n = 2 and d with at least
    three prime factors, checked in exact rational arithmetic."""
    if d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if big_omega(d) < 3:
        raise ValueError("bound statement needs at least three prime factors")
    ell = min(factorint(d))
    alpha = Fraction(q ** (ell - 1 + b_of(d // ell)), q ** b_of(d))
    beta = Fraction(d, q ** (d // ell))
    rep = count_recursive(q, 2, d)
    ratio = Fraction(rep.decomposable, rep.total)
    holds = abs(ratio - alpha) <= alpha * beta
    return BoundsReportN2(q, d, alpha, beta, ratio, holds)


def bd_lemma_check(d_max) -> bool:
    """Integer inequalities behind the n = 2 bound, for every qualifying
    d <= d_max.  With ell, ell' the two smallest divisors > 1 and ell'' the
    smallest divisor > 1 of d/ell:

      (1) b(d/ell') + ell' >= b(d/lam) + lam  for divisors ell' <= lam < d
      (2) b(d/ell) + ell - d/ell >= b(d/ell') + ell'
      (3) b(d/ell) + 1 - d/ell >= b(d/(ell*ell'')) + ell''

    Inequality (1) is false at lam = d whenever ell' is composite (d = 8 is
    the smallest case), so lam ranges over the proper divisors only.
    """
    if d_max < 8:
        raise ValueError("need d_max >= 8")
    for d in range(8, d_max + 1):
        if big_omega(d) < 3:
            continue
        ds = divisors(d)
        ell, ellp = ds[1], ds[2]
        ell2 = divisors(d // ell)[1]
        for lam in ds:
            if ellp <= lam < d:
                if b_of(d // ellp) + ellp < b_of(d // lam) + lam:
                    return False
        if b_of(d // ell) + ell - d // ell < b_of(d // ellp) + ellp:
            return False
        if b_of(d // ell) + 1 - d // ell < b_of(d // (ell * ell2)) + ell2:
            return False
    return True


@dataclass
class UniCount:
    """One-variable counts under gcd(q, d) = 1: exact where a closed form
    exists, sandwich bounds otherwise."""

    q: int
    d: int
    total: int
    exact: int | None
    lower: int
    upper: int
    alpha: Fraction | None
    method: str


def count_uni(q, d) -> UniCount:
    prime_power(q)  # ValueError unless q is a prime power
    if gcd(q, d) != 1:
        raise ValueError("one-variable counting here assumes gcd(q, d) = 1")
    if d < 1:
        raise ValueError("need d >= 1")
    total = (q - 1) * q ** d
    fac = factorint(d) if d > 1 else {}
    omega = sum(fac.values())
    if omega <= 1:
        return UniCount(q, d, total, 0, 0, 0, None, "closed")
    if omega == 2:
        ps = sorted(fac)
        if len(ps) == 1:
            p = ps[0]  # d = p^2: the two splits coincide and pairs are unique
            exact = (q - 1) * q ** (2 * p - 1)
            return UniCount(q, d, total, exact, exact, exact, None, "closed")
        p, pp = ps  # d = p p'
        # each split has (q - 1) q^(p + p' - 1) compositions, pairwise distinct
        # since a tame normalized decomposition of a given outer degree is
        # unique: the sum bounds D above, one split alone below
        upper = 2 * (q - 1) * q ** (p + pp - 1)
        lower = upper // 2
        return UniCount(q, d, total, None, lower, upper, None, "bounds")
    ds = divisors(d)
    ell, ellp = ds[1], ds[2]
    alpha = Fraction(2, q ** (d - ell - d // ell + 1))
    # bounds proved by the split-pair estimates: upper from summing all
    # splits, lower from the two extreme splits minus their overlap
    upper_f = Fraction(q - 1, q) * q ** (ell + d // ell) * (
        2 + Fraction(d - 2, q ** (ell + d // ell - ellp - d // ellp))
    )
    lower_f = 2 * Fraction(q - 1, q) * q ** (ell + d // ell) * (
        1 - Fraction(2 * d, ell) / q ** (d // ell - d // ell ** 2 - ell + 1)
    )
    lower = max(ceil(lower_f), 0)
    upper = floor(upper_f)
    return UniCount(q, d, total, None, lower, upper, alpha, "bounds")


def trend_table(q, n, d_max):
    """[(d, 1 - I_d/N_d)] by the recursion, exact Fractions."""
    out = []
    for d in range(1, d_max + 1):
        rep = count_recursive(q, n, d)
        out.append((d, Fraction(rep.decomposable, rep.total)))
    return out


# --------------------------------------------------------------------------
# exhaustive enumeration
# --------------------------------------------------------------------------

def scan_space(q, n, d) -> int:
    """Number of coefficient tuples visited by a full scan (degree <= d)."""
    return q ** comb(n + d, n)


def enumerate_census(q, n, d, guard=DEFAULT_GUARD, part=None) -> CensusReport:
    """Classify every polynomial of exact degree d.

    part = (lo, hi) restricts the scan to a slice of the coefficient-tuple
    index space [0, q^M); partial reports over a disjoint cover of that
    space merge by addition (merge_reports) to the exact counts.  Only the
    monic indices are classified, those whose first nonzero top digit is 1,
    and each verdict counts for the q - 1 multiples alpha F.  So a slice
    reports q - 1 times the verdicts at the monic indices it holds, not the
    polynomials it holds: a slice without a monic index reports 0.  One
    scan (_scan) counts the monic indices in every arity.  In one variable
    each polynomial goes to decompose.decompose_uni_dense.  For n >= 2 the
    runs {F + c} of the decomposable F are collected from the composition
    image (decompose.composites_from_top) under each power H^e of a monic
    form whose block meets the slice, and each counts for its indices
    inside the slice; every other monic index is indecomposable.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if size := power_over(q, comb(n + d, n), guard):
        raise GuardExceeded(f"scan space {size} exceeds guard {guard}")
    field = field_from_order(q)
    space = scan_space(q, n, d)
    lo, hi = (0, space) if part is None else part
    if not (0 <= lo <= hi <= space):
        raise ValueError("bad partition range")
    dec, ind = _scan(field, n, d, lo, hi, guard)
    return CensusReport(q, n, d, dec + ind, ind, dec, "enumeration")


def _scan(field, n, d, lo, hi, guard):
    """(decomposable, indecomposable) counts of the monic indices in [lo, hi),
    each verdict counted q - 1 times.

    The monic tops of k + 1 digits are [q^k, 2 q^k), so the monic indices
    are the blocks [q^k block, 2 q^k block), counted start by start, each
    start q times the last, up to the first start at or past hi.  In one
    variable each polynomial of the one block goes to decompose_uni_dense.
    For n >= 2 the runs r q + [0, q) share one verdict; the decomposable
    runs of each live block (_live_tops) that the slice meets are one sorted
    tuple (_block_runs), and bisection counts those inside [lo, hi), a run
    at an edge of the slice for its indices inside only."""
    q = field.q
    block = q ** comb(n + d - 1, n)  # the indices t * block + [0, block) share top t
    monic, base = 0, block
    while base < hi:  # hi <= q^T block, T the top monomials: at most T starts
        monic += max(min(hi, 2 * base) - max(lo, base), 0)
        base *= q
    if n == 1:  # the one top x^d: the dense engine at every split
        splits = outer_degrees(n, d)
        start, stop = max(lo, block) - block, min(hi, 2 * block) - block
        hits = 0
        for digits in digit_tuples(q, d, start, stop) if start < stop else ():
            f = [*reversed(digits), 1]  # constant first
            for r in splits:
                if decompose_uni_dense(field, f, r, guard) is not None:
                    hits += 1
                    break
    else:
        blocks = range(lo // block, -(-hi // block))  # the top blocks the slice meets
        first, last = lo // q, -(-hi // q)  # the run r holds the indices r q + [0, q)
        hits = 0
        for t in _live_tops(q, n, d):
            if t in blocks:
                runs = _block_runs(q, n, d, t)
                i, j = bisect_left(runs, first), bisect_left(runs, last)
                hits += q * (j - i)
                if runs[i:i + 1] == (first,):  # the runs at the slice's edges
                    hits -= lo - first * q  # count only their indices inside it
                if runs[j - 1:j] == (last - 1,):
                    hits -= last * q - hi
    return (q - 1) * hits, (q - 1) * (monic - hits)


# one table per census, shared by its slices and so read-only: rebuilt in
# every slice, it made the census-multi slices about seven times slower.
# Its power lists are the only products of a census: the image of each block
# moves them in copies.  Its tops ascend, so the slices of a census, in
# order, meet each live block in one run of consecutive calls, and one memo
# of _block_runs serves them all
@functools.lru_cache(maxsize=None)
def _live_tops(q, n, d):
    """{t: [powers, ...]}: the monic top digits t, the first top monomial
    slowest, whose top form is H^e for a monic form H of degree d/e, with
    the powers [1, H, ..., H^e] of each such H, split by split; t is read
    from the last power.  The root of a monic top is monic, so these are
    all the tops under which a composite u(H + h) lies."""
    field = field_from_order(q)
    tops = monomials_upto(n, d)[:comb(n + d - 1, n - 1)]
    weight = {mono: q ** k for k, mono in enumerate(reversed(tops))}
    table = {}
    for e in outer_degrees(n, d):
        forms = monomials_upto(n, d // e)[:comb(n + d // e - 1, n - 1)]
        for k in range(len(forms)):
            for digits in digit_tuples(q, len(forms), q ** k, 2 * q ** k):
                powers = _inner_powers(MPoly(field, n, dict(zip(forms, digits))), e)
                t = sum([weight[mono] * c for mono, c in powers[e].terms.items()])
                table.setdefault(t, []).append(powers)
    return dict(sorted(table.items()))


@functools.lru_cache(maxsize=1)
def _block_runs(q, n, d, t):
    """The distinct decomposable runs of the live top block t, ascending: the
    run index of each composite drawn from the table's power lists of its
    splits (_live_tops), read from its coefficients on every monomial but the
    constant, each element its own digit.  The only set of the n >= 2 scan,
    the size of one block's image: a wild split yields some composites
    twice, and two splits may share one."""
    weight = {mono: q ** k for k, mono in enumerate(monomials_upto(n, d)[-2::-1])}
    return tuple(sorted({sum([weight[mono] * c for mono, c in terms.items()])
                         for powers in _live_tops(q, n, d)[t]
                         for terms in composites_from_top(powers)}))


def merge_reports(reports) -> CensusReport:
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    first = reports[0]
    if any((r.q, r.n, r.d) != (first.q, first.n, first.d) for r in reports):
        raise ValueError("reports describe different censuses")
    return CensusReport(
        first.q,
        first.n,
        first.d,
        sum(r.total for r in reports),
        sum(r.indecomposable for r in reports),
        sum(r.decomposable for r in reports),
        "enumeration",
    )


def partition_ranges(q, n, d, jobs):
    """Split the scan index space into `jobs` contiguous ranges."""
    space = scan_space(q, n, d)
    jobs = max(1, min(jobs, space))
    step = -(-space // jobs)
    return [(i, min(i + step, space)) for i in range(0, space, step)]


def _census_worker(args):
    q, n, d, lo, hi, guard = args
    return enumerate_census(q, n, d, guard=guard, part=(lo, hi))


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def enumerate_census_parallel(q, n, d, jobs, guard=DEFAULT_GUARD) -> CensusReport:
    """Partitioned scan over a process pool; output independent of `jobs`.

    The scan is cut into `jobs` ranges, but the pool has no more workers
    than there are ranges or usable CPUs."""
    if size := power_over(q, comb(n + d, n), guard):
        raise GuardExceeded(f"scan space {size} exceeds guard {guard}")
    ranges = partition_ranges(q, n, d, jobs)
    if len(ranges) <= 1:
        return enumerate_census(q, n, d, guard=guard)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(len(ranges), _usable_cpus())) as pool:
        parts = pool.map(_census_worker, [(q, n, d, lo, hi, guard) for lo, hi in ranges])
        return merge_reports(parts)
