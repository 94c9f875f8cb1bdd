import collections
import functools
import importlib.util
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from indecpoly import census, decompose
from indecpoly.arith import digit_tuples, divisors
from indecpoly.decompose import decompose_multi, decompose_uni_dense, outer_degrees, poly_eth_root
from indecpoly.fields import GuardExceeded, field_from_order
from indecpoly.census import (bd_lemma_check, bounds_check_n2, count_closed_small,
                              count_recursive, count_total, count_uni, enumerate_census,
                              enumerate_census_parallel, merge_reports, partition_ranges,
                              scan_space, trend_table)
from indecpoly.mpoly import MPoly, monomials_upto

from completions import rebuilt_composites


def test_count_total_values():
    assert count_total(2, 2, 2) == 56
    assert count_total(3, 1, 4) == 162
    assert count_total(2, 2, 1) == 6
    assert count_total(2, 2, 3) == 960
    assert count_total(2, 2, 4) == 31744


def test_recursion_small_values():
    r2 = count_recursive(2, 2, 2)
    assert (r2.decomposable, r2.indecomposable) == (12, 44)
    r3 = count_recursive(2, 2, 3)
    assert (r3.decomposable, r3.indecomposable) == (24, 936)
    r4 = count_recursive(2, 2, 4)
    assert r4.decomposable == 136
    r1 = count_recursive(2, 2, 1)
    assert r1.indecomposable == 6 and r1.decomposable == 0


def test_recursion_rejects_one_variable():
    with pytest.raises(ValueError):
        count_recursive(3, 1, 4)


def test_closed_forms_match_recursion():
    for q in (2, 3):
        for d in (2, 3, 4, 6, 9, 10):
            closed = count_closed_small(q, 2, d)
            rec = count_recursive(q, 2, d)
            if d in (8, 12):
                assert closed is None
            else:
                assert closed == rec.decomposable, (q, d)
    assert count_closed_small(2, 2, 8) is None
    assert count_closed_small(2, 2, 6) == 2240


def test_count_uni_closed_values():
    assert count_uni(3, 4).exact == 54
    assert count_uni(2, 9).exact == 32
    assert count_uni(5, 3).exact == 0
    u = count_uni(2, 15)
    assert (u.lower, u.upper) == (128, 256)
    u = count_uni(3, 10)
    assert (u.lower, u.upper) == (1458, 2916)
    with pytest.raises(ValueError):
        count_uni(2, 4)  # gcd(q, d) != 1


def test_count_uni_omega3_bounds_hold_against_enumeration():
    u = count_uni(3, 8)
    rep = enumerate_census(3, 1, 8)
    assert u.lower <= rep.decomposable <= u.upper
    assert u.alpha == Fraction(2, 3 ** (8 - 2 - 4 + 1))


def test_enumeration_matches_recursion_grid():
    for q, n, d in [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2), (4, 2, 2), (5, 2, 2)]:
        rep = enumerate_census(q, n, d)
        rec = count_recursive(q, n, d)
        assert (rep.total, rep.indecomposable, rep.decomposable) == (
            rec.total,
            rec.indecomposable,
            rec.decomposable,
        ), (q, n, d)


def test_enumeration_total_matches_formula_uni():
    rep = enumerate_census(3, 1, 4)
    assert rep.total == count_total(3, 1, 4)
    assert rep.decomposable == 54


def test_partition_merge_determinism():
    full = enumerate_census(2, 2, 3)
    space = 2 ** 10
    cuts = [0, 100, 257, 800, space]
    parts = [
        enumerate_census(2, 2, 3, part=(lo, hi)) for lo, hi in zip(cuts, cuts[1:])
    ]
    merged = merge_reports(parts)
    assert (merged.total, merged.indecomposable, merged.decomposable) == (
        full.total,
        full.indecomposable,
        full.decomposable,
    )
    ranges = partition_ranges(2, 2, 3, 7)
    assert ranges[0][0] == 0 and ranges[-1][1] == space
    parts2 = [enumerate_census(2, 2, 3, part=r) for r in ranges]
    merged2 = merge_reports(parts2)
    assert merged2.decomposable == full.decomposable


def test_a_kept_report_keeps_no_census_module_alive():
    # a report's methods have the globals of arith, the one package module
    # that imports no other, so a caller that keeps a report past a fresh
    # import of the package keeps neither census nor decompose alive.  A
    # module object can be freed while functions still hold its dict, so the
    # check watches one function of each module
    script = ("import gc, importlib, sys, weakref\n"
              "rep = importlib.import_module('indecpoly.census').enumerate_census(2, 2, 2)\n"
              "refs = [weakref.ref(vars(sys.modules[f'indecpoly.{name}'])[fn]) for name, fn in\n"
              "        [('census', 'count_total'), ('decompose', 'compose'),\n"
              "         ('mpoly', 'monomials_upto'), ('fields', 'field_from_order'),\n"
              "         ('unipoly', 'roots')]]\n"
              "for name in [m for m in sys.modules if m.startswith('indecpoly')]:\n"
              "    del sys.modules[name]\n"
              "gc.collect()\n"
              "assert rep.to_json() and not any(ref() for ref in refs), [ref() for ref in refs]\n")
    src = str(Path(census.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr


def _inline_pool(monkeypatch):
    """Replace the process pool by one that runs the parts in this process;
    returns the pool sizes asked for and the number of parts mapped."""
    import concurrent.futures

    sizes, mapped = [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            mapped.append(len(items))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes, mapped


def _pin_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_parallel_census_pool_no_larger_than_its_parts(monkeypatch):
    # a fork pool starts all its workers at once, so --jobs beyond the
    # number of parts must not start idle processes; the fake pool runs the
    # parts in this process and records the size it was asked for
    sizes, _ = _inline_pool(monkeypatch)
    _pin_cpus(monkeypatch, 64)  # more CPUs than parts: the parts set the size
    rep = enumerate_census_parallel(2, 2, 1, 500)
    assert sizes == [8]  # the scan space of degree <= 1 in two variables over F_2
    assert rep == enumerate_census(2, 2, 1)


def test_parallel_census_pool_no_larger_than_the_usable_cpus(monkeypatch):
    # --jobs keeps its ranges, so the merged report is unchanged, but no more
    # workers start than the CPUs this process may run on
    sizes, mapped = _inline_pool(monkeypatch)
    _pin_cpus(monkeypatch, 2)
    rep = enumerate_census_parallel(2, 2, 1, 500)
    assert sizes == [2] and mapped == [8]
    assert rep == enumerate_census(2, 2, 1)


def test_parallel_census_pool_falls_back_to_the_cpu_count(monkeypatch):
    sizes, mapped = _inline_pool(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    rep = enumerate_census_parallel(2, 2, 2, 7)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker
    assert enumerate_census_parallel(2, 2, 2, 7) == rep == enumerate_census(2, 2, 2)
    assert sizes == [3, 1] and mapped == [7, 7]


def test_parallel_census_checks_the_guard_before_any_worker_starts(monkeypatch):
    import concurrent.futures

    def no_pool(max_workers):
        raise AssertionError(f"a pool of {max_workers} workers was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(GuardExceeded, match="scan space 1024 exceeds guard 10"):
        enumerate_census_parallel(2, 2, 3, 2, guard=10)


def test_guard_raises():
    with pytest.raises(GuardExceeded):
        enumerate_census(5, 2, 5, guard=10_000)


def test_census_guard_ignores_environment(monkeypatch):
    # SPEC_GUARD is read by the command line front end only
    monkeypatch.setenv("SPEC_GUARD", "10")
    assert enumerate_census(2, 2, 3) == enumerate_census(2, 2, 3, guard=1 << 24)


def test_bounds_check_n2_examples():
    rep = bounds_check_n2(2, 8)
    assert rep.alpha == Fraction(2 ** 16, 2 ** 45)
    assert rep.beta == Fraction(1, 2)
    assert rep.holds
    assert bounds_check_n2(2, 12).holds
    with pytest.raises(ValueError):
        bounds_check_n2(2, 6)


def test_bd_lemma_small_and_large():
    assert bd_lemma_check(1000)
    assert bd_lemma_check(10000)
    with pytest.raises(ValueError):
        bd_lemma_check(4)


def test_trend_table_monotone_on_doublings():
    table = dict(trend_table(2, 2, 20))
    gaps = [table[d] for d in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    for d in range(2, 21):
        n_half = count_total(2, 2, d // 2)
        bound = Fraction(d * 2 ** d * n_half, count_total(2, 2, d))
        assert table[d] <= bound


# --------------------------------------------------------------------------
# the reduced scans against the unreduced per-polynomial loop
# --------------------------------------------------------------------------

# (2, 2, 4) is the one census here with two splits, e = 2 and e = 4
SCREENED_CENSUSES = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3), (4, 2, 2), (5, 2, 2),
                     (2, 3, 2), (2, 2, 4)]
# one variable: (4, 1, 4) is wild, its outer degree 2 divisible by p = 2
UNI_CENSUSES = [(3, 1, 4), (4, 1, 4), (5, 1, 4)]


@functools.lru_cache(maxsize=None)
def _reference_prefix(q, n, d):
    """Running (dec, ind) counts over the scan index space by the loop the
    reduced scans replaced: every polynomial of exact degree d is built and
    tried at every split, by decompose_uni_dense in one variable and by
    decompose_multi in several, with no top-form screen and no orbit
    representatives."""
    field = field_from_order(q)
    monos = monomials_upto(n, d)
    ntop = sum(1 for e in monos if sum(e) == d)
    dec, ind = [0], [0]
    for digits in itertools.product(range(q), repeat=len(monos)):
        a, b = dec[-1], ind[-1]
        if any(digits[:ntop]):
            if _reference_hit(field, n, d, monos, digits):
                a += 1
            else:
                b += 1
        dec.append(a)
        ind.append(b)
    return dec, ind


def _reference_hit(field, n, d, monos, digits):
    """The reference verdict on the polynomial of exact degree d with the
    coefficient digits `digits` on `monos`."""
    if n == 1:
        f = list(reversed(digits))
        return any(decompose_uni_dense(field, f, r) is not None for r in outer_degrees(1, d))
    P = MPoly(field, n, {e: c for e, c in zip(monos, digits) if c})
    return any(decompose_multi(P, e) is not None for e in divisors(d) if e >= 2)


def _top_block(q, n, d):
    """(block length, number of top monomials): the indices sharing one top
    form are t * block + [0, block)."""
    monos = monomials_upto(n, d)
    ntop = sum(1 for e in monos if sum(e) == d)
    return q ** (len(monos) - ntop), ntop


@functools.lru_cache(maxsize=None)
def _representative_prefix(q, n, d):
    """Running (dec, ind) counts of the reference verdicts at the
    representative indices only: those whose first nonzero top digit is 1,
    one polynomial in each orbit {alpha F : alpha in F_q^*}."""
    dec, ind = _reference_prefix(q, n, d)
    block, _ = _top_block(q, n, d)
    rdec, rind = [0], [0]
    for i in range(len(dec) - 1):
        t = i // block
        while t >= q:
            t //= q
        rep = t == 1
        rdec.append(rdec[-1] + (dec[i + 1] - dec[i] if rep else 0))
        rind.append(rind[-1] + (ind[i + 1] - ind[i] if rep else 0))
    return rdec, rind


def _assert_slice_exact(q, n, d, lo, hi):
    """A slice reports q - 1 times the reference verdicts at the
    representative indices in [lo, hi)."""
    rdec, rind = _representative_prefix(q, n, d)
    rep = enumerate_census(q, n, d, part=(lo, hi))
    assert (rep.decomposable, rep.indecomposable) == (
        (q - 1) * (rdec[hi] - rdec[lo]), (q - 1) * (rind[hi] - rind[lo])), (q, n, d, lo, hi)
    return rep


def _assert_cover_exact(q, n, d, cuts):
    """Each slice of the cover cuts[0] = 0 < ... < cuts[-1] = space is exact
    as above, and the slices merge to the reference's counts over the whole
    space."""
    dec, ind = _reference_prefix(q, n, d)
    assert cuts[0] == 0 and cuts[-1] == scan_space(q, n, d)
    merged = merge_reports([_assert_slice_exact(q, n, d, lo, hi)
                            for lo, hi in zip(cuts, cuts[1:])])
    assert (merged.decomposable, merged.indecomposable) == (dec[-1], ind[-1]), (q, n, d, cuts)


def _uneven_covers(space):
    # uneven cuts, unlike partition_ranges
    return [[0, *sorted(random.Random(seed).sample(range(1, space), parts - 1)), space]
            for parts, seed in ((7, 1), (13, 2))]


@pytest.mark.parametrize("q,n,d", SCREENED_CENSUSES)
def test_screened_scan_is_exact_slice_by_slice(q, n, d):
    space = scan_space(q, n, d)
    block, ntop = _top_block(q, n, d)
    for cuts in _uneven_covers(space):
        _assert_cover_exact(q, n, d, cuts)
    live = q ** (ntop - 1)  # the top x^d: it has an e-th root for every e
    dead = q ** (ntop - 2)  # the top x^(d-1) y: it has none
    slices = [
        (live * block + 1, (live + 1) * block - 1),  # strictly inside one top block
        (dead * block + 1, (dead + 1) * block - 1),
        (0, 0), (live * block + 3, live * block + 3), (space, space),  # empty
        (block // 2, 3 * block + 2),  # starts in the all-zero top block
        (0, block),  # the all-zero top block alone: nothing of degree d
    ]
    for lo, hi in slices:
        _assert_slice_exact(q, n, d, lo, hi)


@pytest.mark.parametrize("q,n,d", UNI_CENSUSES)
def test_monic_uni_scan_is_exact_slice_by_slice(q, n, d):
    space = scan_space(q, n, d)
    lead = q ** d  # the indices lead * c + [0, lead) have leading coefficient c
    for cuts in _uneven_covers(space):
        _assert_cover_exact(q, n, d, cuts)
    slices = [
        (lead + 1, 2 * lead - 1),  # strictly inside the monic range
        (lead // 2, lead + 7), (2 * lead - 5, 2 * lead + 5),  # across its ends
        (lead, 2 * lead), (0, space),
        (0, lead), (2 * lead, space),  # no representative: (0, 0)
        (0, 0), (lead + 3, lead + 3), (space, space),  # empty
    ]
    for lo, hi in slices:
        _assert_slice_exact(q, n, d, lo, hi)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # a test-only extra; the rest of this module runs without it
    given = None

if given is not None:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.tuples(st.integers(0, 3 ** 6), st.integers(0, 3 ** 6)).map(sorted))
    def test_screened_scan_is_exact_on_any_slice(bounds):
        lo, hi = bounds
        _assert_cover_exact(3, 2, 2, [0, lo, hi, 3 ** 6])


@pytest.mark.parametrize("q,n,d", [(3, 2, 2), (2, 2, 4)])
def test_one_index_slices_of_a_live_block_are_exact(q, n, d):
    # the scan classifies the constant-0 index of each run of q indices and
    # counts its verdict for the indices of the run inside the slice: a slice
    # of one index reports the verdict of its run, whether the run's
    # representative lies in the slice or before its start
    block, ntop = _top_block(q, n, d)
    live = q ** (ntop - 1)  # the top x^d: it has an e-th root for every e
    for i in range(live * block, (live + 1) * block):
        _assert_slice_exact(q, n, d, i, i + 1)


def _top_form(q, n, d, t):
    """The top form with the top digits of t, the first top monomial slowest."""
    field = field_from_order(q)
    _, ntop = _top_block(q, n, d)
    return MPoly(field, n, dict(zip(monomials_upto(n, d)[:ntop], _digits(t, q, ntop))))


def _image_bound(q, n, d, T):
    """Sum over the splits e whose root H the top form T has of q^(e - 1 + #h),
    #h the monomials of degree 1 .. d/e - 1: the composites u(H + h) of a
    live block."""
    return sum(q ** (e - 1 + len(monomials_upto(n, d // e - 1)) - 1)
               for e in outer_degrees(n, d) if poly_eth_root(T, e) is not None)


def _spy_composites(monkeypatch):
    """Record (e, H, terms) for every composite the scan draws from
    composites_from_top, whose powers are [1, H, ..., H^e], and fail on any
    call of the graded engine."""
    built = []
    image = census.composites_from_top

    def spy(powers):
        for terms in image(powers):
            built.append((len(powers) - 1, powers[1], terms))
            yield terms

    def no_engine(*args):
        raise AssertionError("the n >= 2 scan ran the graded engine")

    monkeypatch.setattr(census, "composites_from_top", spy)
    monkeypatch.setattr(decompose, "_decompose_graded", no_engine)
    return built


def test_multi_scan_classifies_only_constant_free_polynomials(monkeypatch):
    # F = u(H) exactly when F + c = (u + c)(H): in n >= 2 the scan builds
    # the composites of each live block with constant term 0 and top form T,
    # no more than sum_e q^(e - 1 + #h) of them, and never runs the engine
    for q, n, d in [(3, 2, 2), (2, 2, 4), (2, 3, 2)]:
        dec, ind = _reference_prefix(q, n, d)  # before the spies
        block, ntop = _top_block(q, n, d)
        census._block_runs.cache_clear()  # the runs of the last block drawn
        with monkeypatch.context() as m:
            built = _spy_composites(m)
            rep = enumerate_census(q, n, d)
        assert (rep.decomposable, rep.indecomposable) == (dec[-1], ind[-1])
        assert built, (q, n, d)
        tops = collections.Counter()
        for e, H, terms in built:
            P = MPoly(field_from_order(q), n, terms)
            assert P.terms == terms and P.constant_term() == 0, (q, n, d, e)
            assert P.leading_form() == H ** e, (q, n, d, e)
            tops[P.leading_form()] += 1
        for T, count in tops.items():
            assert count <= _image_bound(q, n, d, T), (q, n, d, T.format())


def test_screened_top_block_builds_no_polynomial(monkeypatch):
    # the top x y over F_3 has no square root, so its whole block counts as
    # indecomposable, q - 1 times over, without a single composite
    block, ntop = _top_block(3, 2, 2)
    t = 3 ** (ntop - 2)

    def no_image(*args):
        raise AssertionError("composites_from_top ran inside a screened block")

    monkeypatch.setattr(census, "composites_from_top", no_image)
    rep = enumerate_census(3, 2, 2, part=(t * block, (t + 1) * block))
    assert (rep.decomposable, rep.indecomposable) == (0, 2 * block)


# small censuses in one, two and three variables, scanned slice by slice
MONIC_COUNT_CENSUSES = [(2, 1, 6), (3, 1, 4), (2, 2, 3), (3, 2, 2), (4, 2, 2), (2, 3, 2)]


@pytest.mark.parametrize("q,n,d", MONIC_COUNT_CENSUSES)
def test_monic_count_matches_the_decoded_indices(q, n, d):
    # a slice's total is q - 1 times its monic indices: those whose first
    # nonzero top digit is 1, decoded index by index.  The slices are empty,
    # before the first monic block, start inside a block, cross several
    # blocks, or are drawn at random
    block, ntop = _top_block(q, n, d)
    space = scan_space(q, n, d)
    monos = len(monomials_upto(n, d))

    def monic(i):
        top = [c for c in _digits(i, q, monos)[:ntop] if c]
        return top[:1] == [1]

    rng = random.Random(39)
    slices = [(0, 0), (space, space), (block + 3, block + 3), (0, block), (1, block - 1),
              (block + 1, 2 * block - 1), (block // 2, space - 1), (0, space),
              (2 * block - 1, space)]
    for k in range(ntop):  # one index on each side of each monic block's ends
        slices += [(q ** k * block - 1, q ** k * block + 1),
                   (2 * q ** k * block - 1, min(2 * q ** k * block + 1, space))]
    for _ in range(40):
        lo = rng.randrange(space)
        slices.append((lo, rng.randint(lo, min(space, lo + rng.choice([1, block, 4 * block])))))
    for lo, hi in slices:
        rep = enumerate_census(q, n, d, part=(lo, hi))
        assert rep.total == (q - 1) * sum(map(monic, range(lo, hi))), (q, n, d, lo, hi)


def test_non_representative_slices_call_no_engine(monkeypatch):
    # the top 2 x^2 over F_3 and the one-variable polynomials of leading
    # coefficient 2 are counted at their monic multiples: these slices hold
    # no representative, so they report nothing and never reach the engine
    def no_engine(*args):
        raise AssertionError("the engine ran on a non-representative index")

    for name in ("composites_from_top", "decompose_uni_dense"):
        monkeypatch.setattr(census, name, no_engine)
    block, ntop = _top_block(3, 2, 2)
    t = 2 * 3 ** (ntop - 1)
    for n, d, lo, hi in [(2, 2, t * block, (t + 1) * block), (1, 4, 2 * 3 ** 4, 3 ** 5)]:
        rep = enumerate_census(3, n, d, part=(lo, hi))
        assert (rep.total, rep.decomposable, rep.indecomposable) == (0, 0, 0)


def test_scan_builds_each_candidates_powers_once_per_block_and_split(monkeypatch):
    # (2, 2, 4) cut into 128 slices of 256 indices, a quarter of a top block
    # each.  e = 2 composes over the inners x^2 + a x + b y under the top x^4,
    # e = 4 over the inner x.  The only products of the whole census are the
    # powers [1, H, ..., H^e] of the live roots H, e - 1 of them, built once
    # per live block and split by the table of live tops: the inners H + h
    # take their powers from copies of those of H, in place, and the slices
    # multiply nothing.  7 blocks have a top with a square root (28 slices),
    # the 7 monic quadratic forms H, and 3 of them a fourth root (12 slices),
    # the 3 monic linear forms, so 7 * 1 + 3 * 3 products
    q, n, d = 2, 2, 4
    block, ntop = _top_block(q, n, d)
    products = {"all": 0}
    mul = MPoly.__mul__

    def counted_mul(self, other):
        products["all"] += 1
        return mul(self, other)

    # the zero top is skipped; over F_2 every other top is monic
    slices = [(lo, hi) for lo, hi in partition_ranges(q, n, d, 128) if lo // block]
    live = {s: [e for e in (2, 4)
                if poly_eth_root(_top_form(q, n, d, s[0] // block), e) is not None]
            for s in slices}  # before the spies
    _spy_composites(monkeypatch)
    monkeypatch.setattr(MPoly, "__mul__", counted_mul)
    census._live_tops.cache_clear()  # the table lasts across censuses
    census._block_runs.cache_clear()  # and the runs of the last block drawn
    census._live_tops(q, n, d)
    table = products["all"]
    dec = 0
    for lo, hi in slices:
        dec += enumerate_census(q, n, d, part=(lo, hi)).decomposable
    assert dec == count_recursive(q, n, d).decomposable == 136
    assert [sum(e in p for p in live.values()) for e in (2, 4)] == [28, 12]
    blocks = {lo // block: splits for (lo, _), splits in live.items()}
    assert [sum(e in p for p in blocks.values()) for e in (2, 4)] == [7, 3]
    assert table == sum(e - 1 for p in blocks.values() for e in p) == 7 * 1 + 3 * 3
    assert products["all"] == table  # none in the slices


def _root_key(root):
    e, H = root
    return e, sorted(H.terms.items())


def test_scan_builds_each_candidate_inner_once_per_block_and_split(monkeypatch):
    # the same 128 slices of (2, 2, 4), in order.  The census takes the
    # powers [1, H, ..., H^e] of each live root H once, all in its first
    # slice, which builds the table of live tops.  Each live block's image is
    # drawn once in the census, by the first slice that meets the block, one
    # composites_from_top call per split that its top admits, on the table's
    # power list, and the later slices of the block draw nothing.  Inside
    # composites_from_top no two-variable polynomial is built: the inners
    # H + h, their powers and the composites are plain term dicts
    q, n, d = 2, 2, 4
    block, ntop = _top_block(q, n, d)
    # the zero top is skipped; over F_2 every other top is monic
    slices = [(lo, hi) for lo, hi in partition_ranges(q, n, d, 128) if lo // block]
    state = {"image": False, "powers": False}
    built, drawn, powered = [], [], []
    init, image, inner_powers = MPoly.__init__, census.composites_from_top, decompose._inner_powers

    def spy_init(self, dom, nvars, terms=None):
        init(self, dom, nvars, terms)
        if state["image"] and not state["powers"] and nvars == 2:
            built.append(self)

    def spy_image(powers):
        assert any(powers is pw for live in census._live_tops(q, n, d).values()
                   for pw in live)
        drawn.append((len(powers) - 1, powers[1]))
        state["image"] = True
        try:
            yield from image(powers)
        finally:
            state["image"] = False

    def spy_powers(H, e):
        powered.append((e, H))
        state["powers"] = True
        try:
            return inner_powers(H, e)
        finally:
            state["powers"] = False

    roots = {lo // block: [(e, H) for e in (2, 4)
                           if (H := poly_eth_root(_top_form(q, n, d, lo // block), e)) is not None]
             for lo, _ in slices}  # before the spies
    census._live_tops.cache_clear()  # the table lasts across censuses
    census._block_runs.cache_clear()  # and the runs of the last block drawn
    monkeypatch.setattr(MPoly, "__init__", spy_init)
    monkeypatch.setattr(census, "composites_from_top", spy_image)
    monkeypatch.setattr(census, "_inner_powers", spy_powers)
    monkeypatch.setattr(decompose, "_inner_powers", spy_powers)
    busy = 0
    for k, (lo, hi) in enumerate(slices):
        want = roots[lo // block] if lo % block == 0 else []  # the block's first slice
        del drawn[:], powered[:]
        enumerate_census(q, n, d, part=(lo, hi))
        assert drawn == want, (lo, hi)
        assert sorted(powered, key=_root_key) == (
            [] if k else sorted([r for t in roots for r in roots[t]], key=_root_key)), (lo, hi)
        assert built == [], (lo, hi)
        busy += bool(drawn)
    assert busy == 7  # the blocks whose top has a square root


def test_scan_slices_start_at_their_decoded_digits():
    # a slice's first tuple is decoded from its start, not reached by stepping
    # through every tuple before it: the last two of 3^30 come at once
    rng = random.Random(34)
    for _ in range(500):
        q, k = rng.choice([2, 3, 4, 5]), rng.randint(0, 5)
        lo = rng.randrange(q ** k)
        hi = rng.randint(lo, q ** k)
        assert list(digit_tuples(q, k, lo, hi)) == list(
            itertools.islice(itertools.product(range(q), repeat=k), lo, hi)), (q, k, lo, hi)
        assert list(digit_tuples(q, k, lo)) == list(
            itertools.islice(itertools.product(range(q), repeat=k), lo, None)), (q, k, lo)
    for q, k in [(2, 0), (3, 0), (2, 1), (3, 3), (4, 2), (5, 3)]:
        assert list(digit_tuples(q, k)) == list(itertools.product(range(q), repeat=k))
    assert list(digit_tuples(7, 0)) == [()]
    assert list(digit_tuples(7, 0, 0, 0)) == list(digit_tuples(7, 2, 0, 0)) == []
    assert list(digit_tuples(3, 30, 3 ** 30 - 2, 3 ** 30)) == [
        (2,) * 29 + (1,), (2,) * 30]


def _digits(i, q, k):
    """The k base-q digits of the index i, the slowest first."""
    out = []
    for _ in range(k):
        i, r = divmod(i, q)
        out.append(r)
    return tuple(reversed(out))


def test_forced_split_slices_match_the_reference_loop(monkeypatch):
    # over F_3 the top x^4 has the square root x^2 and the fourth root x.
    # The split e = 2 has p^a = 1 < m = 2, which forced the engine to take the
    # inner's linear part from each F; the image composes over all of them:
    # 3^(1 + 2) composites at e = 2 and 3^3 at e = 4, drawn once for the
    # block, by the first of the two slices, while the second reads the same
    # runs.  The space is 3^15, too large for _reference_prefix, so the
    # reference loop runs over each slice only: the first has no cubic part,
    # the second the cubic part 2 x^3 + 2 x^2 y of (x^2 + x + y)^2
    q, n, d = 3, 2, 4
    field = field_from_order(q)
    monos = monomials_upto(n, d)
    block, ntop = _top_block(q, n, d)
    t = q ** (ntop - 1)
    T = _top_form(q, n, d, t)
    assert _image_bound(q, n, d, T) == 27 + 27
    census._block_runs.cache_clear()  # the runs of the last block drawn
    counts = []
    for offset in (0, 2 * q ** 9 + 2 * q ** 8):
        lo = t * block + offset
        hi = lo + q ** 6
        hits = sum(_reference_hit(field, n, d, monos, _digits(i, q, len(monos)))
                   for i in range(lo, hi))
        with monkeypatch.context() as m:
            built = _spy_composites(m)
            rep = enumerate_census(q, n, d, part=(lo, hi))
        assert hits > 0
        assert (rep.decomposable, rep.indecomposable) == ((q - 1) * hits,
                                                          (q - 1) * (hi - lo - hits))
        counts.append(collections.Counter(e for e, _, _ in built))
    assert counts == [{2: 27, 4: 27}, {}]


def test_forced_wild_split_slices_match_the_reference_loop(monkeypatch):
    # over F_2 the top x^6 + x^4 y^2 of (2, 2, 6) has the square root
    # x^3 + x^2 y and no cube or sixth root.  The split e = 2 is wild and
    # forced, p^a = 2 < m = 3.  Each slice holds x^3 with every other part of
    # degree <= 3, under one part of degree 4 and 5: x^2 y^2, with the
    # composite (t^2 + t)(x^3 + x^2 y + x y + y); x^3 y + x^2 y^2, whose x^3 y
    # lies above d - m = 3 with odd exponents; and x^4 y.  The reference loop
    # runs with the exponent screen patched off.  The census takes no root
    # past the top form (an _extend_root down to degree d - m; the top's cube
    # root is one to degree -1) and peels nothing: it composes the 2^(1 + 5)
    # pairs (u, h), h on the 5 monomials of degree 1 and 2, once for the
    # block, in the first slice, and the two later slices draw nothing
    q, n, d = 2, 2, 6
    field = field_from_order(q)
    monos = monomials_upto(n, d)
    block, ntop = _top_block(q, n, d)
    t = q ** 6 + q ** 4  # the top digits of x^6 + x^4 y^2
    composite = MPoly(field, n, dict.fromkeys(
        [(6, 0), (4, 2), (2, 2), (3, 0), (2, 1), (1, 1), (0, 2), (0, 1)], 1))
    extend, peel = decompose._extend_root, decompose._extract_outer
    census._block_runs.cache_clear()  # the runs of the last block drawn
    found, drawn = [], []
    for offset in (q ** 12 + q ** 9, q ** 13 + q ** 12 + q ** 9, q ** 19 + q ** 9):
        lo = t * block + offset
        hi = lo + q ** 9
        with monkeypatch.context() as m:
            m.setattr(decompose, "_exponents_admit", lambda F, e: True)
            hits = sum(_reference_hit(field, n, d, monos, _digits(i, q, len(monos)))
                       for i in range(lo, hi))
        work = []

        def spy_extend(G, e, R, floor):
            work.append(floor)
            return extend(G, e, R, floor)

        def spy_peel(*args):
            work.append("peel")
            return peel(*args)

        with monkeypatch.context() as m:
            built = _spy_composites(m)
            m.setattr(decompose, "_extend_root", spy_extend)
            m.setattr(decompose, "_extract_outer", spy_peel)
            rep = enumerate_census(q, n, d, part=(lo, hi), guard=1 << 28)
        assert (rep.decomposable, rep.indecomposable) == (hits, hi - lo - hits)
        drawn.append(collections.Counter(e for e, _, _ in built))
        found.append((hits, d - d // 2 in work, "peel" in work))
        if built:
            assert composite.terms in [terms for _, _, terms in built]
    assert found == [(8, False, False), (0, False, False), (0, False, False)]
    assert drawn == [{2: 2 ** 6}, {}, {}]
    i = sum(q ** (len(monos) - 1 - k) for k, mono in enumerate(monos) if mono in composite.terms)
    assert t * block + q ** 12 + q ** 9 <= i < t * block + q ** 12 + q ** 10
    assert decompose_multi(composite, 2).inner == MPoly(field, n, dict.fromkeys(
        [(3, 0), (2, 1), (1, 1), (0, 1)], 1))


# (q, n, d, D): full censuses pinned against the divisor recursion; their
# scan spaces, 4^15, 5^15, 2^28 and 2^35, are far beyond _reference_prefix
FULL_CENSUSES = [(4, 2, 4, 19008), (5, 2, 4, 89500), (2, 2, 6, 2240), (2, 3, 4, 2072)]


@pytest.mark.parametrize("q,n,d,dec", FULL_CENSUSES)
def test_full_multi_census_matches_the_recursion(q, n, d, dec):
    rep = enumerate_census(q, n, d, guard=scan_space(q, n, d))
    rec = count_recursive(q, n, d)
    assert (rep.total, rep.indecomposable, rep.decomposable) == (
        rec.total, rec.indecomposable, rec.decomposable)
    assert rep.decomposable == dec


# the wild splits e = 2, 4 over F_2 and F_4 and e = 3 over F_3, and tame ones
REBUILT_CENSUSES = [(2, 2, 4), (3, 2, 4), (4, 2, 4), (5, 2, 4), (2, 3, 4), (2, 2, 6),
                    (3, 2, 6), (4, 2, 6), (2, 2, 8)]


@pytest.mark.parametrize("q,n,d", REBUILT_CENSUSES)
def test_image_matches_the_powers_rebuilt_by_products(q, n, d):
    # composites_from_top moves the powers of H + h from one h to the next in
    # place, from the table's powers of H; the reference multiplies out every
    # power of every H + h
    for live in census._live_tops(q, n, d).values():
        for powers in live:
            e, H = len(powers) - 1, powers[1]
            assert list(decompose.composites_from_top(powers)) == list(
                rebuilt_composites(H, e)), (q, n, d, e, H.format())


# (q, n, d, repeats): the composites yielded more than once by the wild
# splits of each census's live tops, summed over its (e, H)
COLLIDING_CENSUSES = [(2, 2, 4, 3), (3, 2, 6, 8), (2, 3, 4, 7), (4, 2, 4, 25), (5, 2, 4, 0),
                      (3, 2, 4, 0), (2, 2, 6, 0)]


@pytest.mark.parametrize("q,n,d,repeats", COLLIDING_CENSUSES)
def test_tame_splits_yield_distinct_composites(q, n, d, repeats):
    # for p not dividing e, (u, h) -> u(H + h) is injective: the normalized
    # decomposition at a tame split is unique.  A wild split is not: over F_2,
    # (t^2 + t)(x^2) = t^2(x^2 + x), so _block_runs collects a set
    p = field_from_order(q).char
    wild = 0
    for live in census._live_tops(q, n, d).values():
        for powers in live:
            image = [frozenset(terms.items()) for terms in decompose.composites_from_top(powers)]
            if (len(powers) - 1) % p:
                assert len(set(image)) == len(image), (q, n, d, powers[1].format())
            else:
                wild += len(image) - len(set(image))
    assert wild == repeats


def test_a_wild_split_yields_one_composite_twice():
    field = field_from_order(2)
    x2 = MPoly(field, 2, {(2, 0): 1})
    image = [frozenset(terms.items())
             for terms in decompose.composites_from_top(decompose._inner_powers(x2, 2))]
    assert len(image) == 2 ** (1 + 2)  # u_1 and h on x and y
    assert image.count(frozenset({(4, 0): 1, (2, 0): 1}.items())) == 2  # x^4 + x^2


if given is not None:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([(2, 2, 4), (3, 2, 4), (4, 2, 3)]), st.integers(1, 64),
           st.randoms(use_true_random=False))
    def test_shuffled_slices_merge_to_the_recursion(case, parts, rng):
        # a cover of 1 to 64 ranges, run in a shuffled order with the memo of
        # the last block's runs left warm.  Most ranges start inside a block,
        # and about half inside a decomposable run, which is then cut in two
        q, n, d = case
        space = scan_space(q, n, d)
        runs = [r for t in census._live_tops(q, n, d) for r in census._block_runs(q, n, d, t)]
        cuts = {rng.choice(runs) * q + rng.randrange(1, q) if rng.random() < 0.5
                else rng.randrange(1, space) for _ in range(parts - 1)}
        cuts = [0, *sorted(cuts), space]
        ranges = list(zip(cuts, cuts[1:]))
        rng.shuffle(ranges)
        merged = merge_reports([enumerate_census(q, n, d, part=r) for r in ranges])
        rec = count_recursive(q, n, d)
        assert (merged.total, merged.indecomposable, merged.decomposable) == (
            rec.total, rec.indecomposable, rec.decomposable), (q, n, d, ranges)


# small censuses whose live blocks are small enough for a reference loop;
# (3, 2, 4) has the forced split e = 2, p^a = 1 < m = 2
IMAGE_CENSUSES = [(2, 2, 2), (2, 2, 4), (3, 2, 3), (4, 2, 2), (5, 2, 2), (4, 2, 3),
                  (2, 3, 2), (3, 3, 2), (3, 2, 4)]


def _monic_tops(q, n, d):
    """The monic top digits t: those whose first nonzero digit is 1."""
    _, ntop = _top_block(q, n, d)
    return [t for k in range(ntop) for t in range(q ** k, 2 * q ** k)]


@functools.lru_cache(maxsize=None)
def _rooted_tops(q, n, d):
    """The monic top digits t whose top form has a root at some split."""
    return [t for t in _monic_tops(q, n, d)
            if any(poly_eth_root(_top_form(q, n, d, t), e) is not None
                   for e in outer_degrees(n, d))]


@pytest.mark.parametrize("q,n,d", sorted(set(SCREENED_CENSUSES + IMAGE_CENSUSES)))
def test_live_top_table_lists_the_roots_of_every_monic_top(q, n, d):
    # the table of the powers H^e, built without a root, names at each monic
    # top the e-th roots that poly_eth_root takes of it, split by split, each
    # with its powers [1, H, ..., H^e]
    table = census._live_tops(q, n, d)
    for t in _monic_tops(q, n, d):
        T = _top_form(q, n, d, t)
        live = table.get(t, [])
        assert [(len(pw) - 1, pw[1]) for pw in live] == [
            (e, H) for e in outer_degrees(n, d)
            if (H := poly_eth_root(T, e)) is not None], (q, n, d, t)
        assert all(pw == decompose._inner_powers(pw[1], len(pw) - 1) for pw in live)
    assert set(table) <= set(_monic_tops(q, n, d))


if given is not None:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from(IMAGE_CENSUSES).flatmap(
        lambda c: st.tuples(st.just(c), st.sampled_from(_rooted_tops(*c)))))
    def test_image_of_a_live_block_is_its_decomposable_representatives(case):
        # the composites of a live block, over all its splits, are exactly
        # the polynomials with its top form and constant term 0 that
        # decompose_multi decomposes, and the block's slice counts q runs
        # of q - 1 multiples for each
        (q, n, d), t = case
        field = field_from_order(q)
        block, ntop = _top_block(q, n, d)
        T = _top_form(q, n, d, t)
        image = {frozenset(terms.items()) for e in outer_degrees(n, d)
                 if (H := poly_eth_root(T, e)) is not None
                 for terms in decompose.composites_from_top(decompose._inner_powers(H, e))}
        lows = monomials_upto(n, d)[ntop:-1]  # the constant comes last
        want = set()
        for digits in itertools.product(range(q), repeat=len(lows)):
            P = MPoly(field, n, {**T.terms, **dict(zip(lows, digits))})
            if any(decompose_multi(P, e) is not None for e in outer_degrees(n, d)):
                want.add(frozenset(P.terms.items()))
        assert image == want, (q, n, d, T.format())
        rep = enumerate_census(q, n, d, part=(t * block, (t + 1) * block))
        assert rep.decomposable == (q - 1) * q * len(want)


# D(q, 1, d) taken from the unreduced scan, before the scan counted each
# monic representative q - 1 times
UNI_PINNED = [(3, 8, 810), (3, 10, 2754), (9, 4, 5832), (7, 6, 26754), (5, 6, 4500)]


@pytest.mark.parametrize("q,d,dec", UNI_PINNED)
def test_uni_enumeration_pinned_counts(q, d, dec):
    rep = enumerate_census(q, 1, d)
    assert (rep.total, rep.decomposable) == (count_total(q, 1, d), dec)
    bounds = count_uni(q, d)
    assert bounds.lower <= dec <= bounds.upper
    assert bounds.exact in (None, dec)


def _composition_image():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("census_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles.uni_composition_image


@pytest.mark.parametrize("q,d", [(3, 6), (5, 6)])
def test_uni_enumeration_matches_the_composition_image(q, d):
    # the oracle collects the decomposables of degree d as the set of u(v)
    # over normalized v, sharing no code with the package
    assert enumerate_census(q, 1, d).decomposable == len(_composition_image()(q, d))


@pytest.mark.parametrize("q,d", [(3, 14), (2, 33)])
def test_two_prime_bounds_hold_against_the_composition_image(q, d):
    # tame d = l m with primes l < m: one split's compositions are pairwise
    # distinct, so they bound D below; at these sizes the two splits share
    # more than q^5 polynomials
    u = count_uni(q, d)
    dec = len(_composition_image()(q, d))
    assert u.method == "bounds" and u.lower <= dec <= u.upper, (u.lower, dec, u.upper)
    assert u.upper - q ** 5 > dec
