"""The four benchmark workloads: corpus, one item, the report, the oracle.

Every workload builds its items in `setup` from the seed (the two census
workloads are exhaustive and ignore it), runs one item per `run` call, turns
one pass of outputs into the report text whose sha256 is recorded, and checks
that pass against an oracle that does not reuse the code it checks.

`pkg` is the freshly imported package, a namespace of its layer modules.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from oracles import multi_total, uni_composition_image, uni_total


@dataclass
class Item:
    label: str
    args: tuple


class Failed:
    """Output of an item that raised."""

    def __init__(self, exc):
        self.text = f"error: {type(exc).__name__}: {exc}"

    def __repr__(self):
        return self.text


def run_cli(pkg, argv):
    """`spec <argv>` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pkg.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# censuses
# --------------------------------------------------------------------------

class Census:
    """Exhaustive enumeration over equal index slices, merged per input."""

    def __init__(self, n, inputs):
        self.n = n
        self.inputs = inputs  # (q, d, slices)

    def setup(self, pkg, seed):
        items = []
        for q, d, jobs in self.inputs:
            pkg.fields.field_from_order(q)
            for lo, hi in pkg.census.partition_ranges(q, self.n, d, jobs):
                if self.n == 1 and hi <= q ** d:
                    continue  # leading coefficient zero: nothing is classified
                items.append(Item(f"q={q} n={self.n} d={d} [{lo},{hi})", (q, d, lo, hi)))
        return items

    def run(self, pkg, item):
        q, d, lo, hi = item.args
        return pkg.census.enumerate_census(q, self.n, d, part=(lo, hi))

    def units(self, out):
        """Polynomials classified."""
        return 0 if isinstance(out, Failed) else out.total

    def _groups(self, items, outputs):
        groups = {}
        for idx, (item, out) in enumerate(zip(items, outputs)):
            groups.setdefault(item.args[:2], []).append((idx, out))
        return groups

    def report(self, pkg, items, outputs):
        lines = []
        for (q, d), members in self._groups(items, outputs).items():
            reps = [out for _, out in members]
            if any(isinstance(r, Failed) for r in reps):
                lines.append(f"q={q} d={d} " + "; ".join(map(repr, reps)))
            else:
                lines.append(pkg.census.merge_reports(reps).to_json())
        return "\n".join(lines) + "\n"

    def check(self, pkg, items, outputs):
        problems = []
        for (q, d), members in self._groups(items, outputs).items():
            idxs = [i for i, _ in members]
            reps = [out for _, out in members]
            if any(isinstance(r, Failed) for r in reps):
                continue  # already failed when it ran
            got = pkg.census.merge_reports(reps)
            for msg in self._check_one(pkg, q, d, got):
                problems.append((idxs, f"q={q} n={self.n} d={d}: {msg}"))
        return problems

    def _check_one(self, pkg, q, d, got):
        if self.n == 1:
            total = uni_total(q, d)
            dec = len(uni_composition_image(q, d))
            if (got.total, got.decomposable, got.indecomposable) != (total, dec, total - dec):
                yield (f"enumeration (N, D, I) = {got.total, got.decomposable, got.indecomposable}"
                       f", composition image gives {total, dec, total - dec}")
            if gcd(q, d) == 1:
                bounds = pkg.census.count_uni(q, d)
                if not bounds.lower <= got.decomposable <= bounds.upper:
                    yield f"D = {got.decomposable} outside [{bounds.lower}, {bounds.upper}]"
                if bounds.exact is not None and bounds.exact != got.decomposable:
                    yield f"D = {got.decomposable}, closed form {bounds.exact}"
            return
        if got.total != multi_total(q, self.n, d):
            yield f"N = {got.total}, expected {multi_total(q, self.n, d)}"
        rec = pkg.census.count_recursive(q, self.n, d)
        if (rec.total, rec.indecomposable, rec.decomposable) != (
                got.total, got.indecomposable, got.decomposable):
            yield (f"enumeration (N, I, D) = {got.total, got.indecomposable, got.decomposable}"
                   f", recursion {rec.total, rec.indecomposable, rec.decomposable}")
        closed = pkg.census.count_closed_small(q, self.n, d)
        if closed is not None and closed != got.decomposable:
            yield f"D = {got.decomposable}, closed form {closed}"


# --------------------------------------------------------------------------
# spectral sweeps through the command line front end
# --------------------------------------------------------------------------

def _random_poly(pkg, rng, field, d):
    """Random polynomial of exact total degree d in x, y: every coefficient of
    degree <= d uniform in the field."""
    MPoly, monos = pkg.mpoly.MPoly, pkg.mpoly.monomials_upto(2, d)
    while True:
        terms = {e: field.element(c) for e in monos if (c := rng.randrange(field.q))}
        P = MPoly(field, 2, terms)
        if P.degree() == d:
            return P


class Command:
    """Items are `spec` argument lists, run in-process through `cli.main`; the
    report is each command line with its stdout, stderr and exit code."""

    def run(self, pkg, item):
        return run_cli(pkg, item.args)

    def units(self, out):
        """Commands completed."""
        return 1

    def report(self, pkg, items, outputs):
        return "".join(f"$ spec {' '.join(it.args)}\n{_show(out)}"
                       for it, out in zip(items, outputs))

    def check(self, pkg, items, outputs):
        problems = []
        for idx, (item, out) in enumerate(zip(items, outputs)):
            if failed_run(out):
                continue  # counted when it ran
            for msg in self.check_report(pkg, item, json.loads(out[1])):
                problems.append(([idx], f"{item.label}: {msg}"))
        return problems


class Spectrum(Command):
    """`spec spectrum --field F poly` on indecomposable inputs.

    F_5 cubics use the divisor search; quartics over F_3 and F_4 sweep
    extensions up to F_27 and F_64 with the lifting engine; quadratics over
    F_7 have a closed-form spectral value.  The F_7 quartic (sweeps up to
    F_343) comes from a fixed stream, the same for every seed: about one F_7
    quartic in thirty takes 35 s instead of 1.3 s (see README.md).
    """

    SEEDED = (("5", 3, 12), ("3", 4, 4), ("4", 4, 12), ("7", 2, 3))  # (field, degree, count)
    FIXED = (("7", 4, 1),)

    def setup(self, pkg, seed):
        items = []
        for corpus, rng in ((self.SEEDED, random.Random(f"spectrum:{seed}")),
                            (self.FIXED, random.Random("spectrum:fixed"))):
            for fname, d, count in corpus:
                field = pkg.fields.field_from_order(int(fname))
                self._build_fields(pkg, field, d)
                for _ in range(count):
                    P = self._draw(pkg, rng, field, d)
                    items.append(Item(f"F_{fname} d={d} {P.format()}",
                                      ("spectrum", "--field", fname, P.format())))
        return items

    @staticmethod
    def _build_fields(pkg, field, d):
        """Zech tables and embeddings the sweep over F_(q^m), m < d, uses, and
        the tables of their prime-degree extensions that `conjugate_split_count`
        may factor over; otherwise the first item to need one builds it."""
        limit = pkg.fields.ZECH_LIMIT
        for m in range(1, d):
            pkg.fields.embedding(field, pkg.fields.finite_field(field.p, field.k * m))
            for ell in (2, 3, 5, 7):
                if ell <= d and field.q ** (m * ell) <= limit:
                    pkg.fields.finite_field(field.p, field.k * m * ell)

    @staticmethod
    def _draw(pkg, rng, field, d):
        while True:
            P = _random_poly(pkg, rng, field, d)
            if not pkg.decompose.is_indecomposable_multi(P):
                continue
            if d == 2:
                try:
                    pkg.spectrum.quadratic_spectral_value(P)
                except ValueError:
                    continue  # degenerate conic: no closed form
            return P

    def check_report(self, pkg, item, rep):
        _, _, fname, text = item.args
        if not rep.get("stein_holds"):
            yield "Stein's bound fails"
        field = pkg.fields.field_from_order(int(fname))
        P = pkg.parsing.parse_poly(text, field, nvars=2)
        if rep["degree"] != P.degree():
            yield f"degree {rep['degree']}, expected {P.degree()}"
        if P.degree() == 2:
            lam = field.format_element(pkg.spectrum.quadratic_spectral_value(P))
            orbits = rep["orbits"]
            if len(orbits) != 1 or orbits[0]["degree"] != 1 or orbits[0]["representative"] != lam:
                yield f"orbits {orbits}, closed form gives the single value {lam}"


# --------------------------------------------------------------------------
# the mod-p discriminant chain through the command line front end
# --------------------------------------------------------------------------

CUSP = "y^2 + x^3"
CUSP_GOLDEN = {
    "delta_red": "x^3 - l",
    "delta_lambda": "-27*l^2",
    "delta_0": "-4",
    "good_primes": [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47],
}
PRIMES_TO = 50


def _random_monic_quadratic_in_y(pkg, rng, total, top_y):
    """y^2 + a(x) y + b(x) with integer coefficients in [-2, 2], exact total
    degree `total` and indecomposable over the rationals.  top_y says whether
    the x^(total-1) y term must appear (True), must not (False), or may."""
    ZZ, top = pkg.fields.ZZ, (total - 1, 1)
    while True:
        terms = {(0, 2): 1}
        for i in range(total + 1):
            for j in (0, 1):
                if i + j <= total and (c := rng.randint(-2, 2)):
                    terms[(i, j)] = c
        if top_y is False:
            terms.pop(top, None)
        P = pkg.mpoly.MPoly(ZZ, 2, terms)
        if P.degree() != total or (top_y and top not in terms):
            continue
        if pkg.decompose.is_indecomposable_multi(P.map_coeffs(Fraction, pkg.fields.QQ)):
            return P


class Modp(Command):
    """`spec modp poly --primes-to 50` on the cusp and seeded inputs.

    A degree-5 input with an x^4 y term gives disc_y an x-degree of 8, and
    its chain then costs 0.5 to 3 s depending on the coefficients.  Seeded
    degree-5 inputs leave that term out; one input with it comes from a fixed
    stream, the same for every seed, so that its cost shows in every run
    without making runs of different seeds differ.
    """

    SEEDED = ((4, 44, None), (5, 12, False))  # (total degree, count, x^(d-1) y term)
    FIXED = ((5, 1, True),)

    def setup(self, pkg, seed):
        texts = [CUSP]
        for corpus, rng in ((self.SEEDED, random.Random(f"modp:{seed}")),
                            (self.FIXED, random.Random("modp:fixed"))):
            for total, count, top_y in corpus:
                texts += [_random_monic_quadratic_in_y(pkg, rng, total, top_y).format()
                          for _ in range(count)]
        return [Item(t, ("modp", t, "--primes-to", str(PRIMES_TO))) for t in texts]

    def check_report(self, pkg, item, rep):
        text = item.args[1]
        if text == CUSP:
            for key, want in CUSP_GOLDEN.items():
                if rep[key] != want:
                    yield f"{key} = {rep[key]!r}, golden value {want!r}"
        F = pkg.parsing.parse_poly(text, pkg.fields.ZZ, nvars=2)
        for p in rep["good_primes"]:
            Fp = F.reduce_mod(pkg.fields.prime_field(p))
            if not pkg.decompose.is_indecomposable_multi(Fp):
                yield f"good prime {p}, but F mod {p} is decomposable"


def _show(out):
    if isinstance(out, Failed):
        return out.text + "\n"
    rc, stdout, stderr = out
    return f"{stdout}{stderr}exit {rc}\n"


def failed_run(out):
    """True when an item raised or the command exited non-zero."""
    return isinstance(out, Failed) or (isinstance(out, tuple) and out[0] != 0)


WORKLOADS = {
    # one variable: (2, 15) and (5, 6) are tame, (2, 12) is wild (2 | outer degree)
    "census-uni": Census(1, ((2, 15, 32), (5, 6, 25), (2, 12, 32))),
    # two variables: (2, 4) and (3, 3) are wild, (5, 2) is tame
    "census-multi": Census(2, ((2, 4, 128), (3, 3, 27), (5, 2, 25))),
    "spectrum": Spectrum(),
    "modp": Modp(),
}
