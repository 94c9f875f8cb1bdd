"""Acceptance suite: one test per release criterion, exact arithmetic
throughout.  Each test carries a `criterion` marker; the terminal summary
prints one PASS/FAIL line per criterion (see conftest)."""

import itertools
import random
from fractions import Fraction

import pytest

from indecpoly.arith import divisors
from indecpoly.census import (bd_lemma_check, bounds_check_n2, count_closed_small,
                              count_recursive, count_total, count_uni,
                              enumerate_census, trend_table)
from indecpoly.decompose import (_extract_outer, compose, decompose_multi, dickson,
                                 is_indecomposable_multi)
from indecpoly.factoring import absolutely_irreducible
from indecpoly.fields import embedding, finite_field
from indecpoly.modp import build_chain, good_primes
from indecpoly.mpoly import MPoly, monomials_upto
from indecpoly.spectrum import quadratic_spectral_value, spectral_values, stein_check

from completions import iter_normalized_inner

F2, F3, F5, F7 = finite_field(2), finite_field(3), finite_field(5), finite_field(7)


@pytest.mark.criterion(1, "census exactness, two variables")
def test_criterion_01_census_exactness_n2():
    expected_D = {1: 0, 2: 12, 3: 24, 4: 136}
    for d in (1, 2, 3, 4):
        enum = enumerate_census(2, 2, d)
        rec = count_recursive(2, 2, d)
        assert (enum.total, enum.indecomposable, enum.decomposable) == (
            rec.total, rec.indecomposable, rec.decomposable), d
        assert enum.decomposable == expected_D[d]
        if d >= 2:
            assert count_closed_small(2, 2, d) == enum.decomposable
    assert count_recursive(2, 2, 1).indecomposable == 6
    assert count_total(2, 2, 2) == 56


@pytest.mark.criterion(2, "census exactness, one variable")
def test_criterion_02_census_exactness_n1():
    e34 = enumerate_census(3, 1, 4)
    assert e34.decomposable == 54
    assert e34.total == 162
    assert count_uni(3, 4).exact == 54
    e29 = enumerate_census(2, 1, 9)
    assert e29.decomposable == 32
    assert e29.total == 512
    assert count_uni(2, 9).exact == 32


@pytest.mark.criterion(3, "two-prime sandwich, one variable")
def test_criterion_03_pp_sandwich():
    for q, d in ((2, 15), (3, 10)):
        u = count_uni(q, d)
        assert u.lower <= u.upper
        enum = enumerate_census(q, 1, d)
        assert u.lower <= enum.decomposable <= u.upper, (q, d, enum.decomposable)


@pytest.mark.criterion(4, "two-variable ratio bounds, three prime factors")
def test_criterion_04_bounds_n2():
    for d in (8, 12, 16, 18, 20):
        assert bounds_check_n2(2, d).holds, d


@pytest.mark.criterion(5, "integer inequalities behind the bounds")
def test_criterion_05_bd_lemma():
    assert bd_lemma_check(10000)


def _random_indecomposable(field, rng, dmax=4):
    while True:
        d = rng.choice([2, 3, 4][: dmax - 1])
        terms = {}
        for e in monomials_upto(2, d):
            c = rng.randrange(field.q)
            if c:
                terms[e] = field.element(c)
        P = MPoly(field, 2, terms)
        if P.is_zero() or P.degree() != d:
            continue
        if is_indecomposable_multi(P):
            return P


@pytest.mark.criterion(6, "spectral sweep and the spectrum-size bound")
def test_criterion_06_spectrum_and_stein():
    rep = spectral_values(MPoly(F3, 2, {(1, 1): 1}))
    assert [(o.degree, o.multiplicity) for o in rep.orbits] == [(1, 1)]
    assert rep.orbits[0].representative == 0
    assert rep.rho == 1 == rep.degree - 1  # equality case of the bound
    assert stein_check(rep)
    rep2 = spectral_values(MPoly(F5, 2, {(0, 2): 1, (3, 0): 1}))
    assert rep2.orbits == [] and rep2.rho == 0
    assert stein_check(rep2)
    rng = random.Random(0xACCE56)
    for field in (F2, F3):
        for _ in range(100):
            P = _random_indecomposable(field, rng)
            assert stein_check(spectral_values(P)), P.format()


@pytest.mark.criterion(7, "closed-form quadratic spectral value")
def test_criterion_07_quadratic_formula():
    rng = random.Random(0x9AD)
    for field in (F5, F7):
        done = 0
        while done < 50:
            terms = {}
            for e in monomials_upto(2, 2):
                c = rng.randrange(field.q)
                if c:
                    terms[e] = field.element(c)
            P = MPoly(field, 2, terms)
            if P.is_zero() or P.degree() != 2:
                continue
            try:
                lam = quadratic_spectral_value(P)
            except ValueError:
                continue  # degenerate denominator: outside the statement
            shifted = P - MPoly.const(field, 2, lam)
            assert not absolutely_irreducible(shifted), P.format()
            done += 1


@pytest.mark.criterion(8, "mod-p criterion chain and good primes")
def test_criterion_08_modp_chain():
    from indecpoly.fields import ZZ, prime_field

    cusp = MPoly(ZZ, 2, {(0, 2): 1, (3, 0): 1})
    ch = build_chain(cusp)
    assert ch.delta_red == MPoly(ZZ, 2, {(3, 0): 1, (0, 1): -1})       # x^3 - l
    assert ch.delta_l == MPoly(ZZ, 2, {(0, 2): -27})                    # -27 l^2
    assert ch.delta0 == MPoly(ZZ, 2, {(0, 0): -4})                      # -4
    primes = good_primes(ch, 13)
    assert primes == [5, 7, 11, 13]
    for p in primes:
        Fp = cusp.reduce_mod(prime_field(p))
        assert is_indecomposable_multi(Fp), p


def _all_exact_degree(field, n, d):
    monos = monomials_upto(n, d)
    ntop = sum(1 for e in monos if sum(e) == d)
    for digits in itertools.product(range(field.q), repeat=len(monos)):
        if not any(digits[:ntop]):
            continue
        yield MPoly(field, n, {e: field.element(c) for e, c in zip(monos, digits) if c})


@pytest.mark.criterion(9, "normalized decompositions are unique per outer degree")
def test_criterion_09_normalization_uniqueness():
    # two variables over F_2, all degrees up to 4: for each outer degree,
    # at most one normalized pair with an indecomposable inner polynomial
    inner_pool = {}
    for d in (2, 3, 4):
        for e in divisors(d):
            if e < 2:
                continue
            m = d // e
            if (m, e) not in inner_pool:
                inner_pool[(m, e)] = [
                    (H, [MPoly.const(F2, 2, F2.one)] + [H ** i for i in range(1, e + 1)])
                    for H in iter_normalized_inner(F2, 2, m)
                    if is_indecomposable_multi(H)
                ]
    for d in (2, 3, 4):
        splits = [e for e in divisors(d) if e >= 2]
        for P in _all_exact_degree(F2, 2, d):
            for e in splits:
                hits = 0
                for H, powers in inner_pool[(d // e, e)]:
                    if _extract_outer(P, powers) is not None:
                        hits += 1
                assert hits <= 1, (P.format(), e)
    # one variable over F_3 at degree 4: outer and inner degree 2
    from indecpoly.decompose import _extract_outer_dense

    inners = [[0, b, 1] for b in range(3)]
    for digits in itertools.product(range(3), repeat=5):
        if digits[0] == 0:
            continue
        f = [F3.element(c) for c in reversed(digits)]
        hits = 0
        for v in inners:
            if _extract_outer_dense(F3, f, [F3.element(c) for c in v], 2) is not None:
                hits += 1
        assert hits <= 1, f


@pytest.mark.criterion(10, "multiple decompositions with swapped degrees")
def test_criterion_10_swapped_decompositions():
    x6 = MPoly.from_dense(F5, [0, 0, 0, 0, 0, 0, 1], 1)
    d2 = decompose_multi(x6, 2)
    d3 = decompose_multi(x6, 3)
    assert d2 is not None and d3 is not None
    assert d2.inner.degree() == 3 and d3.inner.degree() == 2
    assert d2.recompose() == x6 == d3.recompose()
    a = F5.element(2)
    D6 = dickson(F5, 6, a)
    e2 = decompose_multi(D6, 2)
    e3 = decompose_multi(D6, 3)
    assert e2 is not None and e3 is not None
    assert e2.inner == dickson(F5, 3, a)  # D_3 is already normalized
    assert e2.recompose() == D6 == e3.recompose()
    for m in range(2, 7):
        for n in range(2, 7):
            if m * n > 12:
                continue
            assert compose(dickson(F5, m, F5.pow(a, n)), dickson(F5, n, a)) == dickson(
                F5, m * n, a
            )


@pytest.mark.criterion(11, "indecomposable fraction tends to one")
def test_criterion_11_asymptotic_trend():
    table = dict(trend_table(2, 2, 20))
    doubling = [table[d] for d in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(doubling, doubling[1:]))
    for d in range(2, 21):
        bound = Fraction(d * 2 ** d * count_total(2, 2, d // 2), count_total(2, 2, d))
        assert table[d] <= bound, d


@pytest.mark.criterion(12, "decomposability is stable under field extension")
def test_criterion_12_cross_extension():
    F4, F8 = finite_field(2, 2), finite_field(2, 3)
    emb4 = embedding(F2, F4)
    emb8 = embedding(F2, F8)
    monos = monomials_upto(2, 3)
    for digits in itertools.product(range(2), repeat=len(monos)):
        P = MPoly(F2, 2, {e: c for e, c in zip(monos, digits) if c})
        if P.is_zero() or P.is_constant():
            continue
        base = is_indecomposable_multi(P)
        assert base == is_indecomposable_multi(P.map_coeffs(emb4, F4)), P.format()
        assert base == is_indecomposable_multi(P.map_coeffs(emb8, F8)), P.format()
