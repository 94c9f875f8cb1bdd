import ast
import collections
import itertools
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from indecpoly.arith import divisors, integer_nth_root
from indecpoly.fields import DEFAULT_GUARD, QQ, GuardExceeded, embedding, finite_field
from indecpoly.mpoly import MPoly, monomials_upto
from indecpoly.parsing import parse_poly
from indecpoly import decompose
from indecpoly.decompose import (Decomposition, _decompose_graded, _extend_root,
                                 _extract_outer, _inner_powers, _exponents_admit, compose,
                                 decompose_multi, decompose_uni_dense, dickson,
                                 is_indecomposable_multi, is_pth_power, normalize,
                                 outer_degrees, poly_eth_root)
from indecpoly.mpoly import glex_key

from completions import iter_completions, iter_normalized_inner

F2, F3, F5, F7 = finite_field(2), finite_field(3), finite_field(5), finite_field(7)


def test_normalize_affine_example_rationals():
    u = MPoly.from_dense(QQ, [Fraction(0), Fraction(0), Fraction(1)], 1)
    H = MPoly(QQ, 2, {(1, 0): Fraction(2), (0, 0): Fraction(1)})
    dec = normalize(u, H)
    assert dec.inner == MPoly(QQ, 2, {(1, 0): Fraction(1)})
    assert dec.outer == MPoly.from_dense(QQ, [Fraction(1), Fraction(4), Fraction(4)], 1)
    assert dec.recompose() == compose(u, H)


def test_normalize_fixed_point():
    u = MPoly.from_dense(F5, [1, 0, 1], 1)
    H = MPoly(F5, 2, {(1, 0): 1, (1, 1): 1})
    dec = normalize(u, H)
    dec2 = normalize(dec.outer, dec.inner)
    assert dec2.outer == dec.outer and dec2.inner == dec.inner


def test_normalize_field_example():
    u = MPoly.from_dense(F5, [1, 0, 1], 1)  # t^2 + 1
    H = MPoly(F5, 2, {(0, 1): 3})           # 3y
    dec = normalize(u, H)
    assert dec.inner == MPoly(F5, 2, {(0, 1): 1})
    assert dec.outer == MPoly.from_dense(F5, [1, 0, 4], 1)  # 4t^2 + 1
    assert dec.recompose() == compose(u, H)


def test_normalize_rejects_constant_inner():
    u = MPoly.from_dense(F5, [0, 0, 1], 1)
    with pytest.raises(ValueError):
        normalize(u, MPoly.const(F5, 2, F5.one))


def test_decompose_multi_examples():
    s = MPoly(F2, 2, {(1, 0): 1, (0, 1): 1})
    dec = decompose_multi(s * s, 2)
    assert dec.outer == MPoly.from_dense(F2, [0, 0, 1], 1)
    assert dec.inner == s
    assert decompose_multi(MPoly(F5, 2, {(2, 0): 1, (0, 2): 1}), 2) is None
    assert decompose_multi(MPoly(F2, 2, {(1, 1): 1}), 2) is None


def test_decompose_multi_bad_split_rejected():
    with pytest.raises(ValueError):
        decompose_multi(MPoly(F2, 2, {(1, 1): 1}), 3)


def test_is_indecomposable_multi_examples():
    assert is_indecomposable_multi(MPoly(F2, 2, {(1, 1): 1}))
    cube = MPoly(F3, 2, {(1, 0): 1, (0, 1): 1}) ** 3
    assert not is_indecomposable_multi(cube)
    assert is_indecomposable_multi(MPoly(F3, 2, {(1, 0): 1, (0, 1): 2}))


def test_decompose_uni_examples():
    f = MPoly.from_dense(QQ, [Fraction(0), Fraction(0), Fraction(2), Fraction(0), Fraction(1)], 1)
    dec = decompose_multi(f, 2)
    assert dec.outer.to_dense() == [Fraction(0), Fraction(2), Fraction(1)]
    assert dec.inner.to_dense() == [Fraction(0), Fraction(0), Fraction(1)]
    x4 = MPoly.from_dense(F3, [0, 0, 0, 0, 1], 1)
    dec2 = decompose_multi(x4, 2)
    assert dec2.outer.to_dense() == [0, 0, 1] and dec2.inner.to_dense() == [0, 0, 1]
    # x^5 = t^5(x), refused: in one variable the inner degree must be >= 2 too
    with pytest.raises(ValueError, match="invalid degree split"):
        decompose_multi(MPoly.from_dense(F3, [0, 0, 0, 0, 0, 1], 1), 5)


def test_prime_degree_univariate_indecomposable():
    for q, d in [(5, 3), (3, 5), (2, 7)]:
        F = finite_field(q)
        rng = random.Random(d)
        f = [F.element(rng.randrange(q)) for _ in range(d)] + [F.one]
        assert is_indecomposable_multi(MPoly.from_dense(F, f, 1))


def test_recomposition_randomized():
    rng = random.Random(31)
    for F in (F2, F3, F5):
        q = F.q
        for _ in range(30):
            r, s = rng.choice([(2, 2), (2, 3), (3, 2)])
            u = [F.element(rng.randrange(q)) for _ in range(r)] + [F.element(rng.randrange(1, q))]
            v = [F.zero] + [F.element(rng.randrange(q)) for _ in range(s - 1)] + [F.one]
            f = MPoly.from_dense(F, u, 1)
            g = MPoly.from_dense(F, v, 1)
            comp = compose(f, g)
            dec = decompose_multi(comp, r)
            assert dec is not None
            assert dec.recompose() == comp


def test_multivariate_recomposition_randomized():
    rng = random.Random(32)
    for F in (F2, F3):
        q = F.q
        for _ in range(25):
            e = rng.choice([2, 3])
            m = rng.choice([1, 2])
            u = [F.element(rng.randrange(q)) for _ in range(e)] + [F.element(rng.randrange(1, q))]
            inner_terms = {}
            for mono in monomials_upto(2, m):
                if sum(mono) == 0:
                    continue
                inner_terms[mono] = F.element(rng.randrange(q))
            H = MPoly(F, 2, inner_terms)
            if H.degree() != m:
                continue
            H = H.monic()
            comp = compose(MPoly.from_dense(F, u, 1), H)
            dec = decompose_multi(comp, e)
            assert dec is not None
            assert dec.recompose() == comp


def test_eth_root_random_recovery():
    rng = random.Random(33)
    for F in (F2, F3, F5):
        for _ in range(20):
            e = rng.choice([2, 3, 4, 6])
            terms = {}
            for mono in monomials_upto(2, 2):
                c = rng.randrange(F.q)
                if c:
                    terms[mono] = F.element(c)
            R = MPoly(F, 2, terms)
            if R.is_zero():
                continue
            R = R.monic()
            G = R ** e
            got = poly_eth_root(G, e)
            assert got is not None and got ** e == G
            # non-powers are rejected
            G2 = G + MPoly.variable(F, 2, 0)
            if not (G2 - G).is_zero() and G2.degree() == G.degree():
                r2 = poly_eth_root(G2, e)
                assert r2 is None or r2 ** e == G2


def test_eth_root():
    s = MPoly(F3, 2, {(1, 0): 1, (0, 1): 1, (0, 0): 0})
    assert poly_eth_root(s ** 6, 6) == s
    assert poly_eth_root(s ** 6, 4) is None
    t = MPoly(QQ, 2, {(1, 0): Fraction(2), (0, 1): Fraction(1)})
    cube = t ** 3
    root = poly_eth_root(cube, 3)
    assert root is not None and root ** 3 == cube
    assert poly_eth_root(parse_poly("-8*x^3", QQ), 3) == parse_poly("-2*x", QQ)
    assert poly_eth_root(parse_poly("-4*x^2", QQ), 2) is None
    assert poly_eth_root(parse_poly("2*x^2", QQ), 2) is None


def test_eth_root_of_a_non_monic_input_over_a_prime_field():
    assert poly_eth_root(parse_poly("4*x^2 + 4*x*y + y^2", F5), 2).format() == "2*x + y"
    assert poly_eth_root(parse_poly("2*x^2", F5), 2) is None  # 2 is not a square mod 5


def test_integer_nth_root_beyond_float_range():
    # both were wrong when the root was rounded through a float
    r = 3 ** 60 + 1
    assert integer_nth_root(r ** 2, 2) == r
    assert integer_nth_root(r ** 2 + 1, 2) is None
    assert integer_nth_root(10 ** 400, 2) == 10 ** 200
    assert integer_nth_root(r ** 5, 5) == r
    assert integer_nth_root(r ** 5 - 1, 5) is None
    assert integer_nth_root(10 ** 402, 3) == 10 ** 134


def test_eth_root_huge_rational_coefficient():
    r = 3 ** 100 + 1
    rx = MPoly(QQ, 1, {(1,): Fraction(r)})
    assert poly_eth_root(rx ** 2, 2) == rx


def _tame_inner_reference(F, Hm, e, m, c):
    """The lower homogeneous parts of the inner polynomial one degree at a
    time, each by exact division of the top-down residue by e * Hm^(e-1)."""
    dom = F.dom
    W = (Hm ** (e - 1)).scale(dom.from_int(e))
    H = Hm
    for j in range(1, m):
        k = F.degree() - j
        target = F.homogeneous_part(k).scale(dom.inv(c)) - (H ** e).homogeneous_part(k)
        if target.is_zero():
            continue
        part = target.exact_div(W)
        if part is None or (not part.is_zero() and part.degree() != m - j):
            return None
        H = H + part
    return H


def _random_poly(rng, dom, n, deg, draw):
    return MPoly(dom, n, {mono: draw() for mono in monomials_upto(n, deg) if rng.random() < 0.6})


def test_tame_decompose_multi_matches_form_division_reference():
    rng = random.Random(91)
    F9 = finite_field(3, 2)
    cases = {"composite": 0, "none": 0}
    for dom in (F5, F7, F9, QQ):
        if dom is QQ:
            def draw():
                return Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        else:
            def draw(dom=dom):
                return dom.element(rng.randrange(dom.q))
        for n in (2, 3):
            for e, m in itertools.product((2, 3), (2, 3)):
                if getattr(dom, "char", 0) and e % dom.char == 0:
                    continue  # wild: pinned to the lower-monomial enumeration below
                for trial in range(4):
                    H = _random_poly(rng, dom, n, m, draw)
                    u = MPoly.from_dense(dom, [draw() for _ in range(e)] + [draw()], 1)
                    if H.degree() != m or u.degree() != e:
                        continue
                    F = compose(u, H)
                    if trial % 2:  # perturb below the top form: mostly not composite
                        F = F + _random_poly(rng, dom, n, e * m - 1, draw)
                    c = F.leading()[1]
                    Hm = poly_eth_root(F.leading_form().scale(dom.inv(c)), e)
                    inner = None if Hm is None else _tame_inner_reference(F, Hm, e, m, c)
                    want = None if inner is None else _extract_outer(F, _inner_powers(inner, e))
                    got = decompose_multi(F, e)
                    if want is None:
                        assert got is None, F.format()
                        cases["none"] += 1
                    else:
                        assert got is not None and got.inner == inner, F.format()
                        assert got.outer == MPoly.from_dense(dom, want, 1)
                        assert got.recompose() == F
                        cases["composite"] += 1
    assert cases["composite"] >= 40 and cases["none"] >= 20, cases


def test_eth_root_of_dense_powers_and_fast_rejection():
    rng = random.Random(92)
    start = time.perf_counter()
    for dom in (F5, F7, QQ):
        for n, deg, e in [(2, 4, 2), (2, 3, 3), (3, 3, 2), (2, 2, 4)]:
            if dom is QQ:
                terms = {mono: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                         for mono in monomials_upto(n, deg)}
            else:
                terms = {mono: dom.element(rng.randrange(1, dom.q))
                         for mono in monomials_upto(n, deg)}
            R = MPoly(dom, n, terms).monic()
            G = R ** e
            assert poly_eth_root(G, e) == R
            # one more monomial of each degree below the top: not a power
            for k in range(1, e * deg):
                mono = next(mm for mm in monomials_upto(n, k) if sum(mm) == k)
                assert poly_eth_root(G + MPoly(dom, n, {mono: dom.one}), e) is None
            assert poly_eth_root(G + MPoly.const(dom, n, dom.one), e) is None
    assert time.perf_counter() - start < 20


def test_pth_power_examples():
    assert is_pth_power(MPoly(F3, 2, {(3, 0): 1, (0, 3): 1})) == MPoly(
        F3, 2, {(1, 0): 1, (0, 1): 1}
    )
    assert is_pth_power(MPoly(F3, 2, {(2, 0): 1, (0, 1): 1})) is None
    c = MPoly.const(F3, 2, F3.element(2))
    root = is_pth_power(c)
    assert root == MPoly.const(F3, 2, F3.pth_root(F3.element(2)))


def test_decompose_imports_only_the_layers_below_factoring():
    # decompose, and through it the census, runs without factoring
    from indecpoly import decompose

    tree = ast.parse(Path(decompose.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("indecpoly"):
            imported.add(node.module.partition(".")[2] or "indecpoly")
        elif isinstance(node, ast.Import):
            imported.update(a.name.partition(".")[2] or "indecpoly" for a in node.names
                            if a.name.startswith("indecpoly"))
    assert imported <= {"arith", "fields", "mpoly", "unipoly"}, imported


def test_dickson_recurrence_values():
    a = F5.element(1)
    assert dickson(F5, 1, a) == MPoly.from_dense(F5, [0, 1], 1)
    assert dickson(F5, 2, a).to_dense() == [3, 0, 1]      # x^2 - 2
    assert dickson(F5, 3, a).to_dense() == [0, 2, 0, 1]   # x^3 - 3x
    assert dickson(F5, 0, a).to_dense() == [2]


def test_dickson_composition_identity():
    for F in (F5, F7):
        for a_idx in range(1, F.q):
            a = F.element(a_idx)
            for m, n in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 4), (4, 3)]:
                if m * n > 12:
                    continue
                lhs = compose(dickson(F, m, F.pow(a, n)), dickson(F, n, a))
                assert lhs == dickson(F, m * n, a)


def test_power_composition_swap():
    x = MPoly.from_dense(F5, [0, 1], 1)
    for m, n in [(2, 3), (3, 2), (2, 2), (3, 4)]:
        xm = MPoly.from_dense(F5, [0] * m + [1], 1)
        xn = MPoly.from_dense(F5, [0] * n + [1], 1)
        assert compose(xm, xn) == compose(xn, xm)


def test_cross_extension_equivalence_spot():
    # decomposability agrees between F_3 and F_9 on an exhaustive slice
    F9 = finite_field(3, 2)
    emb = embedding(F3, F9)
    for digits in itertools.product(range(3), repeat=6):
        terms = {e: F3.element(c) for e, c in zip(monomials_upto(2, 2), digits) if c}
        P = MPoly(F3, 2, terms)
        if P.is_zero() or P.is_constant():
            continue
        a = is_indecomposable_multi(P)
        b = is_indecomposable_multi(P.map_coeffs(emb, F9))
        assert a == b


def test_wild_univariate_matches_brute_force_composition_sets():
    # exhaustive oracle: f decomposes at outer degree r iff it is u(v) for
    # some coefficient choice; covers the wild splits (p | r)
    from indecpoly import unipoly
    from indecpoly.decompose import decompose_uni_dense

    # (3, 4) and (2, 9) are tame; (4, 6) has a wild r = 2 over F_4, where the
    # p-th root is not the identity, and a tame r = 3; (2, 12) has the wild
    # r = 6 = 2 * 3
    for q, p, k, d in [(2, 2, 1, 4), (2, 2, 1, 8), (4, 2, 2, 4), (3, 3, 1, 4),
                       (2, 2, 1, 9), (4, 2, 2, 6), (2, 2, 1, 12)]:
        F = finite_field(p, k)
        splits = [r for r in divisors(d) if r >= 2 and d // r >= 2]
        comp = {r: set() for r in splits}
        for r in splits:
            s = d // r
            for uid in itertools.product(range(q), repeat=r):
                for lead in range(1, q):
                    u = [F.element(c) for c in uid] + [F.element(lead)]
                    for vid in itertools.product(range(q), repeat=s - 1):
                        v = [F.zero] + [F.element(c) for c in vid] + [F.one]
                        comp[r].add(tuple(unipoly.compose(F, u, v)))
        for digits in itertools.product(range(q), repeat=d + 1):
            if digits[-1] == 0:
                continue
            f = [F.element(c) for c in digits]
            for r in splits:
                res = decompose_uni_dense(F, f, r)
                assert (res is not None) == (tuple(f) in comp[r]), (q, d, r, f)
                if res is not None:
                    assert unipoly.compose(F, res[0], res[1]) == f


def test_wild_multivariate_exhaustive_over_f4():
    F4 = finite_field(2, 2)
    comps = set()
    for H in iter_normalized_inner(F4, 2, 1):
        for uid in itertools.product(range(4), repeat=2):
            for lead in range(1, 4):
                u = MPoly.from_dense(F4, [F4.element(c) for c in uid] + [F4.element(lead)], 1)
                comps.add(compose(u, H).key())
    monos = monomials_upto(2, 2)
    ntop = sum(1 for e in monos if sum(e) == 2)
    for digits in itertools.product(range(4), repeat=len(monos)):
        if not any(digits[:ntop]):
            continue
        P = MPoly(F4, 2, {e: F4.element(c) for e, c in zip(monos, digits) if c})
        dec = decompose_multi(P, 2)
        assert (dec is not None) == (P.key() in comps)
        if dec is not None:
            assert dec.recompose() == P


def test_wild_case_unique_top_but_many_inners():
    # x^4 + x^2 over F_2 decomposes two ways at outer degree 2, with inner
    # x^2 or x^2 + x; the engine returns the canonically first inner
    # polynomial and recomposes exactly
    f = MPoly(F2, 2, {(4, 0): 1, (2, 0): 1})
    dec = decompose_multi(f, 2)
    assert dec is not None
    assert dec.inner == MPoly(F2, 2, {(2, 0): 1})
    assert dec.outer == MPoly.from_dense(F2, [0, 1, 1], 1)
    assert dec.recompose() == f
    # the one-variable scan keeps the same order
    assert decompose_uni_dense(F2, [0, 0, 1, 0, 1], 2) == ([0, 1, 1], [0, 0, 1])


def test_uni_guard_counts_only_free_inner_coefficients(monkeypatch):
    # r = 2, s = 30 over F_2: the top of f forces v_16..v_29, so 15 of the 29
    # inner coefficients are free and 2^15 fits the default guard of 2^24
    from indecpoly import decompose, unipoly
    from indecpoly.fields import GuardExceeded

    v = MPoly.from_dense(F2, [0] * 14 + [1, 1, 1] + [0] * 12 + [1, 1], 1)
    f = compose(MPoly.from_dense(F2, [1, 1, 1], 1), v)
    dec = decompose_multi(f, 2)
    assert dec is not None and dec.recompose() == f

    def no_work(*args):
        raise AssertionError("the guard must be checked before any work")

    monkeypatch.setattr(decompose, "_forced_inner_top", no_work)
    monkeypatch.setattr(unipoly, "divmod_poly", no_work)
    with pytest.raises(GuardExceeded, match="15 free coefficients, size 32768, "
                                            "exceeds guard 16384"):
        decompose_multi(f, 2, guard=1 << 14)


@pytest.mark.parametrize("field, n, m, count", [
    (finite_field(2, 2), 2, 1, 5),
    (F2, 2, 2, 28),
    (F3, 2, 1, 4),
    (F2, 3, 1, 7),
])
def test_iter_normalized_inner_order_and_count(field, n, m, count):
    monos = [e for e in monomials_upto(n, m) if sum(e) > 0]
    inners = list(iter_normalized_inner(field, n, m))
    for H in inners:
        assert H.degree() == m and H.leading()[1] == field.one
        assert H.constant_term() == field.zero
    keys = [tuple(field.index(H.coeff(e)) for e in monos) for H in inners]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    q = field.q
    top = sum(1 for e in monos if sum(e) == m)
    assert len(inners) == (q ** top - 1) // (q - 1) * q ** (comb(n + m - 1, n) - 1) == count


def _lower_monomial_enumeration_reference(F, e):
    """(outer, inner) with outer degree e by enumerating every lower
    monomial of the inner polynomial below its forced top form, in
    iter_completions order; the first inner with an outer polynomial wins."""
    dom = F.dom
    m = F.degree() // e
    c = F.leading()[1]
    Hm = poly_eth_root(F.leading_form().scale(dom.inv(c)), e)
    if Hm is None:
        return None
    lower = [mono for mono in monomials_upto(F.n, m - 1) if sum(mono) > 0]
    for H in iter_completions(dom, F.n, Hm.terms, lower):
        u = _extract_outer(F, _inner_powers(H, e))
        if u is not None:
            return MPoly.from_dense(dom, u, 1), H
    return None


def _wild_power(dom, e):
    pa = 1
    while e % (pa * dom.char) == 0:
        pa *= dom.char
    return pa


def test_wild_decompose_multi_matches_lower_monomial_enumeration():
    # p | e and m >= 2: the forced components (p^a (m - k) < m) come from the
    # root extension when p^a < m, and the top form alone otherwise; the free
    # monomials keep the reference's order, so the first inner is the same.
    # Over F_3 and F_9, p^a < m needs m >= 4, where the reference would
    # enumerate 3^9 inner polynomials per input, so they cover p^a >= m only
    rng = random.Random(93)
    F4, F9 = finite_field(2, 2), finite_field(3, 2)
    cases = [(F2, 2, 2, 3), (F2, 2, 2, 4), (F2, 3, 2, 3), (F2, 2, 6, 3), (F2, 2, 4, 2),
             (F4, 2, 2, 3), (F4, 3, 2, 2), (F3, 2, 3, 2), (F3, 3, 3, 2), (F3, 2, 6, 2),
             (F9, 2, 3, 2), (F9, 3, 3, 2)]
    seen = {}
    for dom, n, e, m in cases:
        def draw():
            return dom.element(rng.randrange(dom.q))
        forced = "forced" if _wild_power(dom, e) < m else "top"
        for trial in range(6):
            H = _random_poly(rng, dom, n, m, draw)
            u = MPoly.from_dense(dom, [draw() for _ in range(e)] + [dom.one], 1)
            if H.degree() != m:
                continue
            F = compose(u, H)
            if trial % 2:  # perturb one monomial below the top form
                k = rng.randrange(1, e * m)
                mono = rng.choice([mm for mm in monomials_upto(n, k) if sum(mm) == k])
                F = F + MPoly(dom, n, {mono: dom.element(rng.randrange(1, dom.q))})
            want = _lower_monomial_enumeration_reference(F, e)
            got = decompose_multi(F, e)
            if want is None:
                assert got is None, F.format()
            else:
                assert got is not None, F.format()
                assert (got.outer, got.inner) == want, F.format()
            key = (forced, want is not None)
            seen[key] = seen.get(key, 0) + 1
    assert all(seen.get((f, w), 0) >= 5 for f in ("forced", "top") for w in (True, False)), seen


def test_wild_multivariate_exhaustive_composition_set_e2_m3_over_f2():
    # every u(H) with deg u = 2 and H normalized of degree 3 in two variables
    # over F_2 decomposes; a perturbation decomposes iff it is one of them
    comps = {}
    for H in iter_normalized_inner(F2, 2, 3):
        for a0, a1 in itertools.product(range(2), repeat=2):
            F = compose(MPoly.from_dense(F2, [a0, a1, 1], 1), H)
            comps[F.key()] = F
    for F in comps.values():
        dec = decompose_multi(F, 2)
        assert dec is not None and dec.recompose() == F, F.format()
    rng = random.Random(94)
    found = []
    pool = list(comps.values())
    for _ in range(300):
        F = rng.choice(pool)
        k = rng.randrange(0, 6)
        mono = rng.choice([mm for mm in monomials_upto(2, k) if sum(mm) == k])
        P = F + MPoly(F2, 2, {mono: 1})
        dec = decompose_multi(P, 2)
        assert (dec is not None) == (P.key() in comps), P.format()
        if dec is not None:
            assert dec.recompose() == P
        found.append(dec is not None)
    assert 20 <= sum(found) <= len(found) - 20, sum(found)


def test_multi_guard_counts_only_free_monomials(monkeypatch):
    # an octic over F_4 at outer degree 2 (p^a = 2, m = 4): the cubic part of
    # the inner quartic is forced, so 5 monomials are free (4^5 = 1024); the
    # enumeration of every lower monomial would be 4^9
    from indecpoly import decompose
    from indecpoly.fields import GuardExceeded

    F4 = finite_field(2, 2)
    H = parse_poly("x^4 + x^3*y + t*x^3 + x*y^2 + y^3 + t*x^2 + x*y + y", F4)
    F = compose(MPoly.from_dense(F4, [0, 1, 1], 1), H)
    dec = decompose_multi(F, 2, guard=4096)
    assert dec is not None and dec.inner == H and dec.recompose() == F

    def no_work(*args):
        raise AssertionError("the guard must be checked before any work")

    with pytest.raises(GuardExceeded, match="5 free monomials, size 1024, "
                                            "exceeds guard 512"):
        decompose_multi(F, 2, guard=512)
    monkeypatch.setattr(decompose, "_extend_root", no_work)
    monkeypatch.setattr(decompose, "_extract_outer", no_work)
    with pytest.raises(GuardExceeded, match="5 free monomials, size 1024"):
        decompose_multi(F, 2, guard=512)


def _reference_extract_outer(F, H, e):
    """The peel that rebuilds the rest as a polynomial at every step and
    checks its graded-lex leading term: the reference for _extract_outer."""
    dom = F.dom
    m = H.degree()
    powers = _inner_powers(H, e)
    u = [None] * (e + 1)
    lead_H = H.leading()[0]
    r = F
    while not r.is_zero():
        k = r.degree()
        if k % m:
            return None
        i = k // m
        if i > e or u[i] is not None:
            return None
        re, rc = r.leading()
        if re != tuple(i * a for a in lead_H):
            return None
        ui = dom.div(rc, dom.pow(H.leading()[1], i))
        u[i] = ui
        r = r - powers[i].scale(ui)
    if u[e] is None:
        return None
    return [c if c is not None else dom.zero for c in u]


def _peel_corpus():
    """(F, H, e, outer coefficients or None): composites u(H) with zero u_i,
    the same composites perturbed below the top degree, and H of any leading
    coefficient, over F_2, F_3, F_4, F_5, F_9 and QQ in one to three
    variables; the answers are the reference peel's."""
    rng = random.Random(29)
    out = []
    for dom in (F2, F3, finite_field(2, 2), F5, finite_field(3, 2), QQ):
        if dom is QQ:
            def draw():
                return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        else:
            def draw(dom=dom):
                return dom.element(rng.randrange(dom.q))
        for n in (1, 2, 3):
            for _ in range(12):
                m, e = rng.choice([(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3)])
                H = _random_poly(rng, dom, n, m, draw)
                if H.degree() != m:
                    continue
                coeffs = [draw() if rng.random() < 0.6 else dom.zero for _ in range(e)]
                u = MPoly.from_dense(dom, coeffs + [draw()], 1)
                if u.degree() != e:
                    continue
                G = compose(u, H)
                for F in (G, G + _random_poly(rng, dom, n, m * e - 1, draw)):
                    out.append((F, H, e, _reference_extract_outer(F, H, e)))
    return out


def test_extract_outer_matches_the_rebuilding_reference():
    cases = {"composite": 0, "zero u_i": 0, "none": 0, "lc": 0}
    for F, H, e, want in _peel_corpus():
        assert _extract_outer(F, _inner_powers(H, e)) == want, (F.format(), H.format(), e)
        cases["none" if want is None else "composite"] += 1
        cases["zero u_i"] += want is not None and F.dom.zero in want
        cases["lc"] += H.leading()[1] != H.dom.one
    assert cases["composite"] >= 140 and cases["zero u_i"] >= 50, cases
    assert cases["none"] >= 100 and cases["lc"] >= 150, cases
    # a monomial above i lead(H) of the same degree i m survives the step that
    # reads u_i at i lead(H); the next step meets degree i m again
    for dom, n in [(F3, 2), (QQ, 3)]:
        H = MPoly(dom, n, {(1, 1) + (0,) * (n - 2): dom.one, (1,) + (0,) * (n - 1): dom.one})
        x2 = MPoly(dom, n, {(2,) + (0,) * (n - 1): dom.one})  # above x y, degree 2
        F = H * H + H + x2
        assert _reference_extract_outer(F, H, 2) is None
        assert _extract_outer(F, _inner_powers(H, 2)) is None
        assert _extract_outer(F - x2, _inner_powers(H, 2)) == [dom.zero, dom.one, dom.one]


def test_extract_outer_with_its_powers_builds_no_polynomial(monkeypatch):
    # the peel subtracts in place from one dict of terms: given the powers, it
    # constructs no MPoly, whether or not the input is a composite
    cases = [(F, H, e, _inner_powers(H, e), want) for F, H, e, want in _peel_corpus()[::5]]
    built = []
    init = MPoly.__init__

    def spy_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(MPoly, "__init__", spy_init)
    assert {want is None for *_, want in cases} == {True, False}
    for F, H, e, powers, want in cases:
        assert _extract_outer(F, powers) == want
    assert built == []


def _reference_extend_root(G, e, R, floor):
    """The root extension that takes G - R^e again after every added term:
    the reference for _extend_root."""
    dom = G.dom
    root_lead, z = R.leading()
    ez_inv = dom.inv(dom.mul(dom.from_int(e), dom.pow(z, e - 1)))
    last_key = min(map(glex_key, R.terms))
    while True:
        rem = G - R ** e
        if rem.degree() <= floor:
            return R
        re, rc = rem.leading()
        te = tuple(a - (e - 1) * b for a, b in zip(re, root_lead))
        key = glex_key(te)
        if any(k < 0 for k in te) or key >= last_key:
            return None
        last_key = key
        R = R + MPoly(dom, G.n, {te: dom.mul(rc, ez_inv)})


def _root_corpus():
    """(G, e, R, floor): R^e and R^e perturbed, for a random R, starting from
    the leading term of R with a floor of -1 or a random one, or from the top
    form of R with the floor e deg R - deg R, as the forced inner of
    decompose_from_top starts; over F_2, F_3, F_4, F_5, F_7 and QQ at
    e = 1, 2, 3, 5 with p not dividing e."""
    rng = random.Random(30)
    out = []
    for dom in (F2, F3, finite_field(2, 2), F5, F7, QQ):
        if dom is QQ:
            def draw():
                return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        else:
            def draw(dom=dom):
                return dom.element(rng.randrange(dom.q))
        for e in (1, 2, 3, 5):
            if dom.char and e % dom.char == 0:
                continue
            for n in (1, 2, 3):
                for _ in range(4):
                    R = _random_poly(rng, dom, n, rng.choice([1, 2, 3]), draw)
                    if R.is_constant():
                        continue
                    d = e * R.degree()
                    lead = MPoly(dom, n, dict([R.leading()]))
                    for G in (R ** e, R ** e + _random_poly(rng, dom, n, d - 1, draw)):
                        for floor in (-1, rng.randrange(d)):
                            out.append((G, e, lead, floor))
                        out.append((G, e, R.leading_form(), d - R.degree()))
    return out


def test_extend_root_matches_the_recomputing_reference():
    cases = {"root": 0, "none": 0, "floor": 0}
    for G, e, R, floor in _root_corpus():
        want = _reference_extend_root(G, e, R, floor)
        assert _extend_root(G, e, R, floor) == want, (G.format(), e, R.format(), floor)
        cases["none" if want is None else "root"] += 1
        cases["floor"] += want is not None and floor >= 0
    assert cases["root"] >= 150 and cases["none"] >= 50 and cases["floor"] >= 50, cases


def test_eth_root_matches_the_recomputing_reference(monkeypatch):
    # poly_eth_root takes the p-th roots first, then extends the e'-th root
    # term by term: e = 2, 3, 5 over F_2 ... F_7 and QQ, wild and tame
    rng = random.Random(31)
    inputs = []
    for dom in (F2, F3, finite_field(2, 2), F5, F7, QQ):
        if dom is QQ:
            def draw():
                return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        else:
            def draw(dom=dom):
                return dom.element(rng.randrange(dom.q))
        for e in (2, 3, 5):
            for n in (1, 2, 3):
                for _ in range(3):
                    R = _random_poly(rng, dom, n, rng.choice([1, 2]), draw)
                    if R.is_constant():
                        continue
                    G = R.monic() ** e
                    inputs += [(G, e), (G + _random_poly(rng, dom, n, G.degree() - 1, draw), e)]
    got = [poly_eth_root(G, e) for G, e in inputs]
    monkeypatch.setattr(decompose, "_extend_root", _reference_extend_root)
    want = [poly_eth_root(G, e) for G, e in inputs]
    assert got == want
    assert sum(r is not None for r in want) >= 100 and sum(r is None for r in want) >= 50


def test_extend_root_takes_no_power_of_the_root(monkeypatch):
    # a dense degree-6 R over F_7 (28 terms): the cube root is extended term
    # by term from the leading term t0, and the only products are t0^2, t0^3
    rng = random.Random(32)
    R = MPoly(F7, 2, {mono: F7.element(rng.randrange(1, 7)) for mono in monomials_upto(2, 6)})
    R = R.monic()
    G = R ** 3
    products = []
    mul = MPoly.__mul__

    def counted_mul(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(MPoly, "__mul__", counted_mul)
    assert poly_eth_root(G, 3) == R
    assert len(products) == 2


# The exponent screen: deg_v u(H) = e deg_v H in every variable, so a split
# whose e does not divide every deg_v F has no decomposition; and above degree
# d - m, u(H) agrees with u_e (H^(p^a))^e', whose exponents p^a all divide

def _screen_corpus():
    """(F, e): composites u(H) with deg u = e, and the same perturbed below the
    top degree (e None), over F_2, F_3, F_4, F_5, F_9 and QQ in two and three
    variables."""
    rng = random.Random(33)
    out = []
    for dom in (F2, F3, finite_field(2, 2), F5, finite_field(3, 2), QQ):
        if dom is QQ:
            def draw():
                return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        else:
            def draw(dom=dom):
                return dom.element(rng.randrange(dom.q))
        for n in (2, 3):
            for _ in range(10):
                m, e = rng.choice([(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
                H = _random_poly(rng, dom, n, m, draw)
                u = MPoly.from_dense(dom, [draw() for _ in range(e)] + [draw()], 1)
                if H.degree() != m or u.degree() != e:
                    continue
                G = compose(u, H)
                out += [(G, e), (G + _random_poly(rng, dom, n, m * e - 1, draw), None)]
    return out


def _wild_screen_corpus():
    """(F, e) as in _screen_corpus, at wild splits where the second rule of
    the screen turns inputs away: over F_2 with (n, d, e) = (2, 6, 2), where
    p^a = 2 < m = 3, and over F_4 with (2, 4, 2) and (2, 4, 4).  Each
    composite u(H) comes with itself plus one term of degree d - 2 or d - 1,
    and plus a random part of degree at most d - m."""
    rng = random.Random(36)
    out = []
    for dom, d, es in ((F2, 6, (2,)), (finite_field(2, 2), 4, (2, 4))):
        def draw(dom=dom):
            return dom.element(rng.randrange(dom.q))
        for _ in range(50):
            e = rng.choice(es)
            m = d // e
            H = _random_poly(rng, dom, 2, m, draw)
            u = MPoly.from_dense(dom, [draw() for _ in range(e)] + [dom.one], 1)
            if H.degree() != m:
                continue
            G = compose(u, H)
            k = rng.randint(d - 2, d - 1)
            j = rng.randint(0, k)
            term = MPoly(dom, 2, {(k - j, j): dom.element(rng.randrange(1, dom.q))})
            out += [(G, e), (G + term, None), (G + _random_poly(rng, dom, 2, d - m, draw), None)]
    return out


def _forced_split_slices():
    """The polynomials of the two (3, 2, 4) census slices of
    test_forced_split_slices_match_the_reference_loop: x^4, no cubic part or
    2 x^3 + 2 x^2 y, and every quadratic part."""
    quadratic = [mono for mono in monomials_upto(2, 2)]
    for cubic in ({}, {(3, 0): 2, (2, 1): 2}):
        for coeffs in itertools.product(range(3), repeat=len(quadratic)):
            yield MPoly(F3, 2, {(4, 0): 1, **cubic, **dict(zip(quadratic, coeffs))})


def test_partial_degree_screen_keeps_every_answer(monkeypatch):
    # with the screen patched off, decompose_multi and _decompose_graded
    # answer the same at every split, and no composite is screened out at its
    # own outer degree
    corpus = [(F, e) for F, built in _screen_corpus() for e in outer_degrees(F.n, F.degree())]
    corpus += [(F, e) for F in _forced_split_slices() for e in (2, 4)]
    wild = _wild_screen_corpus()
    wild_splits = [(F, e) for F, built in wild for e in outer_degrees(F.n, F.degree())]
    corpus += wild_splits

    def answers():
        out = []
        for F, e in corpus:
            out.append((decompose_multi(F, e), _decompose_graded(F, e, DEFAULT_GUARD)))
        return out

    screened = [not _exponents_admit(F, e) for F, e in corpus]
    got = answers()
    monkeypatch.setattr(decompose, "_exponents_admit", lambda F, e: True)
    assert answers() == got
    assert all(a is None and b is None for (a, b), out in zip(got, screened) if out)
    assert sum(a is not None for a, _ in got) >= 130 and sum(screened) >= 2000
    # the second rule alone turns away inputs, also where p^a = 2 < m = 3:
    # e divides every deg_v F, but F has a term above degree d - m with an
    # exponent p^a does not divide
    frobenius = [(F.dom.q, F.degree(), e) for F, e in wild_splits
                 if not _exponents_admit(F, e) and not any(F.deg_in(v) % e for v in range(F.n))]
    assert frobenius.count((2, 6, 2)) >= 15 and frobenius.count((4, 4, 2)) >= 30
    for F, built in _screen_corpus() + wild:
        if built is not None:
            assert _exponents_admit(F, built), (F.format(), built)
            assert decompose_multi(F, built) is not None


def test_frobenius_rule_answers_before_any_candidate(monkeypatch):
    # x^4 + x^3 + y^2 over F_2 at e = 2: e divides deg_x = 4 and deg_y = 2,
    # and the top x^4 has the square root x^2, but x^3 lies above
    # d - m = 2 with an odd exponent, where u_2 H^2 = u_2 (H^2) has none
    F = parse_poly("x^4 + x^3 + y^2", F2)
    assert poly_eth_root(F.leading_form(), 2) == MPoly(F2, 2, {(2, 0): 1})
    assert not any(F.deg_in(v) % 2 for v in range(F.n)) and not _exponents_admit(F, 2)
    calls, built = [], []
    init = MPoly.__init__

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(decompose, name, wrapped)

    def spy_init(self, *args):
        built.append(args)
        init(self, *args)

    for name in ("_extract_outer", "_inner_powers", "_extend_root", "poly_eth_root"):
        spy(name, getattr(decompose, name))
    monkeypatch.setattr(MPoly, "__init__", spy_init)
    assert _decompose_graded(F, 2, DEFAULT_GUARD) is None and decompose_multi(F, 2) is None
    assert is_indecomposable_multi(F)
    assert calls == [] and built == []
    # the same calls with the screen patched off reach the candidates
    monkeypatch.setattr(decompose, "_exponents_admit", lambda F, e: True)
    assert _decompose_graded(F, 2, DEFAULT_GUARD) is None
    assert "_extract_outer" in calls and "_inner_powers" in calls and built


def test_graded_split_runs_the_exponent_screen_once(monkeypatch):
    # decompose_multi hands a split of n >= 2 variables to the graded engine,
    # which screens its exponents once, whether the split is then turned away
    # by the screen, by the top form's root, or answered by the candidates
    corpus = [(F, e) for F, built in _screen_corpus() + _wild_screen_corpus()
              for e in outer_degrees(F.n, F.degree())]
    admit, calls = decompose._exponents_admit, []

    def counted(F, e):
        calls.append(e)
        return admit(F, e)

    monkeypatch.setattr(decompose, "_exponents_admit", counted)
    cases = collections.Counter()
    for F, e in corpus:
        del calls[:]
        dec = decompose_multi(F, e)
        assert calls == [e], (F.format(), e, calls)
        root = poly_eth_root(F.leading_form().monic(), e)
        cases["screened" if not admit(F, e) else "no root" if root is None
              else "none" if dec is None else "composite"] += 1
    assert min(cases.values()) >= 20 and len(cases) == 4, cases


def test_top_form_without_a_root_answers_none_under_any_guard(monkeypatch):
    # over F_2 at e = 6 = 2 * 3 the inner quadratic has its two linear
    # monomials free: a guard of 2 is below their space of 4.  The top
    # x^12 + x^6 y^6 + y^12 passes the exponent screen, but its square root
    # x^6 + x^3 y^3 + y^6 has no cube root, so F has no decomposition at 6,
    # and the answer is None before the guard is read and before any candidate
    F = parse_poly("x^12 + x^6*y^6 + y^12 + x^5*y + x*y^3 + y", F2)
    assert _exponents_admit(F, 6) and poly_eth_root(F.leading_form(), 6) is None
    G = compose(MPoly.from_dense(F2, [0] * 6 + [1], 1), parse_poly("x^2 + x*y + y", F2))
    with pytest.raises(GuardExceeded, match="2 free monomials, size 4, exceeds guard 2"):
        decompose_multi(G, 6, guard=2)

    def no_work(*args):
        raise AssertionError("a top form without a root reached the guard or a candidate")

    monkeypatch.setattr(decompose, "power_over", no_work)
    monkeypatch.setattr(decompose, "_extract_outer", no_work)
    for guard in (1, 2, DEFAULT_GUARD):
        assert decompose_multi(F, 6, guard=guard) is None
        assert _decompose_graded(F, 6, guard) is None
