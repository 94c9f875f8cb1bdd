import itertools
import random

import pytest

from indecpoly import uni_roots, unipoly
from indecpoly.fields import ZECH_LIMIT, GuardExceeded, finite_field, projection
from indecpoly.mpoly import MPoly, monomials_upto
from indecpoly.factoring import (absolutely_irreducible, bivar_factor, bivar_irreducible,
                                 conjugate_split_count, n_bar_factors, uni_factor)
from indecpoly.parsing import parse_poly

from divisor_search import find_divisor, search_factor


def P(field, terms):
    return MPoly(field, 2, {e: field.from_int(c) for e, c in terms.items()})


F2, F3, F5 = finite_field(2), finite_field(3), finite_field(5)


# -- univariate ----------------------------------------------------------

def test_uni_factor_examples():
    unit, fs = uni_factor(F5, [4, 0, 1])  # x^2 - 1
    assert unit == 1
    assert fs == [((1, 1), 1), ((4, 1), 1)]
    unit, fs = uni_factor(F3, [1, 0, 1])  # x^2 + 1 irreducible
    assert fs == [((1, 0, 1), 1)]
    unit, fs = uni_factor(F2, [0, 0, 0, 1])  # x^3
    assert fs == [((0, 1), 3)]
    unit, fs = uni_factor(finite_field(2, 2), [3, 0, 0, 0, 1])  # x^4 + t^2 = (x + t^2)^4
    assert fs == [((3, 1), 4)]


def test_uni_factor_product_identity_randomized():
    rng = random.Random(21)
    for q, p, k in [(2, 2, 1), (3, 3, 1), (5, 5, 1), (4, 2, 2), (9, 3, 2)]:
        F = finite_field(p, k)
        for _ in range(25):
            f = unipoly.normalize(
                F, [F.element(rng.randrange(q)) for _ in range(rng.randrange(2, 9))]
            )
            if unipoly.degree(f) < 1:
                continue
            unit, fs = uni_factor(F, f)
            recon = [unit]
            for g, m in fs:
                for _i in range(m):
                    recon = unipoly.mul(F, recon, list(g))
                assert unipoly.is_irreducible_finite(F, list(g))
            assert recon == f


def test_uni_roots():
    assert uni_roots(F5, [4, 0, 1]) == [1, 4]
    assert uni_roots(F3, [1, 0, 1]) == []
    assert uni_roots(F5, [3, 0, 0, 0, 0]) == []  # a nonzero constant
    assert uni_roots(F5, [1, 4, 2, 0, 3, 0]) == [1, 2]  # 3 (x - 1)^3 (x - 2), trailing zero
    assert uni_roots(F5, [0, 0, 1]) == [0]  # x^2, a repeated root
    assert uni_roots(F5, [2, 3]) == [1]  # 3x + 2, degree 1
    with pytest.raises(ValueError):
        uni_roots(F5, [0, 0])
    # the linear factors of the factorization are the reference
    rng = random.Random(25)
    for p, k in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]:
        F = finite_field(p, k)
        for _ in range(20):
            f = unipoly.normalize(F, [rng.randrange(F.q) for _ in range(rng.randrange(2, 10))])
            if not f:
                continue
            _, fs = uni_factor(F, f)
            assert uni_roots(F, f) == sorted(F.neg(g[0]) for g, _ in fs if len(g) == 2)


def test_uni_roots_takes_one_qth_power_without_a_root(monkeypatch):
    # x^600 = 1 on F_5^*, so x^600 - 2 has no root: roots decides that from
    # gcd(f, x^q - x) alone and takes no x^(q^d) for d >= 2
    calls = []
    pow_mod = unipoly.pow_mod

    def spy(dom, a, e, m):
        calls.append(e)
        return pow_mod(dom, a, e, m)

    monkeypatch.setattr(unipoly, "pow_mod", spy)
    assert uni_roots(F5, [3] + [0] * 599 + [1]) == []
    assert calls == [5]


def _irreducibles(F, top):
    # the monic irreducibles of degree 1..top, low coefficient first, by
    # trial division by the irreducibles of at most half the degree
    found = []
    for k in range(1, top + 1):
        for tail in itertools.product(range(F.q), repeat=k):
            f = [F.element(c) for c in tail] + [F.one]
            if all(unipoly.mod(F, f, g) for g in found if 2 * (len(g) - 1) <= k):
                found.append(f)
    return found


FIELDS_AND_TOPS = [((2, 1), 6), ((3, 1), 4), ((2, 2), 4), ((3, 2), 3)]


@pytest.mark.parametrize("pk, top", FIELDS_AND_TOPS, ids=["F2", "F3", "F4", "F9"])
def test_distinct_degree_pieces_match_trial_division(pk, top):
    # squarefree f built from distinct irreducibles: the pieces are their
    # products by degree, ascending, so they multiply back to f and every
    # factor of a piece (g, d) has degree d; uni_factor reads the same pieces
    F = finite_field(*pk)
    irr = _irreducibles(F, top)
    rng = random.Random(f"distinct_degree:{pk}")
    for _ in range(40):
        f, by_degree = [F.one], {}
        chosen = rng.sample(irr, rng.randrange(1, 6))
        for g in chosen:
            f = unipoly.mul(F, f, g)
            by_degree[len(g) - 1] = unipoly.mul(F, by_degree.get(len(g) - 1, [F.one]), g)
        want = [(by_degree[d], d) for d in sorted(by_degree)]
        assert list(unipoly.distinct_degree(F, f)) == want
        assert sorted(uni_factor(F, f)[1]) == sorted((tuple(g), 1) for g in chosen)


@pytest.mark.parametrize("pk, top", FIELDS_AND_TOPS, ids=["F2", "F3", "F4", "F9"])
def test_ben_or_on_non_squarefree_input_matches_trial_division(pk, top):
    # g^2, (x - a)^2 h and g g' with deg g = deg g' against trial division by
    # every irreducible of at most half the degree; for g g' the first
    # distinct-degree piece is all of f, at half its degree
    F = finite_field(*pk)
    irr = _irreducibles(F, top)
    rng = random.Random(f"ben_or:{pk}")
    cases = rng.sample(irr, 10)
    for _ in range(15):
        g, h = rng.sample(irr, 2)
        lin = [F.neg(F.element(rng.randrange(F.q))), F.one]
        same = [e for e in irr if len(e) == len(g) and e != g] or [g]
        cases += [unipoly.mul(F, g, g), unipoly.mul(F, unipoly.mul(F, lin, lin), h),
                  unipoly.mul(F, g, rng.choice(same))]
    want = [all(unipoly.mod(F, f, e) for e in irr if 2 * (len(e) - 1) <= len(f) - 1)
            for f in cases]
    assert want == [True] * 10 + [False] * 45
    assert [unipoly.is_irreducible_finite(F, f) for f in cases] == want


def test_ben_or_reads_only_the_first_piece(monkeypatch):
    # x times an irreducible sextic over F_2: the first piece, at d = 1,
    # decides, after one q-th power and none of the five further steps
    f = unipoly.mul(F2, [0, 1], [1, 1, 0, 0, 0, 0, 1])
    calls = []
    pow_mod = unipoly.pow_mod
    monkeypatch.setattr(unipoly, "pow_mod", lambda *a: calls.append(a) or pow_mod(*a))
    assert not unipoly.is_irreducible_finite(F2, f)
    assert len(calls) == 1


def test_squarefree_part():
    from indecpoly.factoring import squarefree_part

    # (x)^3 (x+1) over F_2 -> x(x+1) = x^2 + x
    f = unipoly.mul(F2, [0, 0, 0, 1], [1, 1])
    assert squarefree_part(F2, f) == [0, 1, 1]
    # x^p over F_3
    assert squarefree_part(F3, [0, 0, 0, 1]) == [0, 1]


# -- bivariate reference values -----------------------------------------

def test_bivar_irreducible_examples():
    assert not bivar_irreducible(P(F2, {(1, 1): 1}))           # x*y
    assert bivar_irreducible(P(F3, {(2, 0): 1, (0, 2): 1}))    # x^2+y^2 over F_3
    assert not bivar_irreducible(P(F5, {(2, 0): 1, (0, 2): 1}))
    fac = bivar_factor(P(F5, {(2, 0): 1, (0, 2): 1}))
    keys = sorted(g.format() for g, _ in fac.factors)
    assert keys == ["x + 2*y", "x + 3*y"]
    with pytest.raises(ValueError):
        bivar_irreducible(MPoly.const(F2, 2, F2.one))


def test_absolutely_irreducible_examples():
    assert absolutely_irreducible(P(F2, {(1, 0): 1, (0, 1): 1}))       # degree 1
    assert not absolutely_irreducible(P(F3, {(2, 0): 1, (0, 2): 1}))   # splits over F_9
    assert absolutely_irreducible(P(F3, {(0, 2): 1, (1, 0): 2}))       # y^2 - x
    assert absolutely_irreducible(P(F5, {(0, 2): 1, (3, 0): 1}))       # y^2 + x^3


def test_absolute_irreducibility_matches_extension_sweep():
    # oracle: irreducible over F_{q^e} for every e up to the degree
    rng = random.Random(22)
    from indecpoly.fields import embedding

    for p in (2, 3):
        F = finite_field(p)
        checked = 0
        while checked < 15:
            terms = {e: rng.randrange(p) for e in monomials_upto(2, 3)}
            G = MPoly(F, 2, {e: F.element(c) for e, c in terms.items() if c})
            if G.is_zero() or G.is_constant():
                continue
            checked += 1
            d = G.degree()
            sweep = True
            for e in range(1, d + 1):
                E = finite_field(p, e)
                emb = embedding(F, E)
                GE = G.map_coeffs(emb, E)
                if search_factor(GE).total_multiplicity() != 1:
                    sweep = False
                    break
            assert absolutely_irreducible(G) == sweep


def test_absolute_implies_plain_irreducibility():
    rng = random.Random(27)
    witnessed = False
    done = 0
    while done < 15:
        terms = {e: rng.randrange(3) for e in monomials_upto(2, 3)}
        G = MPoly(F3, 2, {e: F3.element(c) for e, c in terms.items() if c})
        if G.is_zero() or G.is_constant():
            continue
        done += 1
        if absolutely_irreducible(G):
            assert bivar_irreducible(G)
    # the converse fails: x^2 + y^2 over F_3
    w = P(F3, {(2, 0): 1, (0, 2): 1})
    assert bivar_irreducible(w) and not absolutely_irreducible(w)
    witnessed = True
    assert witnessed


def test_n_bar_examples():
    assert n_bar_factors(P(F2, {(1, 1): 1})) == 2                 # x*y
    assert n_bar_factors(P(F3, {(2, 0): 1, (0, 2): 1})) == 2      # conjugate pair
    s = P(F3, {(1, 0): 1, (0, 1): 1})
    assert n_bar_factors(s * s) == 1                               # one distinct factor


def test_n_bar_affine_invariance():
    rng = random.Random(23)
    F = F3
    done = 0
    while done < 10:
        terms = {e: rng.randrange(3) for e in monomials_upto(2, 3)}
        G = MPoly(F, 2, {e: F.element(c) for e, c in terms.items() if c})
        if G.is_zero() or G.is_constant():
            continue
        a, b, c = rng.randrange(1, 3), rng.randrange(3), rng.randrange(3)
        ap, bp, cp = rng.randrange(3), rng.randrange(1, 3), rng.randrange(3)
        if (a * bp - b * ap) % 3 == 0:
            continue
        x = MPoly.variable(F, 2, 0)
        y = MPoly.variable(F, 2, 1)
        X = x.scale(F.element(a)) + y.scale(F.element(b)) + MPoly.const(F, 2, F.element(c))
        Y = x.scale(F.element(ap)) + y.scale(F.element(bp)) + MPoly.const(F, 2, F.element(cp))
        H = G.subst_poly(0, X).subst_poly(1, Y)
        # substitute into a fresh copy to avoid ordering effects
        G2 = G.subst_poly(0, X)
        G2 = G2.subst_poly(1, Y)
        if H.is_constant():
            continue
        assert n_bar_factors(G) == n_bar_factors(H)
        done += 1


def test_n_bar_at_most_degree():
    rng = random.Random(24)
    done = 0
    while done < 12:
        terms = {e: rng.randrange(2) for e in monomials_upto(2, 4)}
        G = MPoly(F2, 2, {e: F2.element(c) for e, c in terms.items() if c})
        if G.is_zero() or G.is_constant():
            continue
        assert n_bar_factors(G) <= G.degree()
        done += 1


def test_engines_agree_and_products_reconstruct():
    rng = random.Random(25)
    for p, k in [(2, 1), (3, 1), (2, 2)]:
        F = finite_field(p, k)
        done = 0
        while done < 20:
            terms = {e: rng.randrange(F.q) for e in monomials_upto(2, rng.choice([2, 3, 4]))}
            G = MPoly(F, 2, {e: F.element(c) for e, c in terms.items() if c})
            if G.is_zero() or G.is_constant():
                continue
            done += 1
            fs = search_factor(G)
            fl = bivar_factor(G)
            assert fs.unit == fl.unit
            assert [(g.key(), m) for g, m in fs.factors] == [
                (g.key(), m) for g, m in fl.factors
            ]
            assert fs.expand() == G
            for g, _m in fs.factors:
                assert search_factor(g).total_multiplicity() == 1


def test_conjugate_split_count_pure_univariate_factor():
    # an irreducible quadratic in x alone splits into two conjugate lines
    G = MPoly(F3, 2, {(2, 0): 1, (0, 0): 1})
    assert conjugate_split_count(G) == 2


def test_lift_engine_no_shear_direction_uses_extension_descent():
    # the top form x*y*(x+y) vanishes in every direction over F_2, so the
    # lifting engine cannot make these monic and must descend from F_4
    x = MPoly.variable(F2, 2, 0)
    y = MPoly.variable(F2, 2, 1)
    one = MPoly.const(F2, 2, F2.one)
    for G in [
        (x * y + one) * (x + y + one),
        (x * y + x + one) * (x + y + one),
        (x * (x + y) + one) * (y + one),
        x * x * y + x * y * y + one,
    ]:
        fs = search_factor(G)
        fl = bivar_factor(G)
        assert [(g.key(), m) for g, m in fs.factors] == [(g.key(), m) for g, m in fl.factors]
        assert fl.expand() == G


def test_extension_descent_multiplies_a_conjugate_orbit(monkeypatch):
    # no shear of F has a squarefree fibre over F_2, and over F_4 F splits
    # into two conjugate conics whose product descends to F itself
    from indecpoly import factoring
    from indecpoly.fields import embedding

    F4 = finite_field(2, 2)
    F = parse_poly("x^4 + x^3*y + y^4 + x^3 + x^2*y + x*y^2 + x + 1", F2)
    entered = []
    descend = factoring._factor_by_extension

    def spy(S, guard):
        entered.append((S.format(), S.dom.q))
        return descend(S, guard)

    monkeypatch.setattr(factoring, "_factor_by_extension", spy)
    fl = bivar_factor(F)
    assert entered == [(F.format(), 2)]
    fs = search_factor(F)
    assert [(g.key(), m) for g, m in fl.factors] == [(g.key(), m) for g, m in fs.factors]
    assert [(g.format(), m) for g, m in fl.factors] == [(F.format(), 1)]
    fe = bivar_factor(F.map_coeffs(embedding(F2, F4), F4))
    assert [g.format() for g, _ in fe.factors] == [
        "x^2 + t*x*y + t*y^2 + (t + 1)*x + t",
        "x^2 + (t + 1)*x*y + (t + 1)*y^2 + t*x + (t + 1)",
    ]
    assert conjugate_split_count(F) == 2
    assert absolutely_irreducible(F) is False
    assert n_bar_factors(F) == 2


def test_extension_descent_refuses_an_extension_above_the_guard(monkeypatch):
    # with no squarefree fibre at all the lift squares q until F_{q^2} would
    # have more than `guard` elements, and refuses it before building it
    from indecpoly import factoring

    monkeypatch.setattr(factoring, "_squarefree_fibres", lambda field, cols, count: iter(()))
    built = _record_builds(monkeypatch, limit=300)
    for F, message, fields in [
        (parse_poly("(y^2 + x*y + 1)*(y + x)", F2),
         r"extension GF\(256\^2\) of order 65536 exceeds guard 300", [(2, 2), (2, 4), (2, 8)]),
        (parse_poly("(y^2 + x)*(y + x + 1)", F3),
         r"extension GF\(81\^2\) of order 6561 exceeds guard 300", [(3, 2), (3, 4)]),
    ]:
        del built[:]
        with pytest.raises(GuardExceeded, match=message):
            bivar_factor(F, guard=300)
        assert built == fields


@pytest.mark.parametrize("poly, field, lowest, fields", [
    ("(y^2 + x*y + 1)*(y + x)", F2, 16, [(2, 2), (2, 4)]),
    ("(y^2 + x)*(y + x + 1)", F3, 81, [(3, 2), (3, 4)]),
    ("(y^3 + x*y + 1)*(y^3 + x^2 + y + 1)", F2, 256, [(2, 2), (2, 4), (2, 8)]),
], ids=["F2-cubic", "F3-cubic", "F2-sextic"])
def test_extension_descent_goes_on_until_a_fibre_is_squarefree(monkeypatch, poly, field,
                                                               lowest, fields):
    # with no squarefree fibre below F_lowest, the lift descends until it
    # reaches that field and lifts there; the sextic goes three extensions deep
    from indecpoly import factoring

    F = parse_poly(poly, field)
    want = search_factor(F)
    fibres = factoring._squarefree_fibres
    monkeypatch.setattr(factoring, "_squarefree_fibres", lambda K, cols, count: (
        fibres(K, cols, count) if K.q >= lowest else iter(())))
    built = _record_builds(monkeypatch)
    fac = bivar_factor(F)
    assert [(g.key(), m) for g, m in fac.factors] == [(g.key(), m) for g, m in want.factors]
    assert fac.unit == want.unit and fac.expand() == F and len(fac.factors) == 2
    assert built == fields


def test_conjugate_split_count_matches_extension_factor_counts():
    # oracle: the orbit size equals the largest number of distinct factors
    # over the extensions up to the degree
    from indecpoly.fields import embedding

    rng = random.Random(26)
    for p, k in [(2, 1), (3, 1), (2, 2)]:
        F = finite_field(p, k)
        done = 0
        while done < 8:
            terms = {e: rng.randrange(F.q) for e in monomials_upto(2, 3)}
            G = MPoly(F, 2, {e: F.element(c) for e, c in terms.items() if c})
            if G.is_zero() or G.is_constant():
                continue
            fac = bivar_factor(G)
            if fac.total_multiplicity() != 1:
                continue
            done += 1
            best = 1
            for e in range(2, G.degree() + 1):
                E = finite_field(p, k * e)
                emb = embedding(F, E)
                fe = bivar_factor(G.map_coeffs(emb, E))
                best = max(best, len(fe.factors))
            assert conjugate_split_count(G) == best, G.format()


def _gao_cubic(E, rng, const):
    # the Newton polygon of x^3 + b*y^2 + c is the triangle (0,0), (3,0),
    # (0,2), integrally indecomposable as gcd(3, 2) = 1 (Gao 2001), so any
    # terms inside it keep the cubic absolutely irreducible
    terms = {(3, 0): E.one, (0, 2): rng.randrange(1, E.q), (0, 0): const}
    for e in [(1, 0), (2, 0), (0, 1), (1, 1)]:
        terms[e] = rng.randrange(E.q)
    return MPoly(E, 2, terms)


def _orbit_norm(H, F):
    # the product of the Frobenius orbit of H over E = F_{q^r}, projected to F
    E = H.dom
    G = conj = H
    for _ in range(E.k // F.k - 1):
        conj = conj.map_coeffs(lambda c: E.pow(c, F.q), E)
        G = G * conj
    proj = projection(F, E)
    assert all(proj(c) is not None for c in G.terms.values())
    return G.map_coeffs(proj, F)


def _record_builds(monkeypatch, limit=None):
    # the fields factoring builds from here on, in order; one of more than
    # `limit` elements fails at once instead of being built
    from indecpoly import factoring

    built = []
    build = factoring.finite_field

    def spy(p, k=1):
        assert limit is None or p ** k <= limit, f"GF({p}^{k}) built"
        built.append((p, k))
        return build(p, k)

    monkeypatch.setattr(factoring, "finite_field", spy)
    return built


def test_conjugate_split_count_screens_above_the_table_limit(monkeypatch):
    # the screen runs at any q: an absolutely irreducible cubic over F_65537
    # has a fibre with a linear factor, so no extension field is built
    from indecpoly import factoring

    F = finite_field(65537)
    assert F.q > ZECH_LIMIT
    G = _gao_cubic(F, random.Random(1), F.one)

    def no_extension(p, k=1):
        raise AssertionError(f"exact phase entered: GF({p}^{k})")

    monkeypatch.setattr(factoring, "finite_field", no_extension)
    assert conjugate_split_count(G) == 1


@pytest.mark.parametrize("p, k", [(2, 2), (7, 1), (2, 4), (65537, 1)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_conjugate_split_count_of_frobenius_orbit_norms(monkeypatch, p, k, r):
    # oracle by construction: H is absolutely irreducible over F_{q^r} with a
    # constant term outside F_q, so its r conjugates are distinct and their
    # product G is irreducible over F_q with exactly r factors over the closure
    F, E = finite_field(p, k), finite_field(p, k * r)
    proj = projection(F, E)
    const = F.one if r == 1 else next(e for e in range(E.q) if proj(e) is None)
    G = _orbit_norm(_gao_cubic(E, random.Random(10 * p + k + r), const), F)
    assert G.degree() == 3 * r
    assert bivar_factor(G).total_multiplicity() == 1
    built = _record_builds(monkeypatch)
    assert conjugate_split_count(G) == r
    # the point degrees here have gcd r: one split over F_{q^r}, whose factor
    # of orbit size 1 is not tried again
    assert built == ([] if r == 1 else [(p, k * r)])
    assert n_bar_factors(G) == r


@pytest.mark.parametrize("field, poly", [
    (finite_field(7),
     "x^6 + 3*x^5 + 4*x^4*y + 3*x^3*y^2 + 2*x^4 + 3*x^3*y + 3*x^2*y^2 + 3*x*y^3 + y^4"
     " + 2*x^3 + x^2*y + 3*x*y^2 + 5*y^3 + 6*x^2 + 6*y^2 + 4*x + 6*y + 1"),
    (finite_field(2, 2),
     "x^6 + t*x^5 + (t + 1)*x^4*y + t*x^3*y^2 + x^4 + t*x^3*y + x^2*y^2 + x*y^3 + y^4"
     " + x^2*y + t*x*y^2 + t*x^2 + t*y^2 + t*x + t"),
], ids=["F7", "F4"])
def test_conjugate_split_count_splits_only_over_primes_of_the_evidence(
        monkeypatch, field, poly):
    # orbit norms of cubics from F_{q^2}: the point degrees have gcd 2, so
    # the exact phase splits over F_{q^2} only, and the cubic factor it
    # keeps, of degree prime to 2, is never tried over F_{q^6}
    G = parse_poly(poly, field)
    built = _record_builds(monkeypatch)
    assert conjugate_split_count(G) == 2
    assert built == [(field.p, 2 * field.k)]


@pytest.mark.parametrize("r", [1, 2])
def test_conjugate_split_count_screen_runs_no_equal_degree_split(monkeypatch, r):
    # the screen reads point degrees off the distinct-degree pieces of its
    # fibres: no equal-degree split runs before the exact phase builds a field
    from indecpoly import factoring

    F, E = finite_field(7), finite_field(7, r)
    const = F.one if r == 1 else next(e for e in range(E.q) if projection(F, E)(e) is None)
    G = _orbit_norm(_gao_cubic(E, random.Random(70 + r), const), F)
    events = []
    split, build = unipoly.equal_degree_split, factoring.finite_field
    monkeypatch.setattr(unipoly, "equal_degree_split",
                        lambda *a: events.append("split") or split(*a))
    monkeypatch.setattr(factoring, "finite_field", lambda *a: events.append(a) or build(*a))
    assert conjugate_split_count(G) == r
    assert events[:1] == ([] if r == 1 else [(7, 2)])


def test_factor_over_larger_field_via_lift():
    # x^2 + y^2 over F_3 stays irreducible over the odd extension F_27 and
    # splits over F_9
    F27 = finite_field(3, 3)
    from indecpoly.fields import embedding

    emb = embedding(F3, F27)
    G = P(F3, {(2, 0): 1, (0, 2): 1}).map_coeffs(emb, F27)
    fac = bivar_factor(G)
    assert fac.total_multiplicity() == 1  # stays irreducible over F_27 (odd ext)
    F9 = finite_field(3, 2)
    emb9 = embedding(F3, F9)
    G9 = P(F3, {(2, 0): 1, (0, 2): 1}).map_coeffs(emb9, F9)
    fac9 = bivar_factor(G9)
    assert fac9.total_multiplicity() == 2
    assert fac9.expand() == G9


def test_divisor_search_returns_canonically_first_divisor():
    # candidates run by leading monomial descending, then by coefficient
    # index, so x + 1 comes before x + y and x before y
    x, y, one = P(F2, {(1, 0): 1}), P(F2, {(0, 1): 1}), P(F2, {(0, 0): 1})
    assert find_divisor((x + one) * (x + y))[0] == x + one
    assert find_divisor(x * y)[0] == x


def _unpruned_divisor_search(F):
    """Reference enumeration without leading-form pruning: every monic
    candidate of degree 1 .. d//2, leading monomial descending, then the
    remaining coefficients in itertools.product order."""
    field = F.dom
    for delta in range(1, F.degree() // 2 + 1):
        monos = monomials_upto(2, delta)
        for lead_pos, lead in enumerate(monos[: delta + 1]):
            rest = monos[lead_pos + 1 :]
            for coeffs in itertools.product(field.elements(), repeat=len(rest)):
                terms = {lead: field.one}
                terms.update(zip(rest, coeffs))
                cand = MPoly(field, 2, terms)
                quo = F.exact_div(cand)
                if quo is not None:
                    return cand, quo
    return None


def _random_bivariate(rng, F, d):
    """Random polynomial of total degree exactly d."""
    while True:
        G = MPoly(F, 2, {e: F.element(rng.randrange(F.q)) for e in monomials_upto(2, d)})
        if G.degree() == d:
            return G


@pytest.mark.parametrize("p, k, degrees", [
    (2, 1, (2, 3, 4)), (3, 1, (2, 3, 4)), (2, 2, (2, 3, 4)), (5, 1, (2, 3)),
])
def test_divisor_search_matches_unpruned_reference(p, k, degrees):
    F = finite_field(p, k)
    rng = random.Random(f"divisor-search:{F.q}")
    found = 0
    for d in degrees:
        for trial in range(9):
            if trial % 3 == 1:
                # a product g*h, so that hits fall at varied positions
                e = rng.randrange(1, d)
                G = _random_bivariate(rng, F, e) * _random_bivariate(rng, F, d - e)
            elif trial % 3 == 2:
                # g*(g + lower terms): two divisors with one top form, so the
                # order among the completions of that form decides
                e = d // 2
                g = _random_bivariate(rng, F, e)
                G = g * (g + _random_bivariate(rng, F, e - 1))
                if d % 2:
                    G = G * _random_bivariate(rng, F, 1)
            else:
                G = _random_bivariate(rng, F, d)
            want = _unpruned_divisor_search(G)
            got = find_divisor(G)
            if want is None:
                assert got is None
            else:
                found += 1
                assert (got[0].key(), got[1].key()) == (want[0].key(), want[1].key())
    assert found >= len(degrees) * 6  # every product has a divisor


def test_lift_recombination_checks_the_guard():
    # y^4 - x has four linear local factors at x0 = 1 over F_5, so the
    # recombination could try 2^4 subsets
    F = parse_poly("y^4 - x", F5)
    with pytest.raises(GuardExceeded, match="lift recombination space 16 .* guard 8"):
        bivar_factor(F, guard=8)
    fac = bivar_factor(F)
    assert [(g.format(), m) for g, m in fac.factors] == [("y^4 + 4*x", 1)]



def test_lift_recombines_pairs_of_local_factors(monkeypatch):
    # (y - r1)(y - r2) + x*L and (y - r3)(y - r4) + x*L', each irreducible,
    # times the line y + x + s: the fibre at x = 0 splits into five local
    # factors for three true ones, so the recombination has to accept pairs
    from indecpoly import factoring

    sizes = []

    def recording(pool, size):
        sizes.append(size)
        return itertools.combinations(pool, size)

    monkeypatch.setattr(factoring, "combinations", recording)
    rng = random.Random(27)
    for F in (finite_field(5), finite_field(7)):
        x, y = MPoly.variable(F, 2, 0), MPoly.variable(F, 2, 1)

        def const(c):
            return MPoly.const(F, 2, F.element(c))

        def split_quadratic(r1, r2):
            while True:
                L = const(rng.randrange(F.q)) * x + const(rng.randrange(F.q)) * y \
                    + const(rng.randrange(F.q))
                Q = (y - const(r1)) * (y - const(r2)) + x * L
                if Q.degree() == 2 and search_factor(Q).total_multiplicity() == 1:
                    return Q

        paired = 0
        for _ in range(4):
            r = rng.sample(range(F.q), 5)
            G = split_quadratic(r[0], r[1]) * split_quadratic(r[2], r[3]) * (y + x - const(r[4]))
            del sizes[:]
            fl = bivar_factor(G)
            fs = search_factor(G)
            assert [(g.key(), m) for g, m in fl.factors] == [(g.key(), m) for g, m in fs.factors]
            assert fl.expand() == G and len(fl.factors) == 3
            # pairs are tried again only after one was accepted
            paired += sizes.count(2) >= 2
        assert paired == 4, (F, paired)


def test_default_factoring_never_runs_the_divisor_search(monkeypatch):
    # the divisor search lives in the tests only, and F_5 is large enough
    # that the lift finds a squarefree fibre without descending
    from indecpoly import factoring

    polys = [parse_poly("y^3 + x^2 + x*y + 1", F5), parse_poly("(y^2 + x)*(y + x + 1)", F5)]
    want = [search_factor(F) for F in polys]

    def refuse(S, guard):
        raise AssertionError(f"extension descent entered on {S.format()}")

    monkeypatch.setattr(factoring, "_factor_by_extension", refuse)
    for F, fs in zip(polys, want):
        fac = bivar_factor(F)
        assert [(g.key(), m) for g, m in fac.factors] == [(g.key(), m) for g, m in fs.factors]
        assert fac.unit == fs.unit and fac.expand() == F
    assert [len(fs.factors) for fs in want] == [1, 2]
