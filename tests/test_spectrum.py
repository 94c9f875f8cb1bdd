import random
import time
from fractions import Fraction

import pytest

from indecpoly import spectrum, unipoly
from indecpoly.fields import DEFAULT_GUARD, QQ, ZZ, GuardExceeded, finite_field
from indecpoly.parsing import parse_poly
from indecpoly.mpoly import MPoly, monomials_upto
from indecpoly.decompose import is_indecomposable_multi
from indecpoly.factoring import absolutely_irreducible, n_bar_factors
from indecpoly.fields import embedding
from indecpoly.resultants import coeff_table, primitive_gcd, resultant
from indecpoly.spectrum import (SpectrumUnbounded, conic_is_degenerate,
                                quadratic_spectral_value, reduction_compatibility,
                                spectral_values, stein_check)

F3, F5, F7 = finite_field(3), finite_field(5), finite_field(7)


def test_spectrum_xy_over_f3():
    rep = spectral_values(MPoly(F3, 2, {(1, 1): 1}))
    assert len(rep.orbits) == 1
    orbit = rep.orbits[0]
    assert orbit.degree == 1
    assert orbit.representative == 0
    assert orbit.multiplicity == 1
    assert rep.rho == 1
    assert rep.s_poly == MPoly.from_dense(F3, [0, 1], 1)
    assert stein_check(rep)


def test_spectrum_empty_cusp_over_f5():
    rep = spectral_values(MPoly(F5, 2, {(0, 2): 1, (3, 0): 1}))
    assert rep.orbits == []
    assert rep.rho == 0
    assert rep.s_poly == MPoly.const(F5, 1, 1)
    assert stein_check(rep)


def test_spectrum_rejects_decomposable():
    s = MPoly(F3, 2, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(SpectrumUnbounded):
        spectral_values(s * s)


def test_spectrum_oracle_consistency_and_galois_stability():
    # every orbit representative is spectral per the oracle; its q-power
    # conjugate is spectral with the same factor count
    rng = random.Random(41)
    found = 0
    while found < 3:
        terms = {e: F3.element(rng.randrange(3)) for e in monomials_upto(2, 3)}
        F = MPoly(F3, 2, {e: c for e, c in terms.items() if c})
        if F.is_zero() or F.degree() < 2:
            continue
        if not is_indecomposable_multi(F):
            continue
        rep = spectral_values(F)
        for orbit in rep.orbits:
            K = orbit.rep_field
            emb = embedding(F3, K)
            FK = F.map_coeffs(emb, K)
            lam = orbit.representative
            shifted = FK - MPoly.const(K, 2, lam)
            assert not absolutely_irreducible(shifted)
            assert n_bar_factors(shifted) - 1 == orbit.multiplicity
            conj = K.pow(lam, 3)
            conj_shift = FK - MPoly.const(K, 2, conj)
            assert not absolutely_irreducible(conj_shift)
            assert n_bar_factors(conj_shift) == n_bar_factors(shifted)
            found += 1
        if found == 0:
            found -= 0  # keep sampling until some spectrum is nonempty


def test_s_poly_coefficients_live_in_base_field():
    rng = random.Random(42)
    checked = 0
    while checked < 8:
        terms = {e: F3.element(rng.randrange(3)) for e in monomials_upto(2, 3)}
        F = MPoly(F3, 2, {e: c for e, c in terms.items() if c})
        if F.is_zero() or F.degree() < 2 or not is_indecomposable_multi(F):
            continue
        rep = spectral_values(F)
        assert rep.s_poly.dom is F3
        assert rep.spectrum_size() == rep.s_poly.degree() or rep.s_poly.is_constant()
        checked += 1


def test_quadratic_formula_examples():
    FQ = MPoly(ZZ, 2, {(2, 0): 1, (0, 2): 1}).map_coeffs(Fraction, QQ)
    assert quadratic_spectral_value(FQ) == Fraction(0)
    assert quadratic_spectral_value(MPoly(F5, 2, {(2, 0): 1, (0, 2): 1, (0, 0): 1})) == 1
    xxy = MPoly(ZZ, 2, {(2, 0): 1, (1, 1): 1}).map_coeffs(Fraction, QQ)
    assert quadratic_spectral_value(xxy) == Fraction(0)
    assert conic_is_degenerate(xxy, Fraction(0))


def test_quadratic_value_agrees_with_full_sweep():
    # the closed form names the single spectral value; the complete sweep
    # must find exactly that orbit
    F = MPoly(F5, 2, {(2, 0): 1, (0, 2): 1, (0, 0): 1})
    lam = quadratic_spectral_value(F)
    assert lam == 1
    rep = spectral_values(F)
    assert [(o.degree, o.representative) for o in rep.orbits] == [(1, 1)]
    assert rep.s_poly == MPoly.from_dense(F5, [4, 1], 1)  # x - 1
    rng = random.Random(44)
    done = 0
    while done < 6:
        terms = {e: F7.element(rng.randrange(7)) for e in monomials_upto(2, 2)}
        P = MPoly(F7, 2, {e: c for e, c in terms.items() if c})
        if P.is_zero() or P.degree() != 2:
            continue
        try:
            lam = quadratic_spectral_value(P)
        except ValueError:
            continue
        done += 1
        swept = spectral_values(P)
        values = {o.representative for o in swept.orbits if o.degree == 1}
        deg2 = [o for o in swept.orbits if o.degree > 1]
        assert not deg2  # a degree-2 input has its one value in the base field
        assert values == {lam}


def test_quadratic_formula_guards():
    with pytest.raises(ValueError):
        quadratic_spectral_value(MPoly(F5, 2, {(2, 0): 1, (1, 0): 1}))  # denominator 0
    F2 = finite_field(2)
    with pytest.raises(ValueError):
        quadratic_spectral_value(MPoly(F2, 2, {(2, 0): 1, (0, 2): 1, (1, 0): 1}))


def _conic_det_by_cofactors(F, lam):
    """The symmetric-matrix determinant of a degree-2 F minus lam, expanded
    along the first row: the reference conic_is_degenerate is pinned to."""
    dom = F.dom
    a00, a10, a01, a20, a11, a02 = (F.coeff(e) for e in
                                    ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
    two = dom.from_int(2)
    m = [
        [dom.mul(two, a20), a11, a10],
        [a11, dom.mul(two, a02), a01],
        [a10, a01, dom.mul(two, dom.sub(a00, lam))],
    ]
    return dom.sub(
        dom.add(
            dom.mul(m[0][0], dom.sub(dom.mul(m[1][1], m[2][2]), dom.mul(m[1][2], m[2][1]))),
            dom.mul(m[0][2], dom.sub(dom.mul(m[1][0], m[2][1]), dom.mul(m[1][1], m[2][0]))),
        ),
        dom.mul(m[0][1], dom.sub(dom.mul(m[1][0], m[2][2]), dom.mul(m[1][2], m[2][0]))),
    )


@pytest.mark.parametrize("dom", [F3, F5, F7, finite_field(3, 2), QQ], ids=repr)
def test_conic_is_degenerate_matches_the_cofactor_expansion(dom):
    # seeded quadratics, each at a random value and, where the closed form
    # has one, at its spectral value, where the conic must degenerate
    rng = random.Random(530)
    draw = ((lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))) if dom is QQ
            else (lambda: rng.randrange(dom.q)))
    verdicts = set()
    for _ in range(150):
        F = MPoly(dom, 2, {e: draw() for e in monomials_upto(2, 2)})
        if F.degree() != 2:
            continue
        lams = [draw()]
        try:
            lams.append(quadratic_spectral_value(F))
        except ValueError:  # the closed-form denominator vanishes
            pass
        for lam in lams:
            want = _conic_det_by_cofactors(F, lam) == dom.zero
            assert conic_is_degenerate(F, lam) == want, (F.format(), lam)
            verdicts.add(want)
        if len(lams) == 2:
            assert conic_is_degenerate(F, lams[1])
    assert verdicts == {False, True}


def test_reduction_compatibility_examples():
    F = MPoly(ZZ, 2, {(2, 0): 1, (0, 2): 1, (0, 0): 3})
    assert reduction_compatibility(F, 7)
    G = MPoly(ZZ, 2, {(2, 0): 1, (0, 2): 1})
    assert reduction_compatibility(G, 5)
    with pytest.raises(ValueError):
        reduction_compatibility(G, 2)


def test_reduction_compatibility_rejects_denominator_prime():
    # denominator 4*a02*a20 - a11^2 = 3 for a20=a02=1, a11=1
    F = MPoly(ZZ, 2, {(2, 0): 1, (0, 2): 1, (1, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        reduction_compatibility(F, 3)


def test_stein_check_flags_violations():
    # a fabricated over-budget report must fail the bound check
    from indecpoly.spectrum import SpectralOrbit, SpectralReport

    F = MPoly(F3, 2, {(1, 1): 1})
    lam = MPoly.from_dense(F3, [0, 1], 1)
    orbit = SpectralOrbit(1, lam, 0, F3, 5)
    fake = SpectralReport(F3, F, 2, [orbit], 5, lam)
    assert not stein_check(fake)


def test_spectrum_over_extension_base_field():
    F4 = finite_field(2, 2)
    rep = spectral_values(MPoly(F4, 2, {(1, 1): 1}))
    assert [(o.degree, o.multiplicity) for o in rep.orbits] == [(1, 1)]
    assert rep.rho == 1
    assert stein_check(rep)
    rep2 = spectral_values(MPoly(F4, 2, {(0, 2): 1, (3, 0): 1, (1, 0): 1}))
    assert rep2.orbits == [] and stein_check(rep2)


def test_integer_literals_coerce_into_extension_fields():
    F4 = finite_field(2, 2)
    P = MPoly(F4, 2, {(1, 1): 1})
    assert P.leading()[1] == F4.one
    # an int coefficient over a finite field is the element with that index
    assert MPoly(F4, 2, {(0, 0): 2}).constant_term() == F4.element(2)  # t
    assert MPoly(F4, 2, {(0, 0): F4.from_int(2)}).is_zero()  # 2 = 0 in characteristic 2
    for bad in (4, -1):  # never reduced silently
        with pytest.raises(ValueError):
            MPoly(F4, 2, {(0, 0): bad})
    with pytest.raises(ValueError):
        MPoly(F3, 1, {(0,): 3})
    # over QQ and ZZ an int still coerces exactly
    assert MPoly(QQ, 1, {(0,): -3}).constant_term() == Fraction(-3)
    assert type(MPoly(QQ, 1, {(0,): 2}).constant_term()) is Fraction
    assert MPoly(ZZ, 1, {(0,): -3}).constant_term() == -3


def test_generic_emptiness_smoke():
    # most random indecomposable cubics over F_5 have an empty spectrum; the
    # sampled rate is frozen by the seed (see docs for the measured rate)
    rng = random.Random(43)
    empty = 0
    total = 0
    while total < 40:
        terms = {e: F5.element(rng.randrange(5)) for e in monomials_upto(2, 3)}
        F = MPoly(F5, 2, {e: c for e, c in terms.items() if c})
        if F.is_zero() or F.degree() != 3 or not is_indecomposable_multi(F):
            continue
        total += 1
        rep = spectral_values(F)
        if not rep.orbits:
            empty += 1
    assert empty / total >= 0.6


def test_spectral_sweep_guard_checked_before_work():
    # the sweep over F_16, F_256 and F_4096 visits 16 + 256 + 4096 elements
    F = parse_poly("x^4 + y^3 + x*y", finite_field(2, 4))
    start = time.perf_counter()
    with pytest.raises(GuardExceeded, match="4368"):
        spectral_values(F, guard=1000)
    assert time.perf_counter() - start < 5.0


# --------------------------------------------------------------------------
# the critical-value path against the full sweep
# --------------------------------------------------------------------------

def _swept(F):
    """The report of the full sweep, whatever path spectral_values takes."""
    return spectrum._report(F, spectrum._sweep(F.dom, max(1, F.degree() - 1)), DEFAULT_GUARD)


def _critical_path_taken(F):
    return spectrum._critical_candidates(F) is not None \
        and spectrum._infinity_candidates(F) is not None


def _assert_paths_agree(polys):
    """spectral_values equals the sweep on every input; returns how many of
    them took the critical-value path and how many had a nonempty spectrum."""
    critical = nonempty = 0
    for F in polys:
        got = spectral_values(F).to_json_dict()
        assert got == _swept(F).to_json_dict(), F.format()
        critical += _critical_path_taken(F)
        nonempty += bool(got["orbits"])
    return critical, nonempty


def test_critical_values_match_sweep_on_the_criterion_6_corpus():
    # the corpus of test_criterion_06_spectrum_and_stein, drawn the same way
    rng = random.Random(0xACCE56)
    polys = []
    for field in (finite_field(2), F3):
        while len(polys) < (100 if field.q == 2 else 200):
            d = rng.choice([2, 3, 4])
            terms = {}
            for e in monomials_upto(2, d):
                c = rng.randrange(field.q)
                if c:
                    terms[e] = field.element(c)
            P = MPoly(field, 2, terms)
            if not P.is_zero() and P.degree() == d and is_indecomposable_multi(P):
                polys.append(P)
    critical, nonempty = _assert_paths_agree(polys)
    assert critical >= 100 and nonempty >= 50  # 145 and 99 of 200


def test_critical_values_match_sweep_on_the_emptiness_smoke_corpus():
    # the corpus of test_generic_emptiness_smoke, drawn the same way
    rng = random.Random(43)
    polys = []
    while len(polys) < 40:
        terms = {e: F5.element(rng.randrange(5)) for e in monomials_upto(2, 3)}
        F = MPoly(F5, 2, {e: c for e, c in terms.items() if c})
        if not F.is_zero() and F.degree() == 3 and is_indecomposable_multi(F):
            polys.append(F)
    critical, nonempty = _assert_paths_agree(polys)
    assert critical >= 30 and nonempty >= 5  # 37 and 9 of 40


def test_critical_values_match_sweep_on_sparse_cubics_and_quartics():
    # half of the inputs keep each monomial with probability 0.4; quartics
    # over F_5 are left out, their sweep alone would test 780 orbits
    rng = random.Random("spectrum-paths")
    fields = [finite_field(2), F3, finite_field(2, 2), F5]
    polys = []
    while len(polys) < 50:
        field = rng.choice(fields)
        d = 3 if field is F5 else rng.choice([3, 4])
        sparse = rng.random() < 0.5
        terms = {e: field.element(rng.randrange(field.q)) for e in monomials_upto(2, d)
                 if not sparse or rng.random() < 0.4}
        P = MPoly(field, 2, {e: c for e, c in terms.items() if c != field.zero})
        if not P.is_zero() and P.degree() == d and is_indecomposable_multi(P):
            polys.append(P)
    critical, nonempty = _assert_paths_agree(polys)
    assert critical >= 30 and nonempty >= 15  # 37 and 22 of 50, 19 of them quartics


def test_critical_values_fallbacks_one_per_reason():
    F2, F4 = finite_field(2), finite_field(2, 2)
    # closure singular at infinity at (1:0:0): the components y = 0 and
    # x*y + 1 = 0 of F - 0 meet only there, so 0 is no critical value; it is
    # the value of phi on an exceptional curve over that point instead
    sing = parse_poly("x*y^2 + y", F3)
    assert not spectrum._smooth_at_infinity(sing)
    assert spectrum._critical_candidates(sing) == []
    assert spectrum._infinity_candidates(sing) == [(F3.zero, F3.one)]
    # F_x = F_y = x^2 in characteristic 2: a shared component, and free of
    # y, so res_y(F_x, F_y) = 1 would miss the spectral value 1
    shared = parse_poly("x^3 + x^2*y + y^2", F4)
    assert spectrum._smooth_at_infinity(shared)
    assert not primitive_gcd(shared.derivative(0), shared.derivative(1), 1).is_constant()
    assert spectrum._critical_candidates(shared) is None
    # xy(x + y) - 0 holds a line in every direction over F_2, so
    # res_x(b, res_y(F - l, F_y)) vanishes for every l in both variable
    # orders and under every shear; the gcd y^2 on the fibre x = 0 finds the
    # critical point, a square gcd is no node, and 0 is factored
    vanishing = parse_poly("x^2*y + x*y^2", F2)
    assert spectrum._smooth_at_infinity(vanishing)
    assert primitive_gcd(vanishing.derivative(0), vanishing.derivative(1), 1).is_constant()
    assert spectrum._critical_candidates(vanishing) == [((F2.zero, F2.one), False)]
    reports = [spectral_values(F).to_json_dict() for F in (sing, shared, vanishing)]
    assert [[(o["representative"], o["multiplicity"]) for o in r["orbits"]] for r in reports] \
        == [[("0", 1)], [("1", 1)], [("0", 2)]]
    assert _assert_paths_agree([sing, shared, vanishing]) == (2, 3)


def test_shared_components_follow_the_resultant_and_the_content_gcd():
    # the rule of _critical_candidates against the gcd in F_q[x, y] on a
    # seeded corpus: random sparse and dense F, F with F_x = 0 (only powers
    # x^(p i)), u(x)^2 H + c with u monic in x alone, so F_x and F_y share
    # only an x-factor unless H_y = 0, and G^2 H + c with G a line in y
    rng = random.Random("shared-components")
    kinds = {"fx0": 0, "x only": 0, "y part": 0, "coprime": 0}

    def rand(field, d, sparse=False, step=1):
        return MPoly(field, 2, {e: field.element(rng.randrange(field.q))
                                for e in monomials_upto(2, d)
                                if e[0] % step == 0 and (not sparse or rng.random() < 0.4)})

    inputs = []
    for field in (finite_field(2), F3, finite_field(2, 2), F5, F7):
        X, Y = (MPoly.variable(field, 2, v) for v in (0, 1))
        for d in range(2, 7):
            for sparse in (False, True):
                inputs += [rand(field, d, sparse, step) for step in (1, 1, 1, field.p)]
            for k in (1, 2):
                if 2 * k < d:
                    u = X ** k + MPoly(field, 2, {(i, 0): field.element(rng.randrange(field.q))
                                                  for i in range(k)})
                    inputs.append(u * u * rand(field, d - 2 * k) + rand(field, 0))
            G = Y + rand(field, 1, sparse=True)
            inputs.append(G * G * rand(field, d - 2) + rand(field, 0))
    checked = 0
    for F in inputs:
        Fx, Fy = F.derivative(0), F.derivative(1)
        if Fx.is_zero() and Fy.is_zero():
            continue  # F constant or a p-th power: no gcd to compare with
        g = primitive_gcd(Fx, Fy, 1)
        assert (spectrum._critical_candidates(F) is None) == (not g.is_constant()), F.format()
        checked += 1
        kinds["fx0" if Fx.is_zero() else "coprime" if g.is_constant()
              else "x only" if g.deg_in(1) == 0 else "y part"] += 1
    # 242 inputs: 54 with F_x = 0, 38 sharing only an x-factor, where B is
    # nonzero and the content gcd alone decides, 24 sharing a y-component
    assert checked >= 200 and min(kinds.values()) >= 20, (checked, kinds)


def test_critical_values_survive_a_vanishing_first_elimination():
    # the y-leading coefficients of F - l and F_y vanish together at x = 0
    # and res_y(F_x, F_y) has the root 0, so res_y(F - l, F_y) vanishes on
    # that fibre for every l; the gcd of F_x(0, y) and F_y(0, y) does not
    # depend on the leading coefficients and finds two critical points there
    F = parse_poly("x^3 + 4*x^2*y + 3*x*y^2 + 2*x + 4", F5)
    Fx, Fy = F.derivative(0), F.derivative(1)
    assert resultant(Fx, Fy, 1).constant_term() == F5.zero
    A = resultant(F.lift_vars(3) - MPoly.variable(F5, 3, 2), Fy.lift_vars(3), 1)
    assert all(e[0] > 0 for e in A.terms)  # A(0, l) = 0 for every l
    L = spectrum._Residues(F5, [F5.zero, F5.one])
    assert len(unipoly.gcd(L, L.fibre(coeff_table(Fx, 1)), L.fibre(coeff_table(Fy, 1)))) == 3
    assert spectrum._smooth_at_infinity(F)
    # both points on x = 0 have the value 4, so T + 1 has exponent 2 = d - 1
    assert spectrum._critical_candidates(F) == [((1, 1), False), ((3, 2, 1), True)]
    assert _assert_paths_agree([F]) == (1, 1)


def test_critical_points_take_one_variable_order(monkeypatch):
    # res_x(b, res_y(F - l, F_y)) vanishes for this quartic in both
    # variable orders and under every shear; the point path computes
    # res_y(F_x, F_y) once, for F as given, and has no shears to try
    F4 = finite_field(2, 2)
    F = parse_poly("x^3*y + x^2*y^2 + (t + 1)*y^4 + (t + 1)*x*y^2 + t*y^2 + y", F4)
    pairs = []

    def recording(A, B, var):
        if A.n == 2:
            pairs.append((A.key(), B.key()))
        return resultant(A, B, var)

    monkeypatch.setattr(spectrum, "resultant", recording)
    assert spectrum._smooth_at_infinity(F)
    assert spectrum._critical_candidates(F) == [((0, 1), False), ((1, 1), True), ((3, 1), True)]
    assert pairs == [(F.derivative(0).key(), F.derivative(1).key())]
    assert not hasattr(spectrum, "_shear_options")
    assert spectral_values(F).to_json_dict() == _swept(F).to_json_dict()


def test_critical_points_match_sweep_on_special_fibres():
    F2, F4 = finite_field(2), finite_field(2, 2)

    def fibre(F, b, P):  # P(a, y) on the fibre of the root a of b
        return spectrum._Residues(F.dom, b).fibre(coeff_table(P, 1))

    def gcd_at(F, b):
        L = spectrum._Residues(F.dom, b)
        return unipoly.gcd(L, *(L.fibre(coeff_table(F.derivative(v), 1)) for v in (0, 1)))

    x, x1 = [0, 1], [1, 1]
    # two nodes on x = 0, at y = 1 and y = -1, with the values 3 and 2
    two = parse_poly("x^2 + y^3 + 2*y", F5)
    assert gcd_at(two, x) == [(4,), (), (1,)]
    # over F_4 the gcd on x = 1 is y^2, a p-th power; F_xy vanishes there,
    # and the value 1 is spectral with exponent 2 < d - 1
    square = parse_poly("x^4 + (t + 1)*x^3*y + y^4 + t*y^3 + (t + 1)*x*y", F4)
    assert gcd_at(square, x1) == [(), (), (1,)]
    assert fibre(square, x1, square.derivative(0).derivative(1)) == []
    # characteristic 2: the one critical point (0, 0) has F_xy = x^2 = 0, and
    # F = y*(x^3 + y^3 + x*y + y), so only the Hessian keeps 0 from the
    # certificate (exponent 2 < d - 1)
    flat = parse_poly("x^3*y + y^4 + x*y^2 + y^2", F2)
    assert gcd_at(flat, x) == [(), (), (1,)]
    assert fibre(flat, x, flat.derivative(0).derivative(1)) == []
    # characteristic 5: y = 0 and the conic x^2 + 2*x*y + y = 0 are tangent
    # at the origin, a simple root of the gcd where the Hessian vanishes
    tangent = parse_poly("x^2*y + 2*x*y^2 + y^2", F5)
    assert gcd_at(tangent, x) == [(), (1,)]
    cases = [two, square, flat, tangent,
             parse_poly("x^2*y + x*y^2", F2),
             parse_poly("x^3*y + x^2*y^2 + (t + 1)*y^4 + (t + 1)*x*y^2 + t*y^2 + y", F4)]
    assert [[mu for mu, certified in spectrum._critical_candidates(F) if not certified]
            for F in cases[1:4]] == [[(1, 1)], [(0, 1)], [(0, 1)]]
    assert _assert_paths_agree(cases) == (6, 5)


def test_certified_critical_values_are_absolutely_irreducible():
    # the certificate against factoring over F_{q^m}, and the candidates
    # against the sweep wherever it visits at most 130 elements
    rng = random.Random("spectrum-certificate")
    certified = open_ = spectral = 0
    for field in (finite_field(2), F3, finite_field(2, 2), F5, F7):
        for d in range(3, 7):
            found = 0
            while found < 5:
                sparse = rng.random() < 0.5
                F = MPoly(field, 2, {e: rng.randrange(field.q) for e in monomials_upto(2, d)
                                     if not sparse or rng.random() < 0.4})
                if F.degree() != d or not spectrum._smooth_at_infinity(F) \
                        or not is_indecomposable_multi(F):
                    continue
                candidates = spectrum._critical_candidates(F)
                if candidates is None:
                    continue
                found += 1
                for mu, ok in candidates:
                    if ok:
                        K = finite_field(field.p, field.k * (len(mu) - 1))
                        emb = embedding(field, K)
                        lam = unipoly.roots(K, [emb(c) for c in mu])[0]
                        shifted = F.map_coeffs(emb, K) - MPoly.const(K, 2, lam)
                        assert absolutely_irreducible(shifted), (F.format(), mu)
                    certified += ok
                    open_ += not ok
                if sum(field.q ** m for m in range(1, d)) <= 130:
                    swept = _swept(F)
                    factored = {mu for mu, ok in candidates if not ok}
                    for o in swept.orbits:
                        assert tuple(o.min_poly.to_dense()) in factored, F.format()
                    spectral += len(swept.orbits)
    assert certified >= 100 and open_ >= 40 and spectral >= 15  # 117, 48 and 17


# --------------------------------------------------------------------------
# candidates at infinity: the base points of the pencil F - c z^d resolved
# --------------------------------------------------------------------------

def test_infinity_candidates_replace_the_sweep(monkeypatch):
    F4 = finite_field(2, 2)
    # x*(x*y - 1) has no affine critical point; at (0:1:0) the pencil is
    # x^2 - x*z^2 - c*z^3, and its second exceptional curve lies over c = 0
    hand = parse_poly("x^2*y - x", F5)
    assert spectrum._critical_candidates(hand) == []
    # the components y = 0 and x*y + 1 = 0 of F - 0 meet only at (1:0:0)
    meet = parse_poly("x*y^2 + y", F3)
    # the top form y^2 ((t + 1)*x^2 + x*y + (t + 1)*y^2) of this F_4 quartic
    # has the double root (1:0:0); points infinitely near it lie over F_16
    quartic = parse_poly("(t + 1)*x^2*y^2 + x*y^3 + (t + 1)*y^4 + t*x^2*y + x*y^2 + y^3"
                         " + (t + 1)*x^2 + x*y + x + (t + 1)*y + t", F4)
    fields = []
    root = spectrum._Pencil.root

    def recording(self, K, h):
        L, r = root(self, K, h)
        fields.append(L.q)
        return L, r

    monkeypatch.setattr(spectrum._Pencil, "root", recording)
    assert [spectrum._infinity_candidates(F) for F in (hand, meet, quartic)] \
        == [[(F5.zero, F5.one)], [(F3.zero, F3.one)], []]
    assert 16 in fields
    reports = [_swept(F).to_json_dict() for F in (hand, meet, quartic)]
    assert [r["s_poly"] for r in reports] == ["x", "x", "1"]

    def refuse(field, top):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(spectrum, "_sweep", refuse)
    assert [spectral_values(F).to_json_dict() for F in (hand, meet, quartic)] == reports


def test_pencil_reads_the_point_of_e_that_chart_one_misses():
    u, v = MPoly.variable(F5, 2, 0), MPoly.variable(F5, 2, 1)
    # A = u^2 + v^2 and B = v^2: on E, A/B is (1 + v^2)/v^2 in chart 1 and
    # 1 + u^2 in chart 2, whose origin is a critical point with the value 1;
    # the one critical point of chart 1, v = 0, has B = 0 and the value oo
    pencil = spectrum._Pencil(F5, DEFAULT_GUARD, 25)
    pencil.blow_up(u ** 2 + v ** 2, v ** 2)
    assert pencil.values == {(F5.neg(1), F5.one)} and pencil.budget == 21
    # the pencil of x^2*y - x at (0:1:0), with u = z and v = x, leaves a base
    # point in chart 1; with u and v exchanged it lies at the origin of
    # chart 2, and the curve over c = 0 is found either way
    for A, B in ((v ** 2 - v * u ** 2, u ** 3), (u ** 2 - u * v ** 2, v ** 3)):
        pencil = spectrum._Pencil(F5, DEFAULT_GUARD, 9)
        pencil.blow_up(A, B)
        assert pencil.values == {(F5.zero, F5.one)}


def _singular_at_infinity_input(rng, field, d):
    """A random F of degree d whose closure is singular at infinity: either
    sparse and filtered, or with top form w^2 * r and F_(d-1) = w * s for a
    random binary form w of degree 1 or 2, whose points are often not
    F_q-rational."""
    q = field.q
    while True:
        if rng.random() < 0.5:
            F = MPoly(field, 2, {e: rng.randrange(q) for e in monomials_upto(2, d)
                                 if rng.random() < 0.4})
        else:
            def form(k):
                return MPoly(field, 2, {(i, k - i): rng.randrange(q) for i in range(k + 1)})
            w = form(rng.choice([1, 2] if d >= 4 else [1]))
            low = MPoly(field, 2, {e: rng.randrange(q) for e in monomials_upto(2, d - 2)})
            F = w * w * form(d - 2 * w.degree()) + w * form(d - 1 - w.degree()) + low
        if F.degree() == d and not spectrum._smooth_at_infinity(F) \
                and is_indecomposable_multi(F):
            return F


def test_infinity_candidates_match_sweep_on_inputs_singular_at_infinity(monkeypatch):
    # F_x and F_y with a common component fall back to the sweep; every
    # other input takes the new path, whose report must equal the sweep's
    rng = random.Random("spectrum-infinity")
    cases = [(finite_field(2), d, 10) for d in (3, 4, 5, 6)] + [
        (F3, 3, 10), (F3, 4, 10), (F3, 5, 6), (finite_field(2, 2), 3, 10),
        (finite_field(2, 2), 4, 8), (F5, 3, 10), (F7, 3, 10)]
    polys = [_singular_at_infinity_input(rng, field, d)
             for field, d, count in cases for _ in range(count)]
    fields = []
    root = spectrum._Pencil.root

    def recording(self, K, h):
        L, r = root(self, K, h)
        fields.append(L.q)
        return L, r

    monkeypatch.setattr(spectrum._Pencil, "root", recording)
    extended = 0  # inputs whose charts leave the base field
    for F in polys:
        fields.clear()
        spectrum._infinity_candidates(F)
        extended += any(q > F.dom.q for q in fields)
    critical, nonempty = _assert_paths_agree(polys)
    assert len(polys) == 104 and critical >= 85 and nonempty >= 60 and extended >= 25  # 92, 71, 36


def test_infinity_fallbacks_one_per_reason(monkeypatch):
    F2 = finite_field(2)
    # characteristic 2: the third curve over (0:1:0) is dicritical with
    # phi = 1/v^2 on it, so both numerators of d(A/B) vanish along it
    inseparable = parse_poly("x^2*y^4 + x^3*y + x^3 + x^2 + x", F2)
    assert spectrum._critical_candidates(inseparable) is not None
    assert spectrum._infinity_candidates(inseparable) is None
    # the double point (1 : t : 0) of the top form (x^2 + x*y + y^2)^2 is
    # over F_4 and its infinitely near points over F_16: the sweep visits
    # 2 + 4 + 8 elements, so a guard of 14 admits it but not the charts
    wide = parse_poly("x^4 + x^2*y^2 + y^4 + x^3 + x^2*y + x*y^2 + y^2 + x", F2)
    assert spectrum._infinity_candidates(wide) == []
    assert spectrum._infinity_candidates(wide, guard=15) is None
    expected = [_swept(F).to_json_dict() for F in (inseparable, wide, wide)]
    swept = []
    sweep = spectrum._sweep

    def counting(field, top):
        swept.append(field)
        return sweep(field, top)

    monkeypatch.setattr(spectrum, "_sweep", counting)
    assert [spectral_values(F, guard).to_json_dict() for F, guard in
            ((inseparable, DEFAULT_GUARD), (wide, DEFAULT_GUARD), (wide, 14))] == expected
    assert swept == [F2, F2]  # inseparable, and wide under the guard 14
    # A and B with the common component v = 0 never resolve: every blow-up
    # leaves a base point at the origin, until nine of multiplicity 1 have
    # spent the budget d^2 = 9 and the tenth would exceed it
    v = MPoly.variable(F3, 2, 1)
    pencil = spectrum._Pencil(F3, DEFAULT_GUARD, 9)
    blow_up, depth = spectrum._Pencil.blow_up, []

    def counting(self, A, B):
        depth.append(self.budget)
        return blow_up(self, A, B)

    monkeypatch.setattr(spectrum._Pencil, "blow_up", counting)
    with pytest.raises(spectrum._Unresolved):
        pencil.blow_up(v, v * (MPoly.variable(F3, 2, 0) + MPoly.const(F3, 2, 1)))
    assert depth == [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]
