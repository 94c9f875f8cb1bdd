"""Ring-level properties of the polynomial layer: dense univariate helpers,
the sparse multivariate type, gcds, resultants and discriminants."""

import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from indecpoly import unipoly
from indecpoly.fields import QQ, ZZ, PrimeField, finite_field
from indecpoly.mpoly import MPoly, monomials_upto
from indecpoly.factoring import uni_factor
from indecpoly.resultants import (_det_bareiss, coeff_table, discriminant, primitive_gcd,
                                  resultant)
from indecpoly.spectrum import _charpoly, _Point, _Residues


def rand_dense(rng, field, d):
    return unipoly.normalize(field, [field.element(rng.randrange(field.q)) for _ in range(d + 1)])


def rand_mpoly(rng, field, n, d, density=0.7):
    terms = {}
    for e in monomials_upto(n, d):
        if rng.random() < density:
            c = rng.randrange(field.q)
            if c:
                terms[e] = field.element(c)
    return MPoly(field, n, terms)


def test_divmod_reconstruction_randomized():
    rng = random.Random(1)
    for q in (2, 3, 5, 9):
        F = finite_field(*((q, 1) if q != 9 else (3, 2)))
        for _ in range(40):
            a = rand_dense(rng, F, rng.randrange(1, 8))
            b = rand_dense(rng, F, rng.randrange(1, 5))
            if not b:
                continue
            qt, r = unipoly.divmod_poly(F, a, b)
            assert unipoly.add(F, unipoly.mul(F, qt, b), r) == a
            assert unipoly.degree(r) < unipoly.degree(b)


def test_distributivity_mpoly_randomized():
    rng = random.Random(2)
    F = finite_field(3)
    for _ in range(30):
        f = rand_mpoly(rng, F, 2, 3)
        g = rand_mpoly(rng, F, 2, 3)
        h = rand_mpoly(rng, F, 2, 2)
        assert (f + g) * h == f * h + g * h


def test_gcd_monic_and_divides():
    rng = random.Random(3)
    F = finite_field(5)
    for _ in range(40):
        a = rand_dense(rng, F, rng.randrange(1, 7))
        b = rand_dense(rng, F, rng.randrange(1, 7))
        if not a or not b:
            continue
        g = unipoly.gcd(F, a, b)
        assert g[-1] == F.one
        assert unipoly.divmod_poly(F, a, g)[1] == []
        assert unipoly.divmod_poly(F, b, g)[1] == []


def test_gcd_scaling_by_monic_common_factor():
    rng = random.Random(4)
    F = finite_field(5)
    for _ in range(25):
        a = rand_dense(rng, F, rng.randrange(1, 5))
        b = rand_dense(rng, F, rng.randrange(1, 5))
        h = unipoly.monic(F, rand_dense(rng, F, rng.randrange(1, 4)))
        if not a or not b or unipoly.degree(h) < 1:
            continue
        g1 = unipoly.gcd(F, unipoly.mul(F, a, h), unipoly.mul(F, b, h))
        g2 = unipoly.mul(F, unipoly.gcd(F, a, b), h)
        assert g1 == unipoly.monic(F, g2)


def test_gcd_zero_pair_rejected():
    with pytest.raises(ValueError):
        unipoly.gcd(finite_field(3), [], [])


def test_gcd_generic_vs_special_pair():
    # gcd(l, l+1) = 1 over the rationals, but gcd(l, l) = l
    one = unipoly.gcd(QQ, [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)])
    assert one == [Fraction(1)]
    same = unipoly.gcd(QQ, [Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)])
    assert same == [Fraction(0), Fraction(1)]


def test_poly_gcd_spec_examples():
    F5 = finite_field(5)
    # gcd(x^2 - 1, x - 1) = x - 1
    g = unipoly.gcd(F5, [4, 0, 1], [4, 1])
    assert g == [4, 1]


@pytest.mark.parametrize("field, top", [(finite_field(2), 6), (finite_field(3), 4),
                                        (finite_field(2, 2), 3)], ids=repr)
def test_ben_or_irreducibility_matches_factoring(field, top):
    # every monic polynomial of degree at most `top`, squarefree or not
    for n in range(top + 1):
        for tail in itertools.product(range(field.q), repeat=n):
            f = [field.element(c) for c in tail] + [field.one]
            _, factors = uni_factor(field, f)
            assert unipoly.is_irreducible_finite(field, f) == (factors == [(tuple(f), 1)]), f


def test_resultant_vanishes_iff_common_factor():
    rng = random.Random(5)
    F = finite_field(7)
    for _ in range(40):
        a = rand_dense(rng, F, rng.randrange(1, 5))
        b = rand_dense(rng, F, rng.randrange(1, 5))
        if unipoly.degree(a) < 1 or unipoly.degree(b) < 1:
            continue
        res = resultant(MPoly.from_dense(F, a), MPoly.from_dense(F, b), 0)
        has_common = unipoly.degree(unipoly.gcd(F, a, b)) >= 1
        assert res.is_zero() == has_common


@pytest.mark.parametrize("field", [finite_field(7), finite_field(2, 2), finite_field(3, 2)],
                         ids=repr)
def test_charpoly_equals_the_bareiss_determinant_of_t_minus_m(field):
    # sizes 1-6, dense and sparse; the fixed matrices need the row/column
    # swap at the first column (a zero subdiagonal entry above a nonzero one)
    # and take the branch for a column already zero below the subdiagonal
    rng = random.Random(f"charpoly:{field!r}")
    T, zero = MPoly.variable(field, 1, 0), MPoly(field, 1)

    def det_t_minus(M):
        n = len(M)
        return _det_bareiss([[(T if i == j else zero) - MPoly.const(field, 1, M[i][j])
                              for j in range(n)] for i in range(n)]).to_dense(0)

    fixed = [
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
        [[1, 0, 2, 0], [0, 1, 0, 0], [0, 0, 0, 1], [1, 1, 0, 0]],
        [[2, 1, 1], [0, 1, 1], [0, 0, 1]],
        [[0] * 5 for _ in range(5)],
    ]
    mats = [[[field.element(c) for c in r] for r in M] for M in fixed]
    for n in range(1, 7):
        for density in (1.0, 0.5, 0.25):
            for _ in range(4):
                mats.append([[field.element(rng.randrange(1, field.q))
                              if rng.random() < density else field.zero
                              for _ in range(n)] for _ in range(n)])
    for M in mats:
        before = [list(r) for r in M]
        assert _charpoly(field, M) == det_t_minus(M)
        assert M == before


def _two_step_values(L, F, g):
    """res_x(b, res_y(g, T - F)) from two Sylvester resultants over
    F_q[x, y, T], with g in L[y] lifted to F_q[x][y]."""
    dom = L.base
    lift = {(i, j, 0): c for j, gj in enumerate(g) for i, c in enumerate(gj)}
    T = MPoly.variable(dom, 3, 2)
    F3 = MPoly(dom, 3, {(i, j, 0): c for (i, j), c in F.terms.items()})
    R = resultant(MPoly(dom, 3, lift), T - F3, 1)
    return resultant(MPoly.from_dense(dom, L.b, 3, 0), R, 0).to_dense(2)


def _residue_corpus():
    """(field, F, b, H) over seeded inputs F in two variables over F_2, F_3,
    F_4 and F_5: every factor b of res_y(F_x, F_y) and one linear b, each
    with a random monic H in L[y] of degree 1 or 2, L = F_q[x]/(b)."""
    rng = random.Random(18)
    for field in (finite_field(2), finite_field(3), finite_field(2, 2), finite_field(5)):
        y = MPoly.variable(field, 2, 1)
        for _ in range(6):
            F = rand_mpoly(rng, field, 2, rng.randrange(2, 6), density=0.5)
            Fx, Fy = F.derivative(0), F.derivative(1)
            if F.is_constant() or Fx.is_constant() or Fy.is_constant():
                continue
            B = resultant(Fx, Fy, 1).to_dense(0)
            bs = [b for b, _ in uni_factor(field, B)[1]] if B else []
            for b in bs + [[field.element(rng.randrange(field.q)), field.one]]:
                k = rng.randrange(1, 3)
                yield field, F, b, y ** k + MPoly(field, 2, {
                    (i, j): field.element(rng.randrange(field.q))
                    for i in range(len(b) - 1) for j in range(k)})


def test_residue_values_equal_the_two_step_resultant():
    # each b of the corpus with the critical gcd g, the fibre of H and of H^2
    seen = set()
    for field, F, b, H in _residue_corpus():
        L = _Residues(field, b)
        fx, fy = (L.fibre(coeff_table(F.derivative(v), 1)) for v in (0, 1))
        crit = [unipoly.gcd(L, fx, fy)] if fx or fy else []
        for g in [L.fibre(coeff_table(P, 1)) for P in (H, H * H)] + crit:
            if len(g) > 1:
                seen.add((len(b) - 1 == 1, len(g) - 1 == 1))
                assert L.values(coeff_table(F, 1), g) == _two_step_values(L, F, g), (F, b, g)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_linear_fibres_stay_in_the_base_field():
    # every linear b of the corpus: the F_q path gives the g, V_b and bad of
    # the residue field F_q[x]/(b), whose elements are 1-tuples or ()
    counts = [0, 0]
    for field, F, b, H in _residue_corpus():
        if len(b) != 2:
            continue
        R, P = _Residues(field, b), _Point(field, b)
        Fx, Fy = F.derivative(0), F.derivative(1)
        hess = Fx.derivative(0) * Fy.derivative(1) - Fx.derivative(1) ** 2
        f, fx, fy, h = (coeff_table(P, 1) for P in (F, Fx, Fy, hess))
        if not (R.fibre(fx) or R.fibre(fy)):
            continue

        def flat(u):
            return [c[0] if c else field.zero for c in u]

        for rows in (f, fx, fy, h, coeff_table(H, 1)):
            assert P.fibre(rows) == flat(R.fibre(rows))
        g = unipoly.gcd(field, P.fibre(fx), P.fibre(fy))
        gR = unipoly.gcd(R, R.fibre(fx), R.fibre(fy))
        assert g == flat(gR), (F.format(), b)
        if len(g) > 1:
            counts[0] += 1
            assert P.values(f, g) == R.values(f, gR), (F.format(), b)
            bad, badR = unipoly.gcd(field, g, P.fibre(h)), unipoly.gcd(R, gR, R.fibre(h))
            assert bad == flat(badR), (F.format(), b)
            if len(bad) > 1:
                counts[1] += 1
                assert P.values(f, bad) == R.values(f, badR), (F.format(), b)
    assert counts[0] >= 20 and counts[1] >= 5, counts  # 27 and 10 of 44 linear b


def _laplace(m, dom, n):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return MPoly.const(dom, n, dom.one)
    total = MPoly(dom, n)
    for j, c in enumerate(m[0]):
        if not c.is_zero():
            term = c * _laplace([r[:j] + r[j + 1:] for r in m[1:]], dom, n)
            total = total + term if j % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("dom", [ZZ, QQ, finite_field(5), finite_field(2, 2)], ids=repr)
def test_det_bareiss_matches_laplace_expansion(dom):
    # entries in three variables of which 0, 1 or 2 occur; zero pivots force
    # row swaps at the first and second step, and some matrices are singular
    rng = random.Random(f"det:{dom!r}")

    def coeff():
        if dom is ZZ:
            return rng.randrange(-3, 4)
        if dom is QQ:
            return Fraction(rng.randrange(-3, 4), rng.choice([1, 2, 3]))
        return rng.randrange(dom.q)

    swaps = singular = 0
    for _ in range(60):
        size = rng.randrange(1, 6)
        used = rng.sample(range(3), rng.randrange(3))

        def entry():
            if rng.random() < 0.25:
                return MPoly(dom, 3)
            terms = {}
            for _t in range(rng.randrange(1, 4)):
                e = [0, 0, 0]
                for v in used:
                    e[v] = rng.randrange(3)
                terms[tuple(e)] = coeff()
            return MPoly(dom, 3, terms)

        m = [[entry() for _ in range(size)] for _ in range(size)]
        kind = rng.randrange(4)
        if kind == 1 and size >= 2:  # zero pivot at the first step
            m[0][0] = MPoly(dom, 3)
            swaps += 1
        elif kind == 2 and size >= 3:  # zero pivot at the second step
            c = entry()
            m[1][:2] = [m[0][0] * c, m[0][1] * c]
            swaps += 1
        elif kind == 3 and size >= 2:  # a row that depends on the others
            c = entry()
            m[-1] = [a * c + b for a, b in zip(m[0], m[1])] if size >= 3 else [a * c for a in m[0]]
        det = _det_bareiss(m)
        assert det == _laplace(m, dom, 3)
        singular += det.is_zero()
    assert swaps >= 10 and singular >= 5


@pytest.mark.parametrize("dom", [ZZ, finite_field(2, 2)], ids=repr)
def test_det_bareiss_reaches_the_top_of_every_stride(dom):
    # a diagonal matrix: deg_v of the determinant is the sum of the rows'
    # largest deg_v, one less than the stride of v, so the top coefficient
    # of the packed image is the last one
    degs = [(2, 1), (0, 3), (1, 0), (3, 2)]
    one = MPoly.const(dom, 2, dom.one)
    diag = [MPoly(dom, 2, {(a, b): 1, (a, 0): 1, (0, 0): 1}) for a, b in degs]
    m = [[diag[i] if i == j else MPoly(dom, 2) for j in range(4)] for i in range(4)]
    det = _det_bareiss(m)
    want = one
    for d in diag:
        want = want * d
    assert det == want
    assert det.deg_in(0) == 6 and det.deg_in(1) == 6
    assert det.coeff((6, 6)) == dom.one


def test_det_bareiss_over_zz_with_large_mixed_sign_coefficients_matches_laplace():
    # coefficients of 2^40 to 2^70 in size with mixed signs, so the balanced
    # base-2^B unpack of the packed determinant borrows between digits;
    # entries in three variables, zero pivots at the first and second step,
    # and singular matrices
    rng = random.Random("det-zz-large")

    def coeff():
        return rng.choice([-1, 1]) * rng.randrange(2**40, 2**70)

    def entry(used):
        if rng.random() < 0.2:
            return MPoly(ZZ, 3)
        terms = {}
        for _t in range(rng.randrange(1, 4)):
            e = [0, 0, 0]
            for v in used:
                e[v] = rng.randrange(3)
            terms[tuple(e)] = coeff()
        return MPoly(ZZ, 3, terms)

    swaps = [0, 0]
    singular = mixed = 0
    for trial in range(48):
        size = rng.randrange(2, 6)
        used = (0, 1, 2) if trial % 2 else tuple(rng.sample(range(3), rng.randrange(1, 3)))
        m = [[entry(used) for _ in range(size)] for _ in range(size)]
        kind = trial % 4
        if kind == 1:  # zero pivot at the first step
            m[0][0] = MPoly(ZZ, 3)
            swaps[0] += 1
        elif kind == 2 and size >= 3:  # zero pivot at the second step
            c = entry(used)
            m[1][:2] = [m[0][0] * c, m[0][1] * c]
            swaps[1] += 1
        elif kind == 3:  # a row that depends on the others
            c = entry(used)
            m[-1] = [a * c + b for a, b in zip(m[0], m[1])] if size >= 3 else [a * c for a in m[0]]
        det = _det_bareiss(m)
        assert det == _laplace(m, ZZ, 3)
        singular += det.is_zero()
        signs = {c > 0 for c in det.terms.values()}
        mixed += len(signs) == 2
    assert min(swaps) >= 5 and singular >= 5 and mixed >= 20


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 1), (-1, -1, -1)])
def test_det_bareiss_over_zz_reaches_its_coefficient_bound(signs):
    # a diagonal matrix of single-term entries: the determinant's only
    # coefficient is the product over rows of the rows' 1-norms, the bound
    # that sizes the packing, in either sign
    mags = [2**61 - 1, 2**64 + 13, 3**40]
    monos = [(2, 0, 1), (0, 3, 0), (1, 1, 2)]
    diag = [MPoly(ZZ, 3, {e: s * c}) for e, s, c in zip(monos, signs, mags)]
    m = [[diag[i] if i == j else MPoly(ZZ, 3) for j in range(3)] for i in range(3)]
    bound = mags[0] * mags[1] * mags[2]
    want = bound * signs[0] * signs[1] * signs[2]
    assert _det_bareiss(m) == MPoly(ZZ, 3, {(3, 4, 3): want})
    # the same determinant with the rows reversed, so each pivot step swaps
    assert _det_bareiss(m[::-1]) == MPoly(ZZ, 3, {(3, 4, 3): -want})


def test_discriminant_golden_values():
    # disc_y(y^2 + c) = -4c with c the first variable
    f = MPoly(ZZ, 2, {(0, 2): 1, (1, 0): 1})
    assert discriminant(f, 1) == MPoly(ZZ, 2, {(1, 0): -4})
    # disc_x(x^3 - l) = -27 l^2
    g = MPoly(ZZ, 2, {(3, 0): 1, (0, 1): -1})
    assert discriminant(g, 0) == MPoly(ZZ, 2, {(0, 2): -27})
    # degree 1: empty product convention
    h = MPoly(ZZ, 2, {(1, 0): 1, (0, 1): -1})
    assert discriminant(h, 0) == MPoly.const(ZZ, 2, 1)
    with pytest.raises(ValueError):
        discriminant(MPoly.const(ZZ, 2, 5), 0)


F5 = finite_field(5)
# (domain, coefficient strategy): F_5[x][y] and Z[l][x]
PRS_DOMAINS = {"F5": (F5, st.integers(0, 4)), "ZZ": (ZZ, st.integers(-3, 3))}


@st.composite
def prs_case(draw, max_deg=2):
    """A domain, a main variable and polynomials of degree <= max_deg in each
    of the two variables."""
    dom, coeffs = PRS_DOMAINS[draw(st.sampled_from(sorted(PRS_DOMAINS)))]
    exps = [(i, j) for i in range(max_deg + 1) for j in range(max_deg + 1)]

    def poly():
        return MPoly(dom, 2, dict(zip(exps, draw(st.lists(coeffs, min_size=len(exps),
                                                          max_size=len(exps))))))

    return draw(st.sampled_from((0, 1))), poly(), poly(), poly()


def associates(f, g):
    if f.dom.is_field:
        return f.monic() == g.monic()
    return f == g or f == -g


@settings(max_examples=80, deadline=None)
@given(prs_case())
def test_primitive_gcd_divides_both(case):
    var, a, b, _ = case
    if a.is_zero() and b.is_zero():
        with pytest.raises(ValueError):
            primitive_gcd(a, b, var)
        return
    g = primitive_gcd(a, b, var)
    assert a.exact_div(g) is not None
    assert b.exact_div(g) is not None


@settings(max_examples=80, deadline=None)
@given(prs_case())
def test_primitive_gcd_common_factor(case):
    var, a, b, c = case
    if c.is_zero() or (a.is_zero() and b.is_zero()):
        return
    assert associates(primitive_gcd(a * c, b * c, var), c * primitive_gcd(a, b, var))


def test_primitive_gcd_examples():
    x, l = MPoly.variable(ZZ, 2, 0), MPoly.variable(ZZ, 2, 1)
    one = MPoly.const(ZZ, 2, 1)
    # the content gcd in Z[l] is part of the gcd: gcd(2l x, 6l^2) = 2l
    assert primitive_gcd(x * l.scale(2), (l * l).scale(6), 0) == l.scale(2)
    # coprime over Q(l), sharing no content: gcd(x - l, x + l) = 1
    assert primitive_gcd(x - l, x + l, 0) == one
    # the sign is normalized: gcd(-(x^2 - l), x^3 - l x) = x^2 - l
    assert primitive_gcd(l - x * x, x * x * x - l * x, 0) == x * x - l
    y = MPoly.variable(F5, 2, 1)
    xf = MPoly.variable(F5, 2, 0)
    assert primitive_gcd((xf + y).scale(3), (xf + y) * (xf - y), 1) == xf + y


def test_reduction_mod_p_is_ring_morphism():
    rng = random.Random(6)
    F5 = finite_field(5)
    for _ in range(25):
        f = MPoly(ZZ, 2, {e: rng.randrange(-20, 20) for e in monomials_upto(2, 3)})
        g = MPoly(ZZ, 2, {e: rng.randrange(-20, 20) for e in monomials_upto(2, 3)})
        assert (f * g).reduce_mod(F5) == f.reduce_mod(F5) * g.reduce_mod(F5)
        assert (f + g).reduce_mod(F5) == f.reduce_mod(F5) + g.reduce_mod(F5)


def test_leading_form():
    F = MPoly(ZZ, 2, {(0, 2): 1, (3, 0): 1})
    assert F.leading_form() == MPoly(ZZ, 2, {(3, 0): 1})
    hom = MPoly(ZZ, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert hom.leading_form() == hom
    const = MPoly.const(ZZ, 2, 5)
    assert const.leading_form() == const
    with pytest.raises(ValueError):
        MPoly(ZZ, 2).leading_form()


def _recursive_monomials(n, d):
    """The recursion monomials_upto used to run: each total degree from d
    down, x-first descending."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + (k,), remaining - k, slots - 1)

    for total in range(d, -1, -1):
        rec((), total, n)
    return out


def test_monomials_upto_keeps_the_graded_lex_order_of_the_recursion():
    for n in range(1, 5):
        for d in range(7):
            assert monomials_upto(n, d) == _recursive_monomials(n, d), (n, d)


def test_monomials_upto_leaves_no_cyclic_garbage():
    # a closure that calls itself is a reference cycle freed only by the
    # collector; the list is built without one
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(1000):
            monomials_upto(2, 4)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_operands_must_share_their_ring():
    # distinct field objects of one order make one ring; another order, or
    # another variable count, is refused
    F3, G3 = finite_field(3), PrimeField(3)
    x = MPoly.variable(F3, 2, 0)
    assert F3 is not G3
    assert x * MPoly.variable(G3, 2, 1) == MPoly(F3, 2, {(1, 1): 1})
    for other in (MPoly.variable(finite_field(5), 2, 0), MPoly.variable(F3, 3, 0),
                  MPoly.variable(ZZ, 2, 0)):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(ValueError, match="different polynomial rings"):
                op(x, other)


def test_exact_division_and_failure():
    F = finite_field(3)
    a = rand_mpoly(random.Random(7), F, 2, 2)
    b = rand_mpoly(random.Random(8), F, 2, 2)
    if a.is_zero() or b.is_zero():
        pytest.skip("degenerate sample")
    prod = a * b
    if not a.is_zero():
        assert prod.exact_div(a) == b
    c = prod + MPoly.const(F, 2, F.one)
    if not a.is_constant():
        assert c.exact_div(a) is None
    # over the integers a coefficient that does not divide fails as well
    assert MPoly(ZZ, 1, {(1,): 2}).exact_div(MPoly(ZZ, 1, {(1,): 3})) is None


def test_squarefree_decomposition_univariate():
    from indecpoly.factoring import uni_sqfree

    rng = random.Random(9)
    for q, p, k in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (9, 3, 2)]:
        F = finite_field(p, k)
        for _ in range(15):
            parts = []
            f = [F.one]
            for mult in (1, 2, 3):
                g = unipoly.monic(F, rand_dense(rng, F, rng.randrange(1, 3)))
                if unipoly.degree(g) < 1:
                    continue
                for _i in range(mult):
                    f = unipoly.mul(F, f, g)
                parts.append((g, mult))
            if unipoly.degree(f) < 1:
                continue
            recon = [F.one]
            for g, m in uni_sqfree(F, f):
                assert unipoly.degree(unipoly.gcd(F, g, unipoly.derivative(F, g))) == 0 or \
                    unipoly.derivative(F, g) == []
                for _i in range(m):
                    recon = unipoly.mul(F, recon, g)
            assert recon == f
