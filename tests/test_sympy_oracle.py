"""Differential tests against sympy as an independent oracle, on seeded inputs.

sympy is a test-only dependency; without it this module is skipped.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from indecpoly import unipoly  # noqa: E402
from indecpoly.arith import is_prime  # noqa: E402
from indecpoly.decompose import compose, decompose_multi, is_indecomposable_multi  # noqa: E402
from indecpoly.factoring import uni_factor  # noqa: E402
from indecpoly.fields import QQ, ZECH_LIMIT, ZZ, finite_field  # noqa: E402
from indecpoly.mpoly import MPoly  # noqa: E402
from indecpoly.resultants import discriminant, resultant  # noqa: E402

x, y, l = sympy.symbols("x y l")


def _to_sympy(f: MPoly):
    return sympy.sympify(f.format().replace("^", "**"), locals={"x": x, "y": y})


def _monic_mod(coeffs_high_first, p):
    """Low-to-high tuple of the monic associate mod p."""
    low = [int(c) % p for c in reversed(coeffs_high_first)]
    inv = pow(low[-1], -1, p)
    return tuple(c * inv % p for c in low)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_uni_factor_matches_sympy_factor_list(p):
    F = finite_field(p)
    rng = random.Random(f"uni_factor:{p}")
    for _ in range(30):
        # products of random pieces with multiplicities, p-th powers included
        f = [rng.randrange(1, p)]
        for _piece in range(rng.randrange(1, 4)):
            g = unipoly.normalize(F, [rng.randrange(p) for _ in range(rng.randrange(2, 6))])
            for _m in range(rng.choice([1, 1, 2, 3, p])):
                f = unipoly.mul(F, f, g)
        if unipoly.degree(f) < 1:
            continue
        unit, ours = uni_factor(F, f)
        lc, theirs = sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()
        want = [(_monic_mod(g.all_coeffs(), p), m) for g, m in theirs]
        assert sorted(ours) == sorted(want)
        assert unit == int(lc) % p == f[-1]


def _random_zz(rng, deg_x, deg_y):
    terms = {(i, j): rng.randrange(-4, 5) for i in range(deg_x + 1) for j in range(deg_y + 1)}
    terms[(rng.randrange(deg_x + 1), deg_y)] = rng.choice([-3, -1, 1, 2])
    return MPoly(ZZ, 2, terms)


def test_resultant_matches_sympy_over_zz():
    # the oracle is sympy's Sylvester determinant, the defining formula;
    # sympy.resultant itself is compared only when deg_y f >= deg_y g, since
    # sympy 1.14 flips its sign otherwise when deg_y f * deg_y g is odd:
    # resultant(y - 2, y**3, y) is -8, while lc(f)^3 * g(2) = 8
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.subresultants_qq_zz import sylvester

    rng = random.Random("resultant")
    for _ in range(25):
        f = _random_zz(rng, rng.randrange(0, 3), rng.randrange(1, 4))
        g = _random_zz(rng, rng.randrange(0, 3), rng.randrange(1, 4))
        got = _to_sympy(resultant(f, g, 1))
        fs, gs = _to_sympy(f), _to_sympy(g)
        S = DomainMatrix.from_Matrix(sylvester(fs, gs, y))
        assert sympy.expand(got - S.domain.to_sympy(S.det())) == 0
        if f.deg_in(1) >= g.deg_in(1):
            assert sympy.expand(got - sympy.resultant(fs, gs, y)) == 0


def test_discriminant_matches_sympy_over_zz():
    rng = random.Random("discriminant")
    for _ in range(25):
        f = _random_zz(rng, rng.randrange(0, 3), rng.randrange(1, 5))
        got = _to_sympy(discriminant(f, 1))
        want = sympy.discriminant(_to_sympy(f), y)
        assert sympy.expand(got - want) == 0


def _expr3(f: MPoly):
    """f in three variables (x, y, l) as a sympy expression, term by term."""
    return sum(int(c) * x ** i * y ** j * l ** k for (i, j, k), c in f.terms.items())


def test_discriminant_of_f_minus_l_matches_sympy_over_zz():
    # the y-discriminant of F - l with F in Z[x, y]: the Sylvester entries
    # use both x and l, as in the first step of the mod-p chain
    rng = random.Random("discriminant-f-minus-l")
    for _ in range(15):
        F3 = _random_zz(rng, rng.randrange(1, 4), rng.randrange(2, 4)).lift_vars(3)
        got = discriminant(F3 - MPoly.variable(ZZ, 3, 2), 1)
        want = sympy.discriminant(_expr3(F3) - l, y)
        assert got.deg_in(0) > 0 and got.deg_in(2) > 0
        assert sympy.expand(_expr3(got) - want) == 0


@pytest.mark.parametrize("text", [
    "y^3 + 2*x^5*y - 7*x^6 + x*y^2 - 3*x^2*y + x^3 - 1",
    "y^3 - 2*x^3*y^2 + x^5*y + 2*x^6 - x^4*y - x",
])
def test_deg6_cubic_chain_discriminants_match_sympy(text):
    # chains of total degree 6, cubic in y: both determinants are large
    # enough that every entry packs into a multi-word int
    from indecpoly.modp import CHAIN_VARS, build_chain
    from indecpoly.parsing import parse_poly

    chain = build_chain(parse_poly(text, ZZ, nvars=2))

    def expr(f):
        return sympy.sympify(f.format(CHAIN_VARS).replace("^", "**"), locals={"x": x, "l": l})

    F = sympy.sympify(text.replace("^", "**"), locals={"x": x, "y": y})
    assert sympy.expand(expr(chain.delta_xl) - sympy.discriminant(F - l, y)) == 0
    delta_red = expr(chain.delta_red)
    assert sympy.degree(delta_red, x) >= 15
    assert sympy.expand(expr(chain.delta_l) - sympy.discriminant(delta_red, x)) == 0


@pytest.mark.parametrize("p", [5, 7])
def test_resultant_with_two_surviving_variables_matches_sympy_mod_p(p):
    F = finite_field(p)
    rng = random.Random(f"resultant-mod-{p}")

    def random_fp():
        dy = rng.randrange(1, 4)
        terms = {(i, j, k): rng.randrange(p) for i in range(3) for j in range(dy + 1)
                 for k in range(2) if rng.random() < 0.4}
        terms[(rng.randrange(1, 3), dy, 1)] = rng.randrange(1, p)
        return MPoly(F, 3, terms)

    for _ in range(20):
        f, g = random_fp(), random_fp()
        m, k = f.deg_in(1), g.deg_in(1)
        got = resultant(f, g, 1)
        assert got.deg_in(0) > 0 and got.deg_in(2) > 0
        # sympy 1.14 flips the sign of its resultant when its first argument
        # has the lower degree (see above), so the higher degree goes first
        a, b = (f, g) if m >= k else (g, f)
        want = sympy.Poly(_expr3(a), y, x, l, modulus=p).resultant(
            sympy.Poly(_expr3(b), y, x, l, modulus=p))
        if m < k and m * k % 2:
            want = -want
        assert sympy.Poly(_expr3(got), x, l, modulus=p) == sympy.Poly(want.as_expr(), x, l,
                                                                      modulus=p)


def _random_qq(rng, d):
    coeffs = [Fraction(rng.randrange(-5, 6), rng.choice([1, 1, 2, 3])) for _ in range(d)]
    return MPoly.from_dense(QQ, coeffs + [Fraction(rng.choice([-2, 1, 3]))], 1)


def test_one_variable_indecomposability_matches_sympy_decompose_over_qq():
    rng = random.Random("decompose-qq")
    agreed = {True: 0, False: 0}
    for _ in range(40):
        if rng.random() < 0.4:
            f = _random_qq(rng, rng.choice([4, 6, 8, 9]))
        else:
            # u(v) with both degrees >= 2, sometimes perturbed out of the image
            u = _random_qq(rng, rng.choice([2, 3]))
            v = _random_qq(rng, rng.choice([2, 3]))
            f = compose(u, v)
            if rng.random() < 0.3:
                f = f + MPoly.from_dense(QQ, [Fraction(0), Fraction(1)], 1)
        ours = is_indecomposable_multi(f)
        parts = sympy.decompose(_to_sympy(f))
        if len(parts) > 1:
            assert not ours  # sympy's parts recompose to f
        elif not ours:
            # sympy 1.14 misses some decompositions over QQ: it finds none of
            # (x^3 + x)(2*x^3 + x^2), and with domain="QQ" none of
            # (x^3 + x)(x^3 + x^2).  Recompose ours in sympy instead.
            d = f.degree()
            dec = next(dec for r in range(2, d) if d % r == 0 and d // r >= 2
                       for dec in [decompose_multi(f, r)] if dec is not None)
            inner, outer = _to_sympy(dec.inner), _to_sympy(dec.outer)
            assert sympy.expand(outer.subs(x, inner) - _to_sympy(f)) == 0
            continue
        agreed[ours] += 1
    assert agreed[True] >= 5 and agreed[False] >= 5


@pytest.mark.parametrize("p, k", [(2, 8), (3, 5), (5, 3), (7, 6)])
def test_extension_arithmetic_matches_galoistools(p, k):
    # elements as digit lists, highest first, are sympy's dense polynomials
    # over F_p; arithmetic is modulo the field's modulus
    from sympy.polys import galoistools as gt
    from sympy.polys.domains import ZZ as SZZ

    F = finite_field(p, k)
    assert (F.q > ZECH_LIMIT) == ((p, k) == (7, 6))  # one field without tables
    m = [int(c) for c in reversed(F.modulus)]
    assert gt.gf_irreducible_p(m, p, SZZ)

    def poly(a):
        return gt.gf_strip([a // p ** i % p for i in reversed(range(k))])

    def element(f):
        out = 0
        for c in f:
            out = out * p + int(c)
        return out

    rng = random.Random(f"galoistools:{p}^{k}")
    for _ in range(150):
        a, b = rng.randrange(F.q), rng.randrange(1, F.q)
        n = rng.randrange(-F.q, 2 * F.q)
        fa, fb = poly(a), poly(b)
        assert F.add(a, b) == element(gt.gf_add(fa, fb, p, SZZ))
        assert F.sub(a, b) == element(gt.gf_sub(fa, fb, p, SZZ))
        assert F.neg(a) == element(gt.gf_neg(fa, p, SZZ))
        assert F.mul(a, b) == element(gt.gf_rem(gt.gf_mul(fa, fb, p, SZZ), m, p, SZZ))
        inv, _, g = gt.gf_gcdex(fb, m, p, SZZ)  # inv*b + _*m = g = 1
        assert g == [1]
        assert F.inv(b) == element(inv)
        assert F.pow(b, n) == element(gt.gf_pow_mod(fb if n >= 0 else inv, abs(n), m, p, SZZ))
        assert F.pow(a, abs(n)) == element(gt.gf_pow_mod(fa, abs(n), m, p, SZZ))


def test_is_prime_matches_sympy():
    # Carmichael numbers, the smallest strong pseudoprimes to base 2 and to
    # bases 2..7, Mersenne primes, and the smallest strong pseudoprime to
    # bases 2..37, which only base 41 exposes
    for n in range(200_000):
        assert is_prime(n) == sympy.isprime(n), n
    for n in (561, 1105, 1729, 2047, 3215031751, 2 ** 61 - 1, 2 ** 89 - 1,
              399165290221 * 798330580441):
        assert is_prime(n) == sympy.isprime(n), n
