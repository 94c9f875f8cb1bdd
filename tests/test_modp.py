import random
from fractions import Fraction

import pytest

from indecpoly import unipoly
from indecpoly.fields import QQ, ZZ, prime_field
from indecpoly.mpoly import MPoly
from indecpoly.decompose import is_indecomposable_multi
from indecpoly.modp import (CHAIN_VARS, build_chain, content_primitive, criterion_holds,
                            good_primes)
from indecpoly.parsing import parse_poly


def zz(terms):
    return MPoly(ZZ, 2, terms)


def test_chain_golden_cusp():
    ch = build_chain(zz({(0, 2): 1, (3, 0): 1}))  # y^2 + x^3
    assert ch.delta_xl == zz({(3, 0): -4, (0, 1): 4})
    assert ch.delta_red == zz({(3, 0): 1, (0, 1): -1})
    assert ch.delta_l == zz({(0, 2): -27})
    assert ch.delta0 == zz({(0, 0): -4})


def test_chain_golden_parabola():
    ch = build_chain(zz({(0, 2): 1, (1, 0): 1}))  # y^2 + x
    assert ch.delta_xl == zz({(1, 0): -4, (0, 1): 4})
    assert ch.delta_red == zz({(1, 0): 1, (0, 1): -1})
    assert ch.delta_l == zz({(0, 0): 1})
    assert ch.delta0 == zz({(0, 0): -4})
    assert good_primes(ch, 7) == [3, 5, 7]


def test_good_primes_cusp():
    ch = build_chain(zz({(0, 2): 1, (3, 0): 1}))
    assert good_primes(ch, 11) == [5, 7, 11]
    assert good_primes(ch, 13) == [5, 7, 11, 13]
    assert not criterion_holds(ch, 2)   # p must exceed deg_y
    assert not criterion_holds(ch, 3)   # 27 l^2 vanishes mod 3
    assert criterion_holds(ch, 5)
    with pytest.raises(ValueError):
        criterion_holds(ch, 4)


def test_small_bound_no_primes():
    ch = build_chain(zz({(0, 2): 1, (3, 0): 1}))
    assert good_primes(ch, 2) == []


def test_rejects_non_monic_and_decomposable():
    with pytest.raises(ValueError):
        build_chain(zz({(1, 2): 1, (0, 0): 1}))  # x*y^2 + 1
    s_sq = zz({(2, 0): 1, (1, 1): 2, (0, 2): 1})  # (x+y)^2: decomposable
    with pytest.raises(ValueError):
        build_chain(s_sq)


def test_content_primitive_examples():
    cont, prim = content_primitive(zz({(3, 0): -4, (0, 1): 4}))
    assert cont == zz({(0, 0): -4})
    assert prim == zz({(3, 0): 1, (0, 1): -1})
    cont, prim = content_primitive(zz({(1, 1): 2, (0, 1): 4}))
    assert cont == zz({(0, 1): 2})
    assert prim == zz({(1, 0): 1, (0, 0): 2})
    cont, prim = content_primitive(zz({(2, 0): 1, (0, 1): -1}))
    assert cont == zz({(0, 0): 1})
    with pytest.raises(ValueError):
        content_primitive(MPoly(ZZ, 2))


def test_gcd_order_of_operations_sentinel():
    # reducing mod p before the gcd changes the answer: over the rationals
    # gcd(l, l + p) = 1, but after reduction both inputs are l
    p = 5
    f = [Fraction(0), Fraction(1)]          # l
    g = [Fraction(p), Fraction(1)]          # l + p
    assert unipoly.gcd(QQ, f, g) == [Fraction(1)]
    fp = prime_field(p)
    f_red = [fp.from_int(0), fp.from_int(1)]
    g_red = [fp.from_int(p), fp.from_int(1)]
    assert unipoly.gcd(fp, f_red, g_red) == [0, 1]  # the polynomial l itself


def test_delta_red_squarefree_over_rational_functions():
    for terms in [{(0, 2): 1, (3, 0): 1}, {(0, 3): 1, (2, 0): 1, (1, 0): 1},
                  {(0, 2): 1, (3, 0): 1, (1, 0): 1, (0, 0): 1}]:
        ch = build_chain(zz(terms))
        # disc_x of the reduced part is nonzero exactly when it is squarefree
        assert not ch.delta_l.is_zero()


def test_good_primes_sound_for_small_corpus():
    corpus = [
        {(0, 2): 1, (3, 0): 1},                    # y^2 + x^3
        {(0, 2): 1, (1, 0): 1},                    # y^2 + x
        {(0, 3): 1, (2, 0): 1, (1, 0): 1},         # y^3 + x^2 + x
        {(0, 2): 1, (3, 0): 1, (1, 0): 1, (0, 0): 1},
        {(0, 3): 1, (1, 1): 1, (1, 0): 1},         # y^3 + x*y + x
    ]
    for terms in corpus:
        F = zz(terms)
        ch = build_chain(F)
        for p in good_primes(ch, 13):
            Fp = F.reduce_mod(prime_field(p))
            assert is_indecomposable_multi(Fp), (terms, p)


# delta_red where gcd(delta, d/dx delta) is not 1 over Q(l): the first three
# have a nontrivial gcd, and in the last delta has the content l
NONTRIVIAL_GCD = {
    "y^4 + x*y^2 + x^3": "4*x^6 - x^5 - 8*x^3*l + x^2*l + 4*l^2",
    "y^4 + x^2*y^2 + x": "x^5 - x^4*l - 4*x^2 + 8*x*l - 4*l^2",
    "y^4 + y^2 + x^3": "4*x^6 - 8*x^3*l - x^3 + 4*l^2 + l",
    "y^3 + x^2*y^2": "4*x^6 - 27*l",
}

DEG_Y3 = "x^3 + 2*x^2*y - 2*x*y^2 + y^3 - x^2 + x*y + 2*y^2 - 2*x - 2"


@pytest.mark.parametrize("text", sorted(NONTRIVIAL_GCD))
def test_delta_red_nontrivial_gcd_golden(text):
    ch = build_chain(parse_poly(text, ZZ))
    assert ch.delta_red.format(CHAIN_VARS) == NONTRIVIAL_GCD[text]


def test_chain_golden_deg_y3():
    ch = build_chain(parse_poly(DEG_Y3, ZZ))
    got = ch.to_json_dict()
    assert got["delta_red"] == (
        "83*x^6 + 30*x^5 - 317*x^4 - 94*x^3*l - 40*x^3 - 6*x^2*l + 324*x^2 + 240*x*l"
        " + 27*l^2 + 416*x + 76*l + 44")
    assert got["delta_lambda"] == (
        "-7677876998504448*l^10 - 7427422483086311424*l^9"
        " - 2421964800071714045952*l^8 - 274760391801981073969152*l^7"
        " - 2807302610972247162458112*l^6 - 6190817326387200159436800*l^5"
        " + 43727321655531589214011392*l^4 + 307086177430738698544447488*l^3"
        " + 790652213182338877191684096*l^2 + 949238296103146291744407552*l"
        " + 438272340438555119050555392")
    assert got["delta_0"] == "-83"


def _matches_sympy(text):
    sympy = pytest.importorskip("sympy")
    x, y, l = sympy.symbols("x y l")
    F = sympy.sympify(text.replace("^", "**"), locals={"x": x, "y": y, "l": l})
    delta = sympy.discriminant(F - l, y)
    quo = sympy.quo(delta, sympy.gcd(delta, sympy.diff(delta, x)))
    _, want = sympy.Poly(quo, x, domain=sympy.ZZ[l]).primitive()
    got = sympy.sympify(build_chain(parse_poly(text, ZZ)).delta_red.format(CHAIN_VARS)
                        .replace("^", "**"), locals={"x": x, "l": l})
    return sympy.expand(got - want.as_expr()) == 0 or sympy.expand(got + want.as_expr()) == 0


@pytest.mark.parametrize("text", sorted(NONTRIVIAL_GCD) + [DEG_Y3])
def test_delta_red_matches_sympy(text):
    assert _matches_sympy(text)


def test_delta_red_matches_sympy_seeded_deg_y3():
    pytest.importorskip("sympy")
    rng = random.Random(7)
    checked = 0
    while checked < 4:
        # total degree 3, monic in y
        terms = {(i, j): rng.randint(-2, 2) for i in range(4) for j in range(3) if i + j <= 3}
        terms[(0, 3)] = 1
        F = MPoly(ZZ, 2, terms)
        try:
            build_chain(F)
        except ValueError:
            continue  # decomposable or degenerate
        assert _matches_sympy(F.format()), F.format()
        checked += 1
