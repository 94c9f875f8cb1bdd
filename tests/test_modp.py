import json
import random
from fractions import Fraction
from functools import reduce

import pytest

from indecpoly import modp, unipoly
from indecpoly.arith import primes_upto
from indecpoly.cli import main
from indecpoly.fields import QQ, ZZ, prime_field
from indecpoly.mpoly import MPoly
from indecpoly.decompose import is_indecomposable_multi
from indecpoly.modp import (CERT_POINTS, CERT_PRIME, CHAIN_VARS, _squarefree_certified,
                            build_chain, content_primitive, criterion_holds, good_primes)
from indecpoly.parsing import parse_poly
from indecpoly.resultants import coeff_list, primitive_gcd


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


def test_good_primes_does_not_prove_the_sieved_primes_again(monkeypatch):
    ch = build_chain(zz({(0, 2): 1, (3, 0): 1}))
    want = [p for p in primes_upto(1000) if criterion_holds(ch, p)]

    def no_primality_test(p):
        raise AssertionError(f"is_prime({p}) called on a sieved prime")

    monkeypatch.setattr(modp, "is_prime", no_primality_test)
    assert good_primes(ch, 1000) == want
    assert want[:3] == [5, 7, 11] and len(want) == 166


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


# -- the modular certificate that gcd(P, P_x) = 1 -----------------------------

def _random_zl_x(rng, deg_x, deg_l):
    terms = {(i, j): rng.randint(-3, 3) for i in range(deg_x + 1) for j in range(deg_l + 1)}
    terms[(deg_x, rng.randint(0, deg_l))] = rng.choice([-2, -1, 1, 2])
    return zz(terms)


# leading x-coefficients that vanish mod CERT_PRIME at the first points, or at
# every point, so that a later point or the fallback is used
_L = zz({(0, 1): 1})
_VANISHING_LEADS = [
    _L - zz({(0, 0): CERT_POINTS[0]}),
    (_L - zz({(0, 0): CERT_POINTS[0]})) * (_L - zz({(0, 0): CERT_POINTS[1]})),
    _L + zz({(0, 0): CERT_PRIME - CERT_POINTS[0]}),  # vanishes mod p only
    zz({(0, 0): CERT_PRIME}) * _L,
    reduce(lambda a, b: a * b, [_L - zz({(0, 0): a}) for a in CERT_POINTS]),
]


def test_certificate_is_sound_on_seeded_polynomials_over_z_l():
    rng = random.Random(14)
    x = zz({(1, 0): 1})
    certified = 0
    for k in range(120):
        P = _random_zl_x(rng, rng.randint(1, 4), rng.randint(0, 2))
        if k % 3 == 0:
            P = P + (rng.choice(_VANISHING_LEADS) - coeff_list(P, 0)[-1]) * x ** P.deg_in(0)
        if P.deg_in(0) < 1:
            continue
        _, P = content_primitive(P)
        if _squarefree_certified(P):
            certified += 1
            assert primitive_gcd(P, P.derivative(0), 0).deg_in(0) == 0, P
    assert certified > 40


def test_certificate_never_accepts_a_square_factor():
    rng = random.Random(41)
    x = zz({(1, 0): 1})
    one = zz({(0, 0): 1})
    fixed = [
        # the image of B at the first point is a unit, so only the lc test stands
        (x + one, _VANISHING_LEADS[0] * x + one),
        (x * x - _L, zz({(0, 1): CERT_PRIME}) * x + one),
        (x + _L, _VANISHING_LEADS[-1] * x + one),
        (one, x - _L),
    ]
    seeded = []
    while len(seeded) < 60:
        A = _random_zl_x(rng, rng.randint(0, 3), rng.randint(0, 2))
        B = _random_zl_x(rng, rng.randint(1, 2), rng.randint(0, 2))
        if len(seeded) % 4 == 0:
            B = B + (rng.choice(_VANISHING_LEADS) - coeff_list(B, 0)[-1]) * x ** B.deg_in(0)
        if not A.is_zero() and B.deg_in(0) >= 1:
            seeded.append((A, B))
    for A, B in fixed + seeded:
        _, P = content_primitive(A * B * B)
        assert not _squarefree_certified(P), (A, B)


def test_certificate_needs_an_x_degree_of_at_least_one():
    assert not _squarefree_certified(zz({(0, 0): 1}))
    assert not _squarefree_certified(zz({(0, 1): 1, (0, 0): 1}))


def test_certificate_uses_a_later_point_or_falls_back():
    x = zz({(1, 0): 1})
    one = zz({(0, 0): 1})
    # the cusp's P = x^3 - l is unlucky at l = 0 only; l = 1 certifies it
    assert _squarefree_certified(x ** 3 - _L)
    # lc vanishes at the first point and the image at the second is squarefree
    assert _squarefree_certified(_VANISHING_LEADS[1] * x ** 2 + x + one)
    # lc vanishes at every point: nothing is proved
    assert not _squarefree_certified(_VANISHING_LEADS[-1] * x ** 2 + x + one)


def _forbid_gcd(*_):
    raise AssertionError("the gcd over Z[l] ran")


def _seeded_monic_quadratics(total, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        terms = {(i, j): rng.randint(-3, 3) for i in range(total + 1) for j in range(2)
                 if i + j <= total and (i, j) != (total - 1, 1)}
        terms[(0, 2)] = 1
        F = zz(terms)
        if F.degree() == total and is_indecomposable_multi(F.map_coeffs(Fraction, QQ)):
            out.append(F)
    return out


def test_certified_chains_skip_the_gcd_and_keep_their_goldens(monkeypatch):
    corpus = _seeded_monic_quadratics(4, 6, 4) + _seeded_monic_quadratics(5, 3, 5)
    old = []
    with monkeypatch.context() as m:
        m.setattr(modp, "_squarefree_certified", lambda P: False)
        for F in corpus:
            old.append(build_chain(F).to_json_dict())
    monkeypatch.setattr(modp, "primitive_gcd", _forbid_gcd)
    test_chain_golden_cusp()
    test_chain_golden_parabola()
    test_good_primes_cusp()
    for F, want in zip(corpus, old):
        assert build_chain(F).to_json_dict() == want


def test_nontrivial_gcds_still_take_the_gcd_over_z_l(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return primitive_gcd(*args)

    monkeypatch.setattr(modp, "primitive_gcd", counting)
    for text, want in NONTRIVIAL_GCD.items():
        calls.clear()
        ch = build_chain(parse_poly(text, ZZ))
        assert ch.delta_red.format(CHAIN_VARS) == want
        # the content l is stripped before the certificate, which then proves
        # the gcd trivial; the other three keep both gcds over Z[l]
        assert len(calls) == (0 if text == "y^3 + x^2*y^2" else 2), text


def test_x_free_chain_is_left_to_the_empty_product_convention(capsys):
    # deg_y = 1: delta_xl = 1, so P = 1 is never certified and the gcd
    # over Z[l] gives delta_red = 1
    assert main(["modp", "y + x^2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_red"] == "1"
    assert payload["delta_lambda"] == "1"


def test_criterion_product_is_formed_once_per_chain(monkeypatch):
    ch = build_chain(zz({(0, 2): 1, (3, 0): 1}))
    assert ch.criterion_product == ch.delta0 * ch.delta_l

    def no_products(*_):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(MPoly, "__mul__", no_products)
    assert good_primes(ch, 13) == [5, 7, 11, 13]
