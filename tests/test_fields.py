import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from indecpoly import fields, unipoly
from indecpoly.arith import primes_upto
from indecpoly.fields import (ZECH_LIMIT, GuardExceeded, QQ, ZZ, embedding, field_from_order,
                              finite_field, projection)


def test_prime_field_basics():
    F5 = finite_field(5)
    assert F5.q == 5 and F5.k == 1
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.pow(2, 4) == 1


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        finite_field(4)
    with pytest.raises(ValueError):
        finite_field(1)


def test_field_from_order():
    assert field_from_order(9).k == 2
    assert field_from_order(8).p == 2
    with pytest.raises(ValueError):
        field_from_order(12)


def test_prime_power_by_exact_roots():
    from indecpoly.arith import prime_power

    for p in (2, 3, 5, 7, 31, 2 ** 31 - 1):
        for k in (1, 2, 3, 7):
            assert prime_power(p ** k) == (p, k)
    assert prime_power(2 ** 64) == (2, 64)
    assert prime_power(100000000000000000039 ** 2) == (100000000000000000039, 2)
    for q in (-8, 0, 1, 6, 12, 36, 100, 2 ** 10 * 3, (2 ** 31 - 1) * 3):
        with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
            prime_power(q)


def _outcome(fn, q):
    try:
        return fn(q)
    except ValueError as err:
        return str(err)


def test_prime_power_memo_answers_as_the_plain_function():
    from indecpoly.arith import prime_power

    for q in [*range(2001), 2 ** 64, 100000000000000000039 ** 2]:
        assert _outcome(prime_power, q) == _outcome(prime_power.__wrapped__, q), q
    size = prime_power.cache_info().currsize
    for q in (0, 1, 6, 12, 100):
        for _ in range(2):  # a failure is not stored: the second call raises too
            with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
                prime_power(q)
    assert prime_power.cache_info().currsize == size
    for q in (2, 4, 9, 27, 49, 125, 2 ** 64):
        assert field_from_order(q) is finite_field(*prime_power(q))


def test_field_from_order_of_a_large_prime_needs_no_trial_division():
    # trial division to sqrt(q) = 10^10 would not finish; exact roots do
    q = 100000000000000000039
    F = field_from_order(q)
    assert (F.p, F.k) == (q, 1) and F is finite_field(q, 1)
    with pytest.raises(ValueError, match="is not a prime power"):
        field_from_order(q * 3)
    with pytest.raises(ValueError, match="is not a prime power"):
        field_from_order(q * (q + 2))


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    F4 = finite_field(2, 2)
    assert F4.modulus == (1, 1, 1)  # t^2 + t + 1


# the moduli the first-irreducible search picked before it used Ben-Or's
# test: every extension the `spectrum` benchmark set-up builds, and two
# large ones, as {exponent: coefficient}
PINNED_MODULI = {
    (2, 2): {0: 1, 1: 1, 2: 1},
    (2, 4): {0: 1, 1: 1, 4: 1},
    (2, 6): {0: 1, 1: 1, 6: 1},
    (2, 8): {0: 1, 1: 1, 3: 1, 4: 1, 8: 1},
    (2, 12): {0: 1, 3: 1, 12: 1},
    (3, 2): {0: 1, 2: 1},
    (3, 3): {0: 1, 1: 2, 3: 1},
    (3, 4): {0: 2, 1: 1, 4: 1},
    (3, 6): {0: 2, 1: 1, 6: 1},
    (3, 9): {0: 1, 2: 1, 3: 2, 9: 1},
    (5, 2): {0: 2, 2: 1},
    (5, 3): {0: 1, 1: 1, 3: 1},
    (5, 4): {0: 2, 4: 1},
    (5, 6): {0: 2, 1: 1, 6: 1},
    (7, 2): {0: 1, 2: 1},
    (7, 3): {0: 2, 3: 1},
    (7, 4): {0: 1, 1: 1, 4: 1},
    (2, 49): {0: 1, 4: 1, 5: 1, 6: 1, 49: 1},
    (2, 98): {0: 1, 3: 1, 4: 1, 7: 1, 98: 1},
}


def test_default_moduli_pinned():
    for (p, k), terms in PINNED_MODULI.items():
        expected = tuple(terms.get(i, 0) for i in range(k + 1))
        assert fields._default_modulus(finite_field(p), k) == expected, (p, k)


def _ben_or_modulus(p, k):
    """The first monic irreducible of degree k over F_p, one Ben-Or test per
    candidate in the order of (a_{k-1}, ..., a_0)."""
    for tail in itertools.product(range(p), repeat=k):
        cand = list(reversed(tail)) + [1]
        if unipoly.is_irreducible_finite(finite_field(p), cand):
            return tuple(cand)


def test_default_modulus_matches_one_ben_or_test_per_candidate():
    # the binomials t^k + a_0 come first and are decided by the binomial
    # criterion without a Ben-Or test; the modulus found must not change
    for p in primes_upto(59):
        for k in range(2, 7):
            assert fields._default_modulus(finite_field(p), k) == _ben_or_modulus(p, k), (p, k)
    # every element of F_65537 is a cube: the criterion rejects all 65,536
    # binomials t^3 + a_0 at once, and t^3 + t + 4 is the first trinomial
    # (Ben-Or reference not run: it takes seconds there)
    assert fields._default_modulus(finite_field(65537), 3) == (4, 1, 0, 1)


def test_extension_arithmetic_axioms():
    for (p, k) in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        F = finite_field(p, k)
        els = [F.element(i) for i in range(F.q)]
        for a in els:
            assert F.add(a, F.zero) == a
            assert F.mul(a, F.one) == a
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one
        for a in els[:6]:
            for b in els[:6]:
                for c in els[:6]:
                    lhs = F.mul(a, F.add(b, c))
                    rhs = F.add(F.mul(a, b), F.mul(a, c))
                    assert lhs == rhs


def test_zech_tables_built_on_first_arithmetic(monkeypatch):
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})  # a fresh instance
    F = finite_field(3, 9)
    assert F.q <= ZECH_LIMIT
    assert F._exp is None and F._log is None
    F.add(F.one, F.one)
    assert F._exp is None
    t = F.element(3)
    assert F.mul(t, t) == F.element(9)
    assert len(F._exp) == F.q - 1 and len(F._log) == F.q - 1


def test_a_reducible_modulus_raises_instead_of_walking_forever():
    # with x^3 over F_2 the generator test passes g = t, whose powers reach 0
    # and stay there; the walk is bounded, so the first product raises.  It
    # runs in a child process, so a hang fails on the timeout
    script = ("from indecpoly import fields\n"
              "fields._default_modulus = lambda base, k: (0, 0, 0, 1)\n"
              "fields.ExtensionField(2, 3).mul(2, 3)\n")
    src = str(Path(fields.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=20, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode != 0
    assert "ArithmeticError: modulus (0, 0, 0, 1) of GF(2^3) is not irreducible" in run.stderr


def test_zech_tables_never_built_above_the_limit(monkeypatch):
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    F = finite_field(7, 6)
    assert F.q > ZECH_LIMIT
    t = F.element(7)
    assert F.mul(F.inv(t), t) == F.one
    assert F.pow(t, F.q) == t
    assert F.pow(t, -1) == F.inv(t)
    assert F._exp is None and F._log is None


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_zech_arithmetic_matches_basic_multiplication(q):
    F = field_from_order(q)
    els = F.elements()
    for a in els:
        for b in els:
            assert F.mul(a, b) == F._mul_basic(a, b)
    assert F._exp is not None
    for a in els[1:]:
        assert F._mul_basic(F.inv(a), a) == F.one
    for a in els:
        ref = [F.one]  # ref[n] = a^n by repeated _mul_basic
        for _ in range(q + 1):
            ref.append(F._mul_basic(ref[-1], a))
        for n in range(-2, q + 2):
            if n >= 0:
                assert F.pow(a, n) == ref[n]
            elif a == F.zero:
                with pytest.raises(ZeroDivisionError):
                    F.pow(a, n)
            else:
                assert F._mul_basic(F.pow(a, n), ref[-n]) == F.one


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49, 64, 81, 125, 343])
def test_zech_generator_is_the_first_primitive_element(monkeypatch, q):
    # brute force: walk the powers of each candidate with table-free products
    # until one has order q - 1; the tables must be that element's powers
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})  # a fresh instance
    F = field_from_order(q)
    for g in range(2, q):
        powers = [1]
        while len(powers) < q and (len(powers) == 1 or powers[-1] != 1):
            powers.append(F._mul_basic(powers[-1], g))
        if len(powers) == q and powers[-1] == 1:
            break
    F._zech_log()
    assert F._exp[1] == g
    assert F._exp == powers[:-1]
    assert F._log == {a: n for n, a in enumerate(powers[:-1])}


def test_fermat_identity_all_small_fields():
    # a^q = a exhaustively through q = 81
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81):
        F = field_from_order(q)
        for i in range(q):
            a = F.element(i)
            assert F.pow(a, q) == a


def test_pth_root_exhaustive_up_to_81():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81):
        F = field_from_order(q)
        for i in range(q):
            a = F.element(i)
            r = F.pth_root(a)
            assert F.pow(r, F.p) == a


def test_pth_root_closed_forms():
    F3 = finite_field(3)
    assert F3.pth_root(2) == 2  # identity on the prime field
    F9 = finite_field(3, 2)
    assert F9.pth_root(F9.zero) == F9.zero
    for i in range(9):
        a = F9.element(i)
        assert F9.pth_root(a) == F9.pow(a, 3)  # q/p = 3


def test_embedding_is_injective_ring_map():
    for (p, k, K) in [(2, 1, 2), (2, 2, 4), (3, 1, 3), (3, 2, 6), (5, 1, 2)]:
        src, dst = finite_field(p, k), finite_field(p, K)
        emb = embedding(src, dst)
        images = set()
        for i in range(src.q):
            a = src.element(i)
            images.add(emb(a))
            for j in range(src.q):
                b = src.element(j)
                assert emb(src.add(a, b)) == dst.add(emb(a), emb(b))
                assert emb(src.mul(a, b)) == dst.mul(emb(a), emb(b))
        assert len(images) == src.q
        assert emb(src.one) == dst.one


@pytest.mark.parametrize("p, k, K, images", [
    (2, 2, 4, [0, 1, 6, 7]),
    (3, 2, 4, [0, 1, 2, 42, 43, 44, 75, 76, 77]),
    (2, 3, 6, [0, 1, 14, 15, 23, 22, 25, 24]),
    (2, 4, 8, [0, 1, 92, 93, 224, 225, 188, 189, 80, 81, 12, 13]),
])
def test_embedding_images_pinned(p, k, K, images):
    # the embedding sends t to the smallest root of the source modulus, so
    # the splitter that finds the roots must not change which one that is
    src, dst = finite_field(p, k), finite_field(p, K)
    emb = embedding(src, dst)
    assert [dst.index(emb(src.element(i))) for i in range(min(12, src.q))] == images


def test_embedding_zero_one():
    F2, F4 = finite_field(2), finite_field(2, 2)
    emb = embedding(F2, F4)
    assert emb(1) == F4.one
    assert emb(0) == F4.zero


def test_embedded_generator_keeps_minimal_polynomial():
    from indecpoly.factoring import minimal_polynomial

    F3, F27 = finite_field(3), finite_field(3, 3)
    emb = embedding(F3, F27)
    # prime-field elements keep a degree-1 minimal polynomial over F_3
    assert minimal_polynomial(emb(2), F27, F3) == [1, 1]  # x - 2 = x + 1
    F9, F81 = finite_field(3, 2), finite_field(3, 4)
    emb2 = embedding(F9, F81)
    g = F9.element(3)  # the generator class t of F_9
    mp_small = minimal_polynomial(g, F9, F3)
    mp_big = minimal_polynomial(emb2(g), F81, F3)
    assert mp_small == mp_big


def test_projection_detects_non_image():
    F2, F4 = finite_field(2), finite_field(2, 2)
    proj = projection(F2, F4)
    assert proj(F4.one) == 1
    assert proj(F4.element(2)) is None  # t is not in F_2


@pytest.mark.parametrize("p, k, K", [
    (2, 1, 2), (2, 1, 4), (2, 2, 4), (2, 2, 6), (2, 3, 6), (2, 2, 8), (2, 4, 8),
    (3, 1, 3), (3, 2, 4), (3, 2, 6), (3, 3, 6), (5, 1, 2), (5, 2, 4), (7, 1, 3),
    (7, 2, 4),
])
def test_projection_inverts_embedding_exactly(p, k, K):
    src, dst = finite_field(p, k), finite_field(p, K)
    emb, proj = embedding(src, dst), projection(src, dst)
    image = set()
    for a in src.elements():
        assert proj(emb(a)) == a
        image.add(emb(a))
    assert len(image) == src.q
    preimages = 0
    for b in dst.elements():
        if b in image:
            preimages += 1
        else:
            assert proj(b) is None
    assert preimages == src.q


def test_incompatible_embedding_rejected():
    with pytest.raises(ValueError):
        embedding(finite_field(2, 2), finite_field(2, 3))
    with pytest.raises(ValueError):
        embedding(finite_field(2), finite_field(3))


def test_rational_and_integer_domains():
    from fractions import Fraction

    assert QQ.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    assert ZZ.exact_div(6, 3) == 2
    assert ZZ.exact_div(7, 3) is None


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 125])
def test_zech_addition_matches_digit_addition(monkeypatch, q):
    # odd p adds digit by digit until the tables exist, through the Zech
    # table after; both paths must agree on every pair
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})  # a fresh instance
    F = field_from_order(q)
    els = F.elements()
    before = {(a, b): (F.add(a, b), F.sub(a, b), F.neg(b)) for a in els for b in els}
    assert F._zech is None and F._exp is None
    F.mul(F.element(F.p), F.element(F.p))
    assert F._zech is not None
    for a in els:
        for b in els:
            after = (F.add(a, b), F.sub(a, b), F.neg(b))
            assert after == before[a, b]
            assert after == (F._digitwise(a, b, 1), F._digitwise(a, b, -1), F._digitwise(0, b, -1))
            assert F.add(after[1], b) == a and F.add(b, after[2]) == F.zero


@pytest.mark.parametrize("q", [4, 8, 16, 64])
def test_characteristic_two_addition_is_digitwise(q):
    F = field_from_order(q)
    els = F.elements()
    for a in els:
        for b in els:
            # the sum of the coefficient vectors mod 2, spelled out
            digits = [(a >> i & 1) ^ (b >> i & 1) for i in range(F.k)]
            s = sum(c << i for i, c in enumerate(digits))
            assert F.add(a, b) == F.sub(a, b) == s
        assert F.neg(a) == a
