"""Exact coefficient domains: finite fields F_{p^k}, rationals, integers.

Field elements are plain data so they stay hashable and cheap in hot loops:
prime-field elements are ints in range(p); extension elements are length-k
tuples (a0, ..., a_{k-1}) meaning a0 + a1*t + ... relative to the field's
modulus. All arithmetic goes through the owning field object.

Extension moduli are chosen deterministically: the first monic irreducible
of degree k when candidates t^k + a_{k-1} t^{k-1} + ... + a_0 are ordered by
the tuple (a_{k-1}, ..., a_0). Fields of size up to ZECH_LIMIT build
discrete-log tables on demand, at their first multiplication, inversion or
power, which makes multiplicative work O(1); a field that is only named or
used for addition never builds them.

An embedding F_{p^k} -> F_{p^K} (k dividing K) sends t to the smallest root
of the source modulus in the target; projection back is the inverse table
of that embedding, so it answers by lookup and gives None off the image.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import unipoly
from .arith import factorint, is_prime

ZECH_LIMIT = 1 << 16

_FIELD_CACHE: dict[tuple[int, int], "FiniteField"] = {}

DEFAULT_GUARD = 1 << 24


class GuardExceeded(RuntimeError):
    """A brute-force state space exceeded its configured guard."""


class FiniteField:
    """Common interface of prime and extension fields (see subclasses)."""

    is_finite = True
    is_field = True

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    def key(self):
        return ("gf", self.p, self.k)

    def elements(self):
        """Every element, in index order."""
        return [self.element(i) for i in range(self.q)]

    def exact_div(self, a, b):
        return self.div(a, b)

    def pth_root(self, a):
        """The unique r with r^p = a; Frobenius is bijective on F_q."""
        return self.pow(a, self.q // self.p)


class PrimeField(FiniteField):
    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.k = 1
        self.q = p
        self.char = p
        self.zero = 0
        self.one = 1
        self.modulus = None

    def from_int(self, n):
        return n % self.p

    def element(self, i):
        if not 0 <= i < self.p:
            raise ValueError("element index out of range")
        return i

    def index(self, a):
        return a

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def pow(self, a, n):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def format_element(self, a):
        return str(a)


class ExtensionField(FiniteField):
    def __init__(self, p, k):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 2:
            raise ValueError("extension degree must be at least 2")
        self.p = p
        self.k = k
        self.q = p ** k
        self.char = p
        self.base = prime_field(p)
        self.modulus = _default_modulus(self.base, k)
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self._exp = None  # Zech tables, built by the first mul, inv or pow
        self._log = None  # when q <= ZECH_LIMIT (see _zech_log)

    # -- representation helpers -------------------------------------------
    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def element(self, i):
        if not 0 <= i < self.q:
            raise ValueError("element index out of range")
        digits = []
        for _ in range(self.k):
            digits.append(i % self.p)
            i //= self.p
        return tuple(digits)

    def index(self, a):
        out = 0
        for c in reversed(a):
            out = out * self.p + c
        return out

    # -- arithmetic --------------------------------------------------------
    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def _mul_basic(self, a, b):
        base = self.base
        prod = unipoly.mul(base, list(a), list(b))
        rem = unipoly.mod(base, prod, list(self.modulus))
        rem += [0] * (self.k - len(rem))
        return tuple(rem)

    def mul(self, a, b):
        log = self._log or self._zech_log()
        if log is None:
            return self._mul_basic(a, b)
        la = log.get(a)
        if la is None:
            return self.zero
        lb = log.get(b)
        if lb is None:
            return self.zero
        return self._exp[(la + lb) % (self.q - 1)]

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        log = self._log or self._zech_log()
        if log is not None:
            return self._exp[-log[a] % (self.q - 1)]
        g, s, _ = unipoly.xgcd(
            self.base, unipoly.normalize(self.base, list(a)), list(self.modulus)
        )
        if unipoly.degree(g) != 0:
            raise ZeroDivisionError("element not invertible")
        s = unipoly.scale(self.base, s, self.base.inv(g[0]))
        s += [0] * (self.k - len(s))
        return tuple(s[: self.k])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        log = self._log or self._zech_log()
        if log is not None:
            if a == self.zero:
                if n == 0:
                    return self.one
                return self.zero
            return self._exp[(log[a] * n) % (self.q - 1)]
        out = self.one
        base = a
        while n:
            if n & 1:
                out = self._mul_basic(out, base)
            n >>= 1
            if n:
                base = self._mul_basic(base, base)
        return out

    def format_element(self, a):
        terms = []
        for i in range(self.k - 1, -1, -1):
            c = a[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}t" if i == 1 else f"{head}t^{i}")
        return " + ".join(terms) if terms else "0"

    # -- Zech tables -------------------------------------------------------
    def _zech_log(self):
        """The log table, built with the exp table on first use; None when
        q > ZECH_LIMIT.  The exp table is the power walk of the first element
        of order q - 1 (by index, from 2).  It multiplies only through
        _mul_basic, so the arithmetic that calls it is not re-entered."""
        if self._log is None and self.q <= ZECH_LIMIT:
            for i in range(2, self.q):
                g = self.element(i)
                exp = [self.one, g]
                while exp[-1] != self.one:
                    exp.append(self._mul_basic(exp[-1], g))
                if len(exp) == self.q:  # g has order q - 1
                    break
            self._exp = exp[:-1]
            self._log = {a: i for i, a in enumerate(self._exp)}
        return self._log


def prime_field(p) -> PrimeField:
    f = _FIELD_CACHE.get((p, 1))
    if f is None:
        f = PrimeField(p)
        _FIELD_CACHE[(p, 1)] = f
    return f


def finite_field(p, k=1) -> FiniteField:
    """The field with p^k elements; instances are shared and cached.

    Rejects non-prime p. Extension moduli are deterministic, so two calls
    with the same (p, k) agree element-for-element.
    """
    if k < 1:
        raise ValueError("extension degree must be at least 1")
    f = _FIELD_CACHE.get((p, k))
    if f is None:
        if k == 1:
            f = PrimeField(p)
        else:
            f = ExtensionField(p, k)
        _FIELD_CACHE[(p, k)] = f
    return f


def field_from_order(q) -> FiniteField:
    """The field of order q for a prime power q."""
    fac = factorint(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, k), = fac.items()
    return finite_field(p, k)


def _default_modulus(base, k):
    for tail in itertools.product(range(base.p), repeat=k):
        # tail is (a_{k-1}, ..., a_0); candidates ascend in that order
        cand = list(reversed(tail)) + [1]
        if unipoly.is_irreducible_finite(base, cand):
            return tuple(cand)
    raise RuntimeError("no irreducible modulus found")  # pragma: no cover


# --------------------------------------------------------------------------
# embeddings between finite fields of the same characteristic
# --------------------------------------------------------------------------

_EMBED_CACHE: dict[tuple, object] = {}


def _subfield_root(dst, coeffs):
    """Deterministic smallest root in dst of a squarefree polynomial with
    prime-subfield coefficients that splits completely in dst."""
    f = unipoly.monic(dst, unipoly.normalize(dst, [dst.from_int(c) for c in coeffs]))
    roots = (dst.neg(g[0]) for g in unipoly.equal_degree_split(dst, f, 1))
    return min(roots, key=dst.index)


def embedding(src: FiniteField, dst: FiniteField):
    """A ring embedding src -> dst as a callable; src.k must divide dst.k."""
    if src.p != dst.p or dst.k % src.k != 0:
        raise ValueError("incompatible fields")
    key = ("emb", src.p, src.k, dst.k)
    fn = _EMBED_CACHE.get(key)
    if fn is not None:
        return fn
    if src.k == 1:
        fn = dst.from_int
    elif src.k == dst.k:
        fn = lambda a: a  # noqa: E731 - identity on the shared representation
    else:
        root = _subfield_root(dst, src.modulus)
        powers = [dst.one]
        for _ in range(src.k - 1):
            powers.append(dst.mul(powers[-1], root))

        def fn(a, _powers=powers, _dst=dst):
            acc = _dst.zero
            for c, w in zip(a, _powers):
                if c:
                    acc = _dst.add(acc, _dst.mul(_dst.from_int(c), w))
            return acc

    _EMBED_CACHE[key] = fn
    return fn


def projection(src: FiniteField, dst: FiniteField):
    """Partial inverse of embedding(src, dst): dst element -> src element or
    None when the element is outside the embedded copy of src.  It is the
    lookup in the inverse table of the embedding (the identity when the two
    fields are the same)."""
    key = ("proj", src.p, src.k, dst.k)
    fn = _EMBED_CACHE.get(key)
    if fn is None:
        emb = embedding(src, dst)
        fn = emb if src.k == dst.k else {emb(a): a for a in src.elements()}.get
        _EMBED_CACHE[key] = fn
    return fn


# --------------------------------------------------------------------------
# rationals and integers as coefficient domains
# --------------------------------------------------------------------------

class RationalDomain:
    """Exact rationals (fractions.Fraction elements)."""

    char = 0
    is_finite = False
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def key(self):
        return ("qq",)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return a / b

    def exact_div(self, a, b):
        return self.div(a, b)

    def pow(self, a, n):
        return a ** n

    def format_element(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"


class IntegerDomain:
    """The ring of integers (plain int elements); division is exact-or-None."""

    char = 0
    is_finite = False
    is_field = False
    zero = 0
    one = 1

    def key(self):
        return ("zz",)

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r:
            return None
        return q

    def pow(self, a, n):
        return a ** n

    def format_element(self, a):
        return str(a)

    def __repr__(self):
        return "ZZ"


QQ = RationalDomain()
ZZ = IntegerDomain()
