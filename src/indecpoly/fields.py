"""Exact coefficient domains: finite fields F_{p^k}, rationals, integers.

Field elements are plain ints in range(q), hashable and cheap in hot loops:
the base-p digits a0, a1, ... of an element (a0 least significant) are the
coefficients of a0 + a1*t + ... relative to the field's modulus.  So an
element is its own index.  All arithmetic goes through the owning field.

Extension moduli are chosen deterministically: the first monic irreducible
of degree k when candidates t^k + a_{k-1} t^{k-1} + ... + a_0 are ordered by
the tuple (a_{k-1}, ..., a_0). In characteristic 2 addition is XOR. Fields
of size up to ZECH_LIMIT build exp, log and (odd p) Zech tables on demand,
at their first multiplication, inversion or power, which makes those and
odd-p addition O(1); a field that is only named or used for addition never
builds them, and adds digit by digit.

An embedding F_{p^k} -> F_{p^K} (k dividing K) sends t to the smallest root
of the source modulus in the target; projection back is the inverse table
of that embedding, so it answers by lookup and gives None off the image.
"""

from __future__ import annotations

from fractions import Fraction

from . import unipoly
from .arith import digit_tuples, factorint, is_prime, prime_power

ZECH_LIMIT = 1 << 16

_FIELD_CACHE: dict[tuple[int, int], "FiniteField"] = {}

DEFAULT_GUARD = 1 << 24


class GuardExceeded(RuntimeError):
    """A brute-force state space exceeded its configured guard."""


class FiniteField:
    """Common interface of prime and extension fields (see subclasses).
    Elements are the ints in range(q); each is its own index."""

    is_finite = True
    is_field = True

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    def key(self):
        return ("gf", self.p, self.k)

    def from_int(self, n):
        return n % self.p

    def element(self, i):
        if not 0 <= i < self.q:
            raise ValueError("element index out of range")
        return i

    def index(self, a):
        return a

    def elements(self):
        """Every element, in index order."""
        return list(range(self.q))

    def exact_div(self, a, b):
        return self.div(a, b)

    def pth_root(self, a):
        """The unique r with r^p = a; Frobenius is bijective on F_q."""
        return self.pow(a, self.q // self.p)


class PrimeField(FiniteField):
    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = self.q = self.char = p
        self.k = 1
        self.zero, self.one = 0, 1  # instance attributes: the fastest lookup
        self.modulus = None

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
        self.p = self.char = p
        self.k = k
        self.q = p ** k
        self.zero, self.one = 0, 1
        self.base = prime_field(p)
        self.modulus = _default_modulus(self.base, k)
        # built by the first mul, inv or pow when q <= ZECH_LIMIT (_zech_log)
        self._exp = self._log = self._zech = None

    # -- digits: a0 + a1*t + ... is a0 + a1*p + ... ------------------------
    def _digits(self, a):
        return [a // self.p ** i % self.p for i in range(self.k)]

    def _number(self, digits):
        out = 0
        for c in reversed(digits):
            out = out * self.p + c
        return out

    def _digitwise(self, a, b, s):
        """a + s*b digit by digit (s = 1 or -1): odd-p addition without tables."""
        p = self.p
        return self._number([(x + s * y) % p for x, y in zip(self._digits(a), self._digits(b))])

    # -- arithmetic --------------------------------------------------------
    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self._zech is None:
            return self._digitwise(a, b, 1)
        return self._add_power(a, self._log[b]) if b else a

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        if self._zech is None:
            return self._digitwise(a, b, -1)
        # -b = g^(log b + (q - 1)/2)
        return self._add_power(a, self._log[b] + (self.q >> 1)) if b else a

    def neg(self, a):
        if self.p == 2 or not a:
            return a
        if self._zech is None:
            return self._digitwise(0, a, -1)
        return self._exp[(self._log[a] + (self.q >> 1)) % (self.q - 1)]

    def _add_power(self, a, n):
        """a + g^n through the Zech table: g^la + g^n = g^(la + Z(n - la))."""
        exp, m = self._exp, self.q - 1
        if not a:
            return exp[n % m]
        la = self._log[a]
        z = self._zech[(n - la) % m]
        return 0 if z is None else exp[(la + z) % m]

    def _mul_basic(self, a, b):
        base = self.base
        prod = unipoly.mul(base, self._digits(a), self._digits(b))
        return self._number(unipoly.mod(base, prod, list(self.modulus)))

    def mul(self, a, b):
        if not a or not b:
            return 0
        log = self._log or self._zech_log()
        if log is None:
            return self._mul_basic(a, b)
        return self._exp[(log[a] + log[b]) % (self.q - 1)]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        log = self._log or self._zech_log()
        if log is not None:
            return self._exp[-log[a] % (self.q - 1)]
        base = self.base
        g, s, _ = unipoly.xgcd(base, unipoly.normalize(base, self._digits(a)), list(self.modulus))
        if unipoly.degree(g) != 0:
            raise ZeroDivisionError("element not invertible")
        return self._number(unipoly.scale(base, s, base.inv(g[0])))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        log = self._log or self._zech_log()
        if log is not None:
            if not a:
                return 0 if n else 1
            return self._exp[(log[a] * n) % (self.q - 1)]
        base = self.base
        digits = unipoly.normalize(base, self._digits(a))
        return self._number(unipoly.pow_mod(base, digits, n, list(self.modulus)))

    def format_element(self, a):
        digits = self._digits(a)
        terms = []
        for i in range(self.k - 1, -1, -1):
            c = digits[i]
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
        """The log table, built with the exp table and, for odd p, the Zech
        table on first use; None when q > ZECH_LIMIT.  The exp table is the
        power walk of the first element of order q - 1 (by index, from 2),
        found by testing g^((q - 1)/r) != 1 for each prime r dividing q - 1.
        The walk takes at most q - 2 products and must close at q - 1
        distinct powers; otherwise the modulus is reducible and it raises
        ArithmeticError.  It multiplies only through unipoly over the prime
        field, so the arithmetic that calls it is not re-entered."""
        if self._log is None and self.q <= ZECH_LIMIT:
            base, m, q1 = self.base, list(self.modulus), self.q - 1
            gd = next(gd for gd in map(self._digits, range(2, self.q))
                      if all(unipoly.pow_mod(base, gd, q1 // r, m) != [1] for r in factorint(q1)))
            power, exp = gd, [1]
            while power != [1] and len(exp) < q1:  # the powers of g, as digit lists
                exp.append(self._number(power))
                power = unipoly.mod(base, unipoly.mul(base, power, gd), m)
            if power != [1] or len(exp) != q1:
                raise ArithmeticError(f"modulus {self.modulus} of {self!r} is not irreducible")
            log = {a: n for n, a in enumerate(exp)}
            if self.p != 2:
                # Z(n) = log(1 + g^n); adding 1 changes only the digit a0, and
                # Z((q - 1)/2) is None since 1 + g^((q - 1)/2) = 0
                p = self.p
                self._zech = [log.get(a - a % p + (a + 1) % p) for a in exp]
            self._exp, self._log = exp, log
        return self._log


def prime_field(p) -> PrimeField:
    return finite_field(p, 1)


def finite_field(p, k=1) -> FiniteField:
    """The field with p^k elements; instances are shared and cached.

    Rejects non-prime p. Extension moduli are deterministic, so two calls
    with the same (p, k) agree element-for-element.
    """
    if k < 1:
        raise ValueError("extension degree must be at least 1")
    f = _FIELD_CACHE.get((p, k))
    if f is None:
        f = _FIELD_CACHE[(p, k)] = PrimeField(p) if k == 1 else ExtensionField(p, k)
    return f


def field_from_order(q) -> FiniteField:
    """The field of order q for a prime power q."""
    return finite_field(*prime_power(q))


def _default_modulus(base, k):
    """The first monic irreducible t^k + a_{k-1} t^(k-1) + ... + a_0 over F_p,
    k >= 2, in the order of (a_{k-1}, ..., a_0).  The first p candidates are
    the binomials t^k + a_0, decided at once by the irreducible-binomial
    criterion (Lidl and Niederreiter, Finite Fields, Theorem 3.75): t^k - a,
    a != 0, is irreducible exactly when every prime r of k divides p - 1 and
    a is no r-th power, a^((p - 1)/r) != 1, and p = 1 mod 4 when 4 | k.  The
    others take one Ben-Or test each."""
    p, primes = base.p, factorint(k)
    if all((p - 1) % r == 0 for r in primes) and (k % 4 or p % 4 == 1):
        for a0 in range(1, p):
            if all(pow(p - a0, (p - 1) // r, p) != 1 for r in primes):
                return (a0,) + (0,) * (k - 1) + (1,)
    for tail in digit_tuples(p, k, p):  # (a_{k-1}, ..., a_0), past the binomials
        cand = list(reversed(tail)) + [1]
        if unipoly.is_irreducible_finite(base, cand):
            return tuple(cand)
    raise RuntimeError("no irreducible modulus found")  # pragma: no cover


# --------------------------------------------------------------------------
# embeddings between finite fields of the same characteristic
# --------------------------------------------------------------------------

_EMBED_CACHE: dict[tuple, object] = {}


def embedding(src: FiniteField, dst: FiniteField):
    """A ring embedding src -> dst as a callable; src.k must divide dst.k."""
    if src.p != dst.p or dst.k % src.k != 0:
        raise ValueError("incompatible fields")
    key = ("emb", src.p, src.k, dst.k)
    fn = _EMBED_CACHE.get(key)
    if fn is not None:
        return fn
    if src.k == 1 or src.k == dst.k:
        # residues mod p are the same ints in every F_{p^K}
        fn = lambda a: a  # noqa: E731 - identity on the shared representation
    else:
        root = unipoly.roots(dst, list(src.modulus))[0]
        powers = [dst.pow(root, i) for i in range(src.k)]

        def fn(a, _powers=powers, _dst=dst, _digits=src._digits):
            acc = 0
            for c, w in zip(_digits(a), _powers):
                if c:
                    acc = _dst.add(acc, _dst.mul(c, w))
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

class _Exact:
    """Arithmetic shared by the characteristic-0 domains, on Python numbers."""

    char = 0
    is_finite = False

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow(self, a, n):
        return a ** n

    def format_element(self, a):
        return str(a)


class RationalDomain(_Exact):
    """Exact rationals (fractions.Fraction elements)."""

    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def key(self):
        return ("qq",)

    def from_int(self, n):
        return Fraction(n)

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

    def __repr__(self):
        return "QQ"


class IntegerDomain(_Exact):
    """The ring of integers (plain int elements); division is exact-or-None."""

    is_field = False
    zero = 0
    one = 1

    def key(self):
        return ("zz",)

    def from_int(self, n):
        return int(n)

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r:
            return None
        return q

    def __repr__(self):
        return "ZZ"


QQ = RationalDomain()
ZZ = IntegerDomain()
