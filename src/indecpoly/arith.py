"""Small integer number-theory helpers shared across the package, and
CensusReport: in this leaf module, a kept report pins no other module."""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from decimal import Decimal
from math import isqrt

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the prime bases 2..41, exact for every
    n below 3,317,044,064,679,887,385,961,981 (about 3.3 * 10**24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending (simple sieve)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division (desk-scale n)."""
    if n < 1:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorint(n).items():
        ds = [d * p ** i for d in ds for i in range(e + 1)]
    return sorted(ds)


def big_omega(n: int) -> int:
    """Number of prime factors counted with multiplicity."""
    return sum(factorint(n).values())


def integer_nth_root(a: int, n: int):
    """Exact n-th root of a nonnegative integer, or None."""
    if a < 0 or n < 1:
        return None
    if a in (0, 1):
        return a
    if n == 2:
        r = isqrt(a)
    else:
        # integer Newton iteration from above; it stops at floor(a^(1/n))
        r = 1 << -(-a.bit_length() // n)
        while True:
            s = ((n - 1) * r + a // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r ** n == a else None


@functools.lru_cache(maxsize=None)
def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k and p prime, else ValueError; one exact k-th root
    per k <= log2(q) and no trial division, so a large prime q is fast.
    Memoized per q, since every census slice and field lookup asks again; a
    q that is no prime power is not stored and raises on every call."""
    for k in range(max(q, 1).bit_length(), 0, -1):
        p = integer_nth_root(q, k)
        if p is not None and is_prime(p):
            return p, k
    raise ValueError(f"{q} is not a prime power")


def decimal(n: int) -> str:
    """The decimal digits of n at any size.  str(n) refuses ints of more than
    4300 digits on Python 3.11 and later; Decimal converts without that
    limit, and no process-wide setting changes."""
    return str(Decimal(n))


def power_over(q: int, m: int, bound: int) -> str | None:
    """q^m written out when it exceeds bound, else None, for q >= 2.  Once
    m >= bound.bit_length(), q^m >= 2^m > bound is known unbuilt; it is then
    written "q^m" unless m * q.bit_length() <= 64 keeps its decimal short."""
    if m >= bound.bit_length() and m * q.bit_length() > 64:
        return f"{q}^{m}"
    return decimal(q ** m) if q ** m > bound else None


def digit_tuples(q: int, k: int, start: int = 0, stop: int | None = None):
    """The k base-q digits, slowest first, of each index in [start, stop),
    0 <= start < q^k and start <= stop <= q^k (None: q^k), in order: the
    tuples of islice(product(range(q), repeat=k), start, stop), which for
    k = 0 is one empty tuple, with no step through the indices below start.
    With j0 the position of the last nonzero digit of a start > 0, they are
    the tuples that agree with start above j0 and are at least its digit
    there, then for each j < j0 those that agree with start above j and
    exceed it at j."""
    if start:
        digits, rest = [], start
        for _ in range(k):
            rest, r = divmod(rest, q)
            digits.append((r,))
        digits.reverse()
        j0 = max(j for j in range(k) if digits[j][0])
        walk = itertools.chain(*[
            itertools.product(*digits[:j], range(digits[j][0] + (j < j0), q),
                              *[range(q)] * (k - 1 - j)) for j in reversed(range(j0 + 1))])
    else:
        walk = itertools.product(range(q), repeat=k)
    return walk if stop is None else itertools.islice(walk, stop - start)


@dataclass
class CensusReport:
    q: int
    n: int
    d: int
    total: int
    indecomposable: int
    decomposable: int
    method: str  # "closed" | "recursion" | "enumeration"

    def to_json(self) -> str:
        return json.dumps(
            {
                "q": self.q,
                "n": self.n,
                "d": self.d,
                "N": decimal(self.total),
                "I": decimal(self.indecomposable),
                "D": decimal(self.decomposable),
                "method": self.method,
            },
            sort_keys=True,
        )
