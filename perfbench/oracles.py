"""Census oracles written from the definitions, sharing no code with the
package they check.

One variable: a polynomial of degree d over F_p is decomposable exactly when
it equals u(v) with deg u = r >= 2, deg v = s >= 2, r * s = d.  An affine
change moves any such v to a normalized one (monic, zero constant term), so
the decomposables are the set of compositions u(v) over normalized v and
all u of exact degree r, collected over every split (r, s).
"""

from __future__ import annotations

from itertools import product
from math import comb


def _is_prime(n):
    return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def _mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def uni_composition_image(p, d):
    """Every decomposable polynomial of degree d over F_p, as coefficient
    tuples (constant term first)."""
    if not _is_prime(p):
        raise ValueError("the oracle works over prime fields")
    image = set()
    for r in range(2, d // 2 + 1):
        if d % r or d // r < 2:
            continue
        s = d // r
        for tail in product(range(p), repeat=s - 1):
            v = [0, *tail, 1]
            powers = [[1]]
            for _ in range(r):
                powers.append(_mul(powers[-1], v, p))
            for lead in range(1, p):
                for low in product(range(p), repeat=r):
                    f = [0] * (d + 1)
                    for c, pw in zip((*low, lead), powers):
                        if c:
                            for k, x in enumerate(pw):
                                f[k] = (f[k] + c * x) % p
                    image.add(tuple(f))
    return image


def uni_total(q, d):
    """Polynomials of exact degree d in one variable over F_q."""
    return (q - 1) * q ** d


def multi_total(q, n, d):
    """Polynomials of exact total degree d in n variables over F_q: all of
    degree <= d minus all of degree <= d - 1."""
    return q ** comb(n + d, n) - q ** comb(n + d - 1, n)
