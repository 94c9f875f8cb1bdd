"""Dense univariate polynomial arithmetic over a field.

Polynomials are plain lists of field elements in ascending degree with no
trailing zeros; [] is the zero polynomial. The field object (a finite field
from .fields, or QQ there) supplies the element operations, so these
functions never touch representation details.
"""

from __future__ import annotations

import random


def normalize(dom, c: list) -> list:
    out = list(c)
    while out and out[-1] == dom.zero:
        out.pop()
    return out


def degree(c: list) -> int:
    return len(c) - 1


def constant(dom, a) -> list:
    return [] if a == dom.zero else [a]


def add(dom, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = dom.add(out[i], v)
    return normalize(dom, out)


def sub(dom, a: list, b: list) -> list:
    out = list(a) + [dom.zero] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = dom.sub(out[i], v)
    return normalize(dom, out)


def scale(dom, a: list, c) -> list:
    if c == dom.zero:
        return []
    return normalize(dom, [dom.mul(v, c) for v in a])


def mul(dom, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [dom.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == dom.zero:
            continue
        for j, bj in enumerate(b):
            if bj == dom.zero:
                continue
            out[i + j] = dom.add(out[i + j], dom.mul(ai, bj))
    return normalize(dom, out)


def divmod_poly(dom, a: list, b: list):
    """Quotient and remainder; the divisor's leading coefficient is inverted."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(a) < len(b):
        return [], list(a)
    inv_lc = dom.inv(b[-1])
    rem = list(a)
    db = len(b) - 1
    quot = [dom.zero] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c == dom.zero:
            continue
        q = dom.mul(c, inv_lc)
        quot[i - db] = q
        for j in range(db + 1):
            rem[i - db + j] = dom.sub(rem[i - db + j], dom.mul(q, b[j]))
    return normalize(dom, quot), normalize(dom, rem)


def mod(dom, a: list, b: list) -> list:
    return divmod_poly(dom, a, b)[1]


def monic(dom, a: list) -> list:
    if not a:
        return []
    if a[-1] == dom.one:
        return list(a)
    return scale(dom, a, dom.inv(a[-1]))


def gcd(dom, a: list, b: list) -> list:
    """Monic gcd via the Euclidean algorithm; gcd(0, 0) is an error."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = list(a), list(b)
    while b:
        a, b = b, mod(dom, a, b)
    return monic(dom, a)


def xgcd(dom, a: list, b: list):
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [dom.one], []
    t0, t1 = [], [dom.one]
    while r1:
        q, r = divmod_poly(dom, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(dom, s0, mul(dom, q, s1))
        t0, t1 = t1, sub(dom, t0, mul(dom, q, t1))
    if not r0:
        raise ValueError("xgcd(0, 0) is undefined")
    c = dom.inv(r0[-1])
    return scale(dom, r0, c), scale(dom, s0, c), scale(dom, t0, c)


def pow_mod(dom, a: list, e: int, m: list) -> list:
    out = [dom.one]
    base = mod(dom, a, m)
    while e:
        if e & 1:
            out = mod(dom, mul(dom, out, base), m)
        e >>= 1
        if e:
            base = mod(dom, mul(dom, base, base), m)
    return out


def derivative(dom, a: list) -> list:
    out = []
    for i in range(1, len(a)):
        c = a[i]
        m = dom.mul(c, dom.from_int(i))
        out.append(m)
    return normalize(dom, out)


def compose(dom, outer: list, inner: list) -> list:
    """outer(inner) by Horner."""
    acc: list = []
    for c in reversed(outer):
        acc = add(dom, mul(dom, acc, inner), constant(dom, c))
    return acc


def distinct_degree(field, f: list):
    """Yield (the product of the monic irreducible factors of degree d, d)
    for f over a finite field, d ascending, each d from x^(q^d) mod the rest
    of f; a rest with no factor of degree up to half its own is irreducible
    and comes last, at its own degree.  The pieces of a squarefree monic f
    multiply back to f; for any f the first has the least factor degree."""
    x = [field.zero, field.one]
    h, d, rest = x, 0, f
    while degree(rest) >= 2 * (d + 1):
        d += 1
        h = pow_mod(field, h, field.q, rest)
        g = gcd(field, sub(field, h, x), rest)
        if degree(g) > 0:
            yield g, d
            rest = divmod_poly(field, rest, g)[0]
            h = mod(field, h, rest)
    if degree(rest) > 0:
        yield rest, degree(rest)


def is_irreducible_finite(field, f: list) -> bool:
    """Ben-Or's test, for any f, squarefree or not: f of degree n > 0 is
    irreducible exactly when no irreducible factor has degree <= n/2, that
    is, when the first piece of distinct_degree(f) has degree n."""
    n = degree(f)
    return n > 0 and next(distinct_degree(field, f))[1] == n


def roots(field, f: list) -> list:
    """The distinct roots of a nonzero f over a finite field, ascending: the
    d = 1 step of distinct_degree alone, g = gcd(f, x^q - x), split into its
    linear factors; one q-th power mod f, whether f has a root or not."""
    f = monic(field, normalize(field, f))
    if not f:
        raise ValueError("roots of the zero polynomial")
    x = [field.zero, field.one]
    g = gcd(field, sub(field, pow_mod(field, x, field.q, f), x), f)
    if degree(g) < 1:
        return []
    return sorted(field.neg(h[0]) for h in equal_degree_split(field, g, 1))


def equal_degree_split(field, f: list, d: int) -> list:
    """The monic irreducible factors of a monic squarefree f over a finite
    field, all of which have degree d (Cantor-Zassenhaus with a seeded
    sweep, so the same input always gives the same list)."""
    q = field.q
    pieces = []
    stack = [f]
    trial = 0
    while stack:
        g = stack.pop()
        if degree(g) == d:
            pieces.append(g)
            continue
        split = None
        while split is None:
            trial += 1
            if trial > 10000:  # pragma: no cover
                raise RuntimeError("equal-degree splitting stalled")
            rng = random.Random(0x5EED + trial)
            u = normalize(field, [rng.randrange(q) for _ in range(degree(g))])
            if degree(u) < 1:
                continue
            if field.p == 2:
                # trace map from F_{q^d} down to F_2
                acc = mod(field, u, g)
                t = acc
                for _ in range(d * (q.bit_length() - 1) - 1):
                    t = pow_mod(field, t, 2, g)
                    acc = add(field, acc, t)
                h = acc
            else:
                h = sub(field, pow_mod(field, u, (q ** d - 1) // 2, g), [field.one])
            if not h:
                continue
            w = gcd(field, h, g)
            if 0 < degree(w) < degree(g):
                split = (w, divmod_poly(field, g, w)[0])
        stack.extend(split)
    return pieces
