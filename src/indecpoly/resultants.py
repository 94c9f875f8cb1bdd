"""Resultants, discriminants and gcds by fraction-free elimination.

Entries of the Sylvester matrix are polynomials in the remaining variables.
One kernel takes every determinant: it packs those variables into a single
one t by Kronecker substitution, with strides that no minor of the matrix can
reach, and runs one Bareiss elimination loop on the packed entries.  Its
interior divisions are exact, so everything stays in ZZ/QQ/F_q without
fractions, and the determinant unpacks term by term.

The packing also supplies the ring the loop runs in.  Over ZZ it evaluates
t at 2^B, so an entry is one Python int, with B sized by a bound on the
coefficients of every minor (see `_det_bareiss`).  Every other domain is a
field, the F_q of `spectrum` among them, and an entry is a dense `unipoly`
list.  Both divide by (quotient, remainder): builtin `divmod` on the ints,
`unipoly.divmod_poly` on the lists.

The gcd of two polynomials in two variables is taken in D[x_var], with D the
polynomials in the other variable, by a primitive pseudo-remainder sequence:
pseudo-remainders stay in D[x_var], and the content in D is stripped at every
step. The content gcd in D = K[z] is `unipoly.gcd` when K is a field and,
over ZZ, this same routine one level down with `math.gcd` contents. The
result is the gcd in the unique factorization domain K[x_var, z]; by Gauss's
lemma its primitive part is the gcd over the fraction field of D up to a unit.

The discriminant convention used package-wide:

    disc_v(f) = (-1)^(d(d-1)/2) * res_v(f, df/dv) / lc_v(f),   d = deg_v(f)

with the empty-product convention disc = 1 for d = 1.
"""

from __future__ import annotations

import operator
from functools import partial
from math import gcd as igcd, prod

from . import unipoly
from .mpoly import MPoly


def coeff_list(f: MPoly, var) -> list[MPoly]:
    """Coefficients of f as polynomials with `var` eliminated, ascending."""
    d = f.deg_in(var)
    out = [dict() for _ in range(d + 1)] if d >= 0 else []
    for e, c in f.terms.items():
        k = e[var]
        e2 = list(e)
        e2[var] = 0
        out[k][tuple(e2)] = c
    return [MPoly(f.dom, f.n, t) for t in out]


def coeff_table(f: MPoly, var) -> list[list]:
    """f in two variables as dense rows: row k lists the coefficients of
    x_var^k in the other variable, ascending."""
    return [c.to_dense(1 - var) for c in coeff_list(f, var)]


def _det_bareiss(rows):
    """Determinant of a square matrix of MPoly entries, by Bareiss elimination
    on Kronecker-packed images.

    Every variable the entries use is packed into one variable t: variable v
    gets the stride 1 + (sum over rows of the row's largest deg_v), the first
    used variable is the lowest digit of the mixed radix.  Packing is a ring
    homomorphism into R[t], so the Bareiss quotients, exact in the integral
    domain R[t], are the images of the quotients over R[x, ...].  Each of
    them is a minor, taking one entry from each of its rows, so its deg_v
    stays below the stride of v and it unpacks without overlap; the products
    inside a step may overflow a stride, which does no harm.

    Over ZZ the packed entry is further evaluated at t = 2^B, so each entry
    is one Python int and the step is int `*`, `-` and an exact `divmod`;
    Z[t] -> Z is a ring homomorphism too.  Every coefficient of every minor
    is at most the product over rows of max(1, sum_j ||f_ij||_1) in absolute
    value, and B is taken with 2^(B-1) above that bound: a nonzero minor
    then has a nonzero image, so the pivot tests are faithful, and the
    determinant is read back as balanced base-2^B digits.  Every other
    domain is a field and runs the same loop on dense `unipoly` lists, with
    `unipoly.divmod_poly` in place of `divmod`.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    dom, nvars = rows[0][0].dom, rows[0][0].n
    used = [v for v in range(nvars) if any(f.deg_in(v) > 0 for r in rows for f in r)]
    strides = [1 + sum(max(0, *(f.deg_in(v) for f in r)) for r in rows) for v in used]
    radix = [prod(strides[:i]) for i in range(len(used))]
    size = prod(strides)

    def index(e):
        return sum(e[v] * r for v, r in zip(used, radix))

    if dom.key() == ("zz",):
        bound = prod(max(1, sum(abs(c) for f in r for c in f.terms.values())) for r in rows)
        B = bound.bit_length() + 1
        mask, half = (1 << B) - 1, 1 << (B - 1)

        def pack(f):
            return sum(c << (B * index(e)) for e, c in f.terms.items())

        def digits(v):  # balanced base-2^B digits, each below 2^(B-1) in size
            out = []
            while v:
                out.append(((v + half) & mask) - half)
                v = (v - out[-1]) >> B
            return out

        mul, sub, div = operator.mul, operator.sub, divmod
    else:
        def pack(f):
            out = [dom.zero] * size
            for e, c in f.terms.items():
                out[index(e)] = c
            return unipoly.normalize(dom, out)

        mul, sub, div = (partial(f, dom) for f in (unipoly.mul, unipoly.sub, unipoly.divmod_poly))
        digits = list

    a = [[pack(f) for f in r] for r in rows]
    sign = 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return MPoly(dom, nvars)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        akk, ak = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                num = sub(mul(akk, ai[j]), mul(aik, ak[j]))
                if k:  # the first divisor is 1
                    num, r = div(num, prev)
                    if r:  # pragma: no cover - minors are exact
                        raise ArithmeticError("inexact Bareiss division")
                ai[j] = num
        prev = akk
    coeffs = digits(a[n - 1][n - 1])
    if len(coeffs) > size:  # pragma: no cover - the strides bound every minor
        raise ArithmeticError("determinant overflows its strides")
    terms = {}
    for t, c in enumerate(coeffs):
        if c != dom.zero:
            e = [0] * nvars
            for v, s in zip(used, strides):
                t, e[v] = divmod(t, s)
            terms[tuple(e)] = c if sign > 0 else dom.neg(c)
    return MPoly(dom, nvars, terms)


def resultant(f: MPoly, g: MPoly, var) -> MPoly:
    """res_var(f, g) as a polynomial with `var` eliminated."""
    if f.is_zero():
        raise ValueError("resultant of the zero polynomial")
    dom, n = f.dom, f.n
    m, k = f.deg_in(var), g.deg_in(var)
    if g.is_zero():
        return MPoly(dom, n)
    fc = coeff_list(f, var)
    gc = coeff_list(g, var)
    if m == 0 and k == 0:
        return MPoly.const(dom, n, dom.one)
    if k == 0:
        return gc[0] ** m
    if m == 0:
        return fc[0] ** k
    size = m + k
    zero = MPoly(dom, n)
    rows = []
    for i in range(k):
        row = [zero] * size
        for j, c in enumerate(reversed(fc)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(gc)):
            row[i + j] = c
        rows.append(row)
    return _det_bareiss(rows)


def discriminant(f: MPoly, var) -> MPoly:
    """disc_var(f) under the package convention; errors when deg_var(f) < 1."""
    d = f.deg_in(var)
    if d < 1:
        raise ValueError("discriminant needs degree at least 1 in the variable")
    fp = f.derivative(var)
    dom, n = f.dom, f.n
    if fp.is_zero():
        return MPoly(dom, n)
    res = resultant(f, fp, var)
    lc = coeff_list(f, var)[-1]
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    if sign < 0:
        res = -res
    out = res.exact_div(lc)
    if out is None:  # pragma: no cover - lc always divides the resultant
        raise ArithmeticError("leading coefficient does not divide the resultant")
    return out


# --------------------------------------------------------------------------
# gcd in two variables by a primitive pseudo-remainder sequence
# --------------------------------------------------------------------------

def _normal(f: MPoly) -> MPoly:
    """The associate whose graded-lex leading coefficient is one over a
    field, positive over ZZ."""
    if f.dom.is_field:
        return f.monic()
    return -f if f.leading()[1] < 0 else f


def _coeff_gcd(a: MPoly, b: MPoly, var) -> MPoly:
    """Normalized gcd of two nonzero polynomials free of x_var."""
    dom, z = a.dom, 1 - var
    if dom.is_field:
        return MPoly.from_dense(dom, unipoly.gcd(dom, a.to_dense(z), b.to_dense(z)), 2, z)
    if a.is_constant() and b.is_constant():
        return MPoly.const(dom, 2, igcd(a.constant_term(), b.constant_term()))
    return primitive_gcd(a, b, z)


def content(f: MPoly, var) -> MPoly:
    """Normalized gcd of the coefficients of a nonzero f in x_var."""
    cont = None
    for c in coeff_list(f, var):
        if c.is_zero():
            continue
        cont = c if cont is None else _coeff_gcd(cont, c, var)
        if cont.is_constant() and (f.dom.is_field or cont.constant_term() in (1, -1)):
            break  # a unit
    return _normal(cont)


def _prem(f: MPoly, g: MPoly, var) -> MPoly:
    """A pseudo-remainder lc(g)^k * f - q * g of degree below deg g in x_var."""
    dg = g.deg_in(var)
    lg = coeff_list(g, var)[-1]
    r = f
    while not r.is_zero() and r.deg_in(var) >= dg:
        dr = r.deg_in(var)
        top = {}
        for e, c in r.terms.items():
            if e[var] == dr:
                e2 = list(e)
                e2[var] = dr - dg
                top[tuple(e2)] = c
        r = r * lg - g * MPoly(r.dom, r.n, top)
    return r


def primitive_gcd(f: MPoly, g: MPoly, var) -> MPoly:
    """gcd of two polynomials in two variables over a field or ZZ, by a
    primitive pseudo-remainder sequence in x_var.

    The result is normalized: graded-lex monic over a field, with a positive
    graded-lex leading coefficient over ZZ. gcd(f, 0) is f normalized.
    """
    if f.n != 2:
        raise ValueError("primitive_gcd expects two variables")
    if f.is_zero() or g.is_zero():
        if f.is_zero() and g.is_zero():
            raise ValueError("gcd(0, 0) is undefined")
        return _normal(g if f.is_zero() else f)
    cf, cg = content(f, var), content(g, var)
    c = _coeff_gcd(cf, cg, var)
    f, g = f.exact_div(cf), g.exact_div(cg)
    if f.deg_in(var) < g.deg_in(var):
        f, g = g, f
    while g.deg_in(var) > 0:
        r = _prem(f, g, var)
        if r.is_zero():
            return _normal(c * g)
        f, g = g, r.exact_div(content(r, var))
    return c
