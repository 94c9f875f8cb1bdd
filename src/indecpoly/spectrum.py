"""Spectral values of indecomposable bivariate polynomials over F_q.

A constant c in the algebraic closure is spectral for F when F - c is
reducible over the closure.  For indecomposable F the spectrum is a finite,
Galois-stable set of size at most deg(F) - 1, so one representative per
Frobenius orbit over the extensions F_{q^m}, m up to deg(F) - 1, suffices.
Each spectral value carries the multiplicity n(c) - 1 where n(c) counts the
distinct irreducible factors of F - c over the closure; the sum of the
multiplicities is bounded by deg(F) - 1 (Stein's inequality).

The candidates tested are the critical values of phi = F/z^d once the base
points of the pencil F - c z^d are blown up: two components of a reducible
F - c meet on the connected fibre of phi over c, either at an affine common
zero of F - c, F_x and F_y, or on an exceptional curve over a singular point
of the closure on z = 0 (`_infinity_candidates`).  The affine critical
points are found fibre by fibre, as the common roots of F_x and F_y over
each root of res_y(F_x, F_y), and when the closure is smooth at infinity
most critical values are settled by a node count instead of a
factorization.  Every orbit is swept instead when F_x and F_y share a
component or the charts at infinity give up.

The report keeps one minimal polynomial per orbit and their product, a
polynomial with base-field coefficients whose roots are exactly the
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce

from . import unipoly
from .arith import decimal, is_prime, power_over
from .decompose import is_indecomposable_multi
from .factoring import (absolutely_irreducible, frobenius_orbit, minimal_polynomial,
                        n_bar_factors, uni_factor)
from .fields import DEFAULT_GUARD, QQ, GuardExceeded, embedding, finite_field, prime_field
from .mpoly import MPoly
from .resultants import _det_bareiss, coeff_table, resultant


class SpectrumUnbounded(ValueError):
    """Raised for decomposable input: every constant shift is then reducible
    and the spectrum is the whole algebraic closure."""


@dataclass
class SpectralOrbit:
    degree: int            # orbit size = degree of the minimal polynomial
    min_poly: MPoly        # monic, univariate over the base field
    representative: object  # element of F_{q^degree}
    rep_field: object
    multiplicity: int      # n(value) - 1, the spectral-divisor weight

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "min_poly": self.min_poly.format(("x",)),
            "representative": self.rep_field.format_element(self.representative),
            "multiplicity": self.multiplicity,
        }


@dataclass
class SpectralReport:
    field: object
    poly: MPoly
    degree: int
    orbits: list
    rho: int               # sum of (n - 1) over all spectral values
    s_poly: MPoly          # product of the orbit minimal polynomials

    def spectrum_size(self):
        return sum(o.degree for o in self.orbits)

    def to_json_dict(self):
        return {
            "field": f"{self.field.p}^{self.field.k}" if self.field.k > 1 else str(self.field.p),
            "poly": self.poly.format(),
            "degree": self.degree,
            "indecomposable": True,
            "orbits": [o.to_json_dict() for o in self.orbits],
            "rho": self.rho,
            "spectrum_size": self.spectrum_size(),
            "s_poly": self.s_poly.format(("x",)),
            "stein_holds": stein_check(self),
        }


def spectral_values(F: MPoly, guard=DEFAULT_GUARD) -> SpectralReport:
    """The spectrum of an indecomposable F in two variables.

    Soundness of the critical-value path, in three lines: a reducible F - c
    has two components meeting at a singular point of its closure; that
    point is affine when the closure of F is smooth at infinity, which does
    not depend on c; so F - c, F_x and F_y vanish there.  Otherwise the
    candidates at infinity join them.  The full sweep of every Frobenius
    orbit of F_{q^m}, m <= deg(F) - 1, runs when F_x and F_y share a
    component or the charts at infinity give up (`_Pencil`).

    The certificate, for a closure smooth at infinity only: take such an F
    and a critical value c at fewer than d - 1 points over the closure,
    d = deg(F), each of them a node, that is, with Hess = F_xx F_yy - F_xy^2
    nonzero.  Then F - c is absolutely irreducible.  A split F - c = G H
    meets in deg G deg H >= d - 1 points of P^2 counted with multiplicity
    (Bezout), all of them affine singular points of F - c, and i_P(G, H) = 1
    at a node, since G and H are then smooth at P with distinct tangents.
    In characteristic 2, F_xx = 0, so Hess = F_xy^2, and a double point with
    F_xy = 0 has the tangent cone (u x + v y)^2, no node: the same test
    holds.  Every other candidate of degree at most d - 1 over F_q is
    factored, the affine critical values of a closure singular at infinity
    included.

    Raises GuardExceeded before any work when the sweep would visit more
    than `guard` elements, counted as the sum of q^m over the extensions
    F_{q^m} it covers, whichever path then runs."""
    if F.n != 2:
        raise ValueError("the spectral sweep expects two variables")
    if F.is_zero() or F.is_constant():
        raise ValueError("constant input has no spectrum")
    field = F.dom
    if not field.is_finite:
        raise ValueError("the sweep runs over finite fields")
    d = F.degree()
    top = max(1, d - 1)
    if top >= guard.bit_length():  # q^top >= 2^top > guard: no need to sum
        raise GuardExceeded(f"spectral sweep over at least {field.q}^{top} elements "
                            f"exceeds guard {guard}")
    sweep = sum(field.q ** m for m in range(1, top + 1))
    if sweep > guard:
        raise GuardExceeded(f"spectral sweep over {decimal(sweep)} elements exceeds guard {guard}")
    if not is_indecomposable_multi(F, guard):
        raise SpectrumUnbounded(
            "decomposable input: every constant shift is reducible, the "
            "spectrum is the whole algebraic closure"
        )
    critical = _critical_candidates(F)
    infinity = None if critical is None else _infinity_candidates(F, guard)
    if infinity is None:
        return _report(F, _sweep(field, top), guard)
    smooth = _smooth_at_infinity(F)  # the certificate counts affine points only
    polys = {mu for mu, certified in critical if not (certified and smooth)}
    return _report(F, (_first_root(field, h) for h in sorted(polys.union(infinity))), guard)


def _sweep(field, top):
    """(K, lam) for every Frobenius orbit over `field` of exact size m in
    K = F_{q^m}, m = 1..top; lam is the orbit's element of smallest index."""
    q = field.q
    for m in range(1, top + 1):
        K = finite_field(field.p, field.k * m)
        seen = set()
        for lam in range(K.q):
            if lam in seen:
                continue
            orbit = frobenius_orbit(lam, lambda a: K.pow(a, q))
            seen.update(orbit)
            if len(orbit) == m:  # otherwise it lives in a smaller extension
                yield K, lam


def _first_root(field, h):
    """(K, lam) for a monic irreducible h over `field`, with K = F_{q^m},
    m = deg h, and lam the root of h of smallest index, the element the sweep
    would pick for its orbit."""
    K = finite_field(field.p, field.k * (len(h) - 1))
    emb = embedding(field, K)
    return K, unipoly.roots(K, [emb(c) for c in h])[0]


def _report(F: MPoly, candidates, guard) -> SpectralReport:
    """Test each candidate (K, lam) for reducibility of F - lam over the
    closure and collect the spectral orbits, canonically sorted."""
    field = F.dom
    lifted = {}
    orbits = []
    for K, lam in candidates:
        FK = lifted.get(K.k)
        if FK is None:
            FK = lifted[K.k] = F.map_coeffs(embedding(field, K), K)
        nb = n_bar_factors(FK - MPoly.const(K, 2, lam), guard)
        if nb == 1:  # absolutely irreducible: F indecomposable, so F - lam is no power
            continue
        mp = minimal_polynomial(lam, K, field)
        m = K.k // field.k
        orbits.append(SpectralOrbit(m, MPoly.from_dense(field, mp, 1), lam, K, nb - 1))
    orbits.sort(key=lambda o: (o.degree, o.min_poly.to_dense()))
    rho = sum(o.degree * o.multiplicity for o in orbits)
    s_poly = MPoly.const(field, 1, field.one)
    for o in orbits:
        s_poly = s_poly * o.min_poly
    return SpectralReport(field, F, F.degree(), orbits, rho, s_poly)


def _smooth_at_infinity(F: MPoly) -> bool:
    """No singular point of the projective closure of F = 0 lies on z = 0."""
    g, vertical = _singular_at_infinity(F)
    return len(g) == 1 and not vertical


def _singular_at_infinity(F: MPoly):
    """(g, vertical): the singular points of the closure on z = 0 are
    (1 : a : 0) for the roots a of the monic g in F_q[y], and (0 : 1 : 0)
    when `vertical`.  They are the common zeros of the binary forms F_d,
    dF_d/dx, dF_d/dy and F_{d-1} (the z-derivative there), which a constant
    shift of F leaves unchanged once d >= 2; g is their gcd at x = 1."""
    dom, d = F.dom, F.degree()
    top = F.homogeneous_part(d)
    g, vertical = [], True
    for form, e in ((top, d), (top.derivative(0), d - 1), (top.derivative(1), d - 1),
                    (F.homogeneous_part(d - 1), d - 1)):
        at_one = unipoly.normalize(dom, [form.coeff((e - j, j)) for j in range(e + 1)])
        g = unipoly.gcd(dom, g, at_one)
        vertical = vertical and len(at_one) <= e
    return g, vertical


class _Unresolved(Exception):
    """The charts at infinity cannot bound the candidates; the sweep runs."""


def _infinity_candidates(F: MPoly, guard=DEFAULT_GUARD):
    """The monic irreducible mu in F_q[T] of degree at most deg(F) - 1 whose
    roots are finite values of phi = F/z^d on the exceptional curves over the
    singular points of the closure on z = 0: the constant value of each
    non-dicritical curve and the values at the critical points of phi on each
    dicritical one.  None when the sweep must run instead (see `_Pencil`).

    Blowing up the base points of the pencil F - c z^d makes phi a morphism
    X -> P^1 whose fibres are connected, F being indecomposable, so two
    components of a reducible F - c meet where its fibre is singular, in any
    characteristic.  Over a point at infinity where the closure is smooth,
    every member is smooth, and the exceptional curves lie over c = oo but
    the last, which phi maps isomorphically to P^1: nothing finite."""
    field, d = F.dom, F.degree()
    g, vertical = _singular_at_infinity(F)
    pencil = _Pencil(field, guard, d * d)
    try:
        if vertical:
            pencil.chart(F.swap_vars(0, 1), field, field.zero)
        for h, _ in uni_factor(field, g)[1]:
            pencil.chart(F, *pencil.root(field, h))  # the point (1 : a : 0)
    except _Unresolved:
        return None
    return sorted(mu for mu in pencil.values if len(mu) <= d)


class _Pencil:
    """The pencil A - c B near one base point at a time, A and B in local
    coordinates (u, v) with the common powers of the exceptional curves
    divided out.  `blow_up` covers its exceptional curve E by two charts:
    (u, v) -> (u, u v), where E is u = 0, and (u, v) -> (u v, v), whose
    origin is the one point of E the first chart misses.

    The multiplicities m_i = min(ord A, ord B) of all base points, infinitely
    near ones included, satisfy sum m_i^2 = d^2 (Noether's formula), and
    `budget` holds what is left of d^2.  A blow-up of multiplicity m reads
    the terms of order at most m + 1 <= budget + 1, and each blow-up lowers
    the order of a term by at most its m, so terms of order above
    budget + 1 are dropped.  The sweep runs (`_Unresolved`) when both
    numerators of d(A/B) vanish on a dicritical E, when a point needs an
    extension of more than `guard` elements, or when a blow-up would take
    sum m_i^2 past d^2, which only a pair that never resolves does."""

    def __init__(self, field, guard, budget):
        self.field, self.guard, self.budget = field, guard, budget
        self.values = set()  # minimal polynomials over the base field

    def root(self, K, h):
        """`_first_root(K, h)` within the guard."""
        if power_over(K.q, len(h) - 1, self.guard):
            raise _Unresolved
        return _first_root(K, h)

    def add(self, K, c):
        self.values.add(tuple(minimal_polynomial(c, K, self.field)))

    def chart(self, F: MPoly, K, a):
        """Resolve at (1 : a : 0), a in K: A = F(1, a + v, u), homogenized
        with u = z, and B = u^d."""
        d = F.degree()
        A = MPoly(F.dom, 2, {(d - i - j, j): c for (i, j), c in F.terms.items()})
        self.blow_up(_moved(A, embedding(F.dom, K), K, a, d), MPoly(K, 2, {(d, 0): K.one}))

    def blow_up(self, A: MPoly, B: MPoly):
        """Blow up the common zero of A and B at the origin, collect the values
        on the exceptional curve E and resolve the base points left on it."""
        K, keep = A.dom, self.budget + 1
        A, B = (MPoly(K, 2, {e: c for e, c in P.terms.items() if sum(e) <= keep}) for P in (A, B))
        m = min((sum(e) for P in (A, B) for e in P.terms), default=keep + 1)
        if m * m > self.budget:
            raise _Unresolved
        self.budget -= m * m
        A1, B1 = (MPoly(K, 2, {(i + j - m, j): c for (i, j), c in P.terms.items()})
                  for P in (A, B))
        a, b = _on_axis(A1, 0), _on_axis(B1, 0)  # phi on E = a/b
        # chart 2 at its origin: A(u v, v) / v^m at u = v = 0, and d/du, d/dv
        a2, b2 = (tuple(P.coeff(e) for e in ((0, m), (1, m - 1), (0, m + 1))) for P in (A, B))
        if not b:
            pass  # E lies over c = oo
        elif not a:
            self.add(K, K.zero)
        elif len(a) == len(b) and unipoly.scale(K, b, K.div(a[-1], b[-1])) == a:
            self.add(K, K.div(a[-1], b[-1]))
        else:  # dicritical: the critical points of A/B on E
            au, bu = _on_axis(A1, 1), _on_axis(B1, 1)
            ju = unipoly.sub(K, unipoly.mul(K, au, b), unipoly.mul(K, a, bu))
            jv = unipoly.sub(K, unipoly.mul(K, unipoly.derivative(K, a), b),
                             unipoly.mul(K, a, unipoly.derivative(K, b)))
            if not ju and not jv:
                raise _Unresolved
            for h, _ in uni_factor(K, unipoly.gcd(K, ju, jv))[1]:
                if unipoly.mod(K, b, h):  # B != 0 there
                    L, r = self.root(K, h)
                    emb = embedding(K, L)
                    num, den = (unipoly.compose(L, [emb(c) for c in P], [r]) for P in (a, b))
                    self.add(L, L.div(num[0], den[0]) if num else L.zero)
            if b2[0] != K.zero and all(K.mul(a2[i], b2[0]) == K.mul(a2[0], b2[i]) for i in (1, 2)):
                self.add(K, K.div(a2[0], b2[0]))
        for h, _ in uni_factor(K, unipoly.gcd(K, a, b))[1]:  # base points on E, chart 1
            L, r = self.root(K, h)
            self.blow_up(*(_moved(P, embedding(K, L), L, r, self.budget + 1) for P in (A1, B1)))
        if a2[0] == b2[0] == K.zero:  # a base point at the origin of chart 2
            self.blow_up(*(MPoly(K, 2, {(i, i + j - m): c for (i, j), c in P.terms.items()})
                           for P in (A, B)))


def _moved(P: MPoly, emb, L, r, keep):
    """P(u, v + r) over L, without the terms of degree above `keep` in u."""
    return MPoly(L, 2, {(i, j): c for i, row in enumerate(coeff_table(P, 0)[:keep + 1])
                        for j, c in enumerate(unipoly.compose(L, [*map(emb, row)], [r, L.one]))})


def _on_axis(P: MPoly, k):
    """The coefficient of u^k in P(u, v), as a dense list in v."""
    rows = coeff_table(P, 0)
    return rows[k] if k < len(rows) else []


class _Fibre:
    """The fibre x = a of F_q[x][y], a the class of x in L = F_q[x]/(b), b
    monic irreducible of degree e: `fibre` maps the rows coeff_table(P, 1)
    to P(a, y) in L[y], over the field `dom`, and `coords` writes an element
    of L in F_q-coordinates on the basis 1, x, ..., x^(e-1)."""

    def values(self, rows, g):
        """res_x(b, res_y(g, T - F)) in F_q[T] for the rows of F and a monic g
        in L[y]: the product of T - F(a, beta) over the roots a of b and beta
        of g, with the multiplicities of g, that is, the characteristic
        polynomial of F on L[y]/(g).  Row (i, j) holds the F_q-coordinates of
        x^i y^j (F mod g): the transpose of that multiplication matrix, with
        the same polynomial."""
        L, pad, out = self.dom, [self.dom.zero] * (len(g) - 1), []
        h = unipoly.mod(L, self.fibre(rows), g)
        for _ in pad:  # h = y^j (F mod g)
            xh = h
            for _ in range(self.e):  # xh = x^i y^j (F mod g)
                out.append([c for u in (xh + pad)[:len(pad)] for c in self.coords(u)])
                xh = [L.mul(u, self.x) for u in xh]
            h = unipoly.mod(L, [L.zero] + h, g)
        return _charpoly(self.base, out)


class _Point(_Fibre):
    """L = F_q for a linear b = x - a: x acts as a, and a fibre is the
    Horner evaluation of each row at a."""

    def __init__(self, base, b):
        self.base = self.dom = base
        self.e, self.x, self.coords = 1, base.neg(b[0]), lambda u: (u,)

    def fibre(self, rows):
        dom, a = self.base, self.x
        return unipoly.normalize(dom, [reduce(lambda v, c: dom.add(dom.mul(v, a), c),
                                              reversed(r), dom.zero) for r in rows])


class _Residues(_Fibre):
    """L = F_q[x]/(b) for deg b >= 2, with elements as tuples of base-field
    coefficients, ascending and without trailing zeros, and the operations
    that `unipoly.gcd` and `unipoly.mod` use."""

    def __init__(self, base, b):
        self.base, self.b, self.e, self.dom = base, b, len(b) - 1, self
        self.zero, self.one, self.x = (), (base.one,), (base.zero, base.one)

    def sub(self, u, v):
        return tuple(unipoly.sub(self.base, u, v))

    def mul(self, u, v):
        return tuple(unipoly.mod(self.base, unipoly.mul(self.base, u, v), self.b))

    def inv(self, u):
        return tuple(unipoly.xgcd(self.base, u, self.b)[1])

    def coords(self, u):
        return (u + (self.base.zero,) * self.e)[:self.e]

    def fibre(self, rows):
        return unipoly.normalize(self, [tuple(unipoly.mod(self.base, r, self.b)) for r in rows])


def _charpoly(dom, M):
    """det(T I - M) over the field dom, as a dense list.  Similarity brings M
    to upper Hessenberg form H: per column, a row swap with its column swap,
    then row eliminations, each followed by the inverse column operation.  The
    leading blocks of H then give p_k = (T - h_kk) p_(k-1) - sum_(i<k) h_ik
    h_(i+1,i) ... h_(k,k-1) p_(i-1), in O(n^3) operations (Cohen, Alg. 2.2.9)."""
    n, H, p = len(M), [list(r) for r in M], [[dom.one]]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1] != dom.zero), None)
        if piv is None:
            continue  # column m - 1 is zero below the subdiagonal already
        H[piv], H[m] = H[m], H[piv]
        for r in H:
            r[piv], r[m] = r[m], r[piv]
        inv = dom.inv(H[m][m - 1])
        for i in range(m + 1, n):
            u = dom.mul(H[i][m - 1], inv)
            for j in range(m - 1, n):
                H[i][j] = dom.sub(H[i][j], dom.mul(u, H[m][j]))
            for r in H:
                r[m] = dom.add(r[m], dom.mul(u, r[i]))
    for k in range(n):
        pk, t = unipoly.mul(dom, [dom.neg(H[k][k]), dom.one], p[k]), dom.one
        for i in range(k - 1, -1, -1):
            t = dom.mul(t, H[i + 1][i])
            pk = unipoly.sub(dom, pk, unipoly.scale(dom, p[i], dom.mul(t, H[i][k])))
        p.append(pk)
    return p[n]


def _critical_candidates(F: MPoly):
    """[(mu, certified)] over the monic irreducible mu in F_q[T] of degree at
    most deg(F) - 1 whose roots are critical values of F, that is, F - c,
    F_x and F_y have a common zero over the closure; None when F_x and F_y
    share a component.  `certified` marks the mu whose F - c is proven
    absolutely irreducible (see `spectral_values`) for a smooth closure at
    infinity.

    A shared component of positive degree in y is a common factor in
    F_q(x)[y], which is what B = res_y(F_x, F_y) = 0 detects; one in F_q[x]
    divides both y-contents, which B misses: x^3 + x^2 y + y^2 over F_4 has
    F_x = F_y = x^2 and B = 1.  So B and the gcd of all x-coefficient rows
    of F_x and F_y decide it, and no gcd in F_q[x, y] is taken.

    For each monic irreducible factor b of B, a nonzero polynomial that
    vanishes at the x of every common zero, and in the field
    L = F_q[x]/(b) with a the class of x (`_Point`, F_q itself, for a
    linear b; `_Residues` otherwise), the common y-roots of F_x(a, y) and
    F_y(a, y) are those of their monic gcd g.  A drop of the
    y-degrees at a, which can make B(a) = 0 with no common root, only gives
    g = 1.  Then V_b = res_x(b, res_y(g, T - F)) vanishes exactly at the
    critical values over the conjugates of a, and the exponent e of mu in
    V = prod V_b counts the critical points (a, beta) with F(a, beta) = c,
    multiplicities of g included, for each root c of mu.  V_b is taken as
    the characteristic polynomial of F on F_q[x, y]/(b, g), and V_bad the
    same way from gcd(g, Hess(a, y)), with Hess = F_xx F_yy - F_xy^2: its
    roots are the critical values taken at a point that is not a node.
    mu is certified when e < deg(F) - 1 and mu does not divide V_bad."""
    dom, d = F.dom, F.degree()
    Fx, Fy = F.derivative(0), F.derivative(1)
    # a nonzero constant F_x or F_y leaves no critical point; a zero one
    # shares every component of the other
    if Fx.is_constant() or Fy.is_constant():
        zero, other = (Fx, Fy) if Fx.is_zero() else (Fy, Fx)
        return None if zero.is_zero() and not other.is_constant() else []
    hess = Fx.derivative(0) * Fy.derivative(1) - Fx.derivative(1) ** 2
    B = resultant(Fx, Fy, 1).to_dense(0)
    fx, fy, f, h = (coeff_table(P, 1) for P in (Fx, Fy, F, hess))
    if not B or len(reduce(partial(unipoly.gcd, dom), filter(None, fx + fy))) > 1:
        return None
    V = V_bad = [dom.one]
    for b, _ in uni_factor(dom, B)[1]:
        L = (_Point if len(b) == 2 else _Residues)(dom, b)
        g = unipoly.gcd(L.dom, L.fibre(fx), L.fibre(fy))
        if len(g) > 1:
            V = unipoly.mul(dom, V, L.values(f, g))
            bad = unipoly.gcd(L.dom, g, L.fibre(h))
            if len(bad) > 1:
                V_bad = unipoly.mul(dom, V_bad, L.values(f, bad))
    return [(mu, e < d - 1 and bool(unipoly.mod(dom, V_bad, mu)))
            for mu, e in uni_factor(dom, V)[1] if len(mu) <= d]  # deg mu <= d - 1


def stein_check(report: SpectralReport) -> bool:
    """rho <= deg - 1 and #spectrum <= deg - 1 (classical bound; a failure
    would signal a bug, not new mathematics)."""
    bound = report.degree - 1
    return report.rho <= bound and report.spectrum_size() <= bound


# --------------------------------------------------------------------------
# the degree-2 closed form
# --------------------------------------------------------------------------

def _quad_coeffs(F: MPoly):
    """(a00, a10, a01, a20, a11, a02), the coefficients of a degree-2 F."""
    if F.degree() > 2:
        raise ValueError("polynomial has degree > 2")
    return tuple(F.coeff(e) for e in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))


def quadratic_spectral_value(F: MPoly):
    """The unique spectral value of a nondegenerate quadratic in two
    variables (characteristic != 2):

        a00 - (a02*a10^2 + a20*a01^2 - a01*a10*a11) / (4*a02*a20 - a11^2)
    """
    if F.n != 2 or F.degree() != 2:
        raise ValueError("expected a polynomial of total degree 2 in x, y")
    dom = F.dom
    if dom.char == 2:
        raise ValueError("characteristic 2 is not covered by the closed form")
    if not (dom.is_finite or dom.key() == ("qq",)):
        raise ValueError("unsupported coefficient domain")
    a00, a10, a01, a20, a11, a02 = _quad_coeffs(F)
    four = dom.from_int(4)
    denom = dom.sub(dom.mul(four, dom.mul(a02, a20)), dom.mul(a11, a11))
    if denom == dom.zero:
        raise ValueError("degenerate quadratic: the closed-form denominator vanishes")
    num = dom.add(
        dom.mul(a02, dom.mul(a10, a10)),
        dom.sub(dom.mul(a20, dom.mul(a01, a01)), dom.mul(a01, dom.mul(a10, a11))),
    )
    return dom.sub(a00, dom.div(num, denom))


def conic_is_degenerate(F: MPoly, lam) -> bool:
    """Reducibility over the closure for a degree-2 polynomial, via the
    vanishing of the symmetric-matrix determinant (characteristic != 2),
    taken by resultants._det_bareiss:
    | 2*a20  a11   a10 |
    | a11    2*a02 a01 |
    | a10    a01   2*(a00 - lam) |"""
    dom = F.dom
    a00, a10, a01, a20, a11, a02 = _quad_coeffs(F)
    two = dom.from_int(2)
    m = [
        [dom.mul(two, a20), a11, a10],
        [a11, dom.mul(two, a02), a01],
        [a10, a01, dom.mul(two, dom.sub(a00, lam))],
    ]
    return _det_bareiss([[MPoly.const(dom, 1, c) for c in row] for row in m]).is_zero()


def reduction_compatibility(F: MPoly, p: int, guard=DEFAULT_GUARD) -> bool:
    """The degree-2 spectral value commutes with reduction mod p.

    F has integer coefficients and degree 2; p is an odd prime that divides
    neither the closed-form denominator nor the denominator of the rational
    spectral value.  True when the value computed over the rationals reduces
    to the value computed over F_p and both are spectral per the oracles.
    """
    if F.dom.key() != ("zz",):
        raise ValueError("expected integer coefficients")
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    FQ = F.map_coeffs(Fraction, QQ)
    lam_q = quadratic_spectral_value(FQ)
    fp = prime_field(p)
    Fp = F.reduce_mod(fp)
    if Fp.degree() != 2 or Fp.is_constant():
        raise ValueError("reduction mod p is degenerate")
    if lam_q.denominator % p == 0:
        raise ValueError("p divides the denominator of the spectral value")
    lam_p = quadratic_spectral_value(Fp)
    reduced = fp.mul(fp.from_int(lam_q.numerator), fp.inv(fp.from_int(lam_q.denominator)))
    if reduced != lam_p:
        return False
    # both sides must actually be spectral
    if not conic_is_degenerate(FQ, lam_q):
        return False
    shifted = Fp - MPoly.const(fp, 2, lam_p)
    return not absolutely_irreducible(shifted, guard)
