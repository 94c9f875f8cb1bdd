"""Spectral values of indecomposable bivariate polynomials over F_q.

A constant c in the algebraic closure is spectral for F when F - c is
reducible over the closure.  For indecomposable F the spectrum is a finite,
Galois-stable set of size at most deg(F) - 1, so one representative per
Frobenius orbit over the extensions F_{q^m}, m up to deg(F) - 1, suffices.
Each spectral value carries the multiplicity n(c) - 1 where n(c) counts the
distinct irreducible factors of F - c over the closure; the sum of the
multiplicities is bounded by deg(F) - 1 (Stein's inequality).

The candidates tested are the critical values when that is sound: two
components of a reducible F - c meet in P^2 at a singular point, and c only
enters the z^d term of the homogenization, so when the closure of F is
smooth at infinity every spectral c is F(P) at an affine critical point P.
The critical points are found fibre by fibre, as the common roots of F_x
and F_y over each root of res_y(F_x, F_y), and most critical values are
then settled by a node count instead of a factorization.  Otherwise (the
closure singular at infinity, or F_x and F_y with a common component)
every orbit is swept.

The report keeps one minimal polynomial per orbit and their product, a
polynomial with base-field coefficients whose roots are exactly the
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import unipoly
from .arith import decimal, is_prime
from .decompose import is_indecomposable_multi
from .factoring import (absolutely_irreducible, frobenius_orbit, minimal_polynomial,
                        n_bar_factors, uni_factor, uni_roots)
from .fields import DEFAULT_GUARD, QQ, GuardExceeded, embedding, finite_field, prime_field
from .mpoly import MPoly
from .resultants import coeff_list, primitive_gcd, resultant


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
    not depend on c; so F - c, F_x and F_y vanish there.  The full sweep of
    every Frobenius orbit of F_{q^m}, m <= deg(F) - 1, runs instead when
    the closure is singular at infinity or F_x and F_y share a component.

    The certificate: take such an F and a critical value c at fewer than
    d - 1 points over the closure, d = deg(F), each of them a node, that is,
    with Hess = F_xx F_yy - F_xy^2 nonzero.  Then F - c is absolutely
    irreducible.  A split F - c = G H meets in deg G deg H >= d - 1 points of
    P^2 counted with multiplicity (Bezout), all of them affine singular
    points of F - c, and i_P(G, H) = 1 at a node, since G and H are then
    smooth at P with distinct tangents.  In characteristic 2, F_xx = 0, so
    Hess = F_xy^2, and a double point with F_xy = 0 has the tangent cone
    (u x + v y)^2, no node: the same test holds.  Every other critical
    value of degree at most d - 1 over F_q is factored.

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
    sweep = sum(field.q ** m for m in range(1, top + 1))
    if sweep > guard:
        raise GuardExceeded(f"spectral sweep over {decimal(sweep)} elements exceeds guard {guard}")
    if not is_indecomposable_multi(F, guard):
        raise SpectrumUnbounded(
            "decomposable input: every constant shift is reducible, the "
            "spectrum is the whole algebraic closure"
        )
    critical = _critical_candidates(F) if _smooth_at_infinity(F) else None
    candidates = _sweep(field, top) if critical is None else _critical_orbits(
        field, [mu for mu, certified in critical if not certified])
    return _report(F, candidates, guard)


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


def _critical_orbits(field, polys):
    """(K, lam) for every monic irreducible h in `polys`, with K = F_{q^m},
    m = deg h, and lam the root of h of smallest index, the element the sweep
    would pick for that orbit."""
    for h in polys:
        K = finite_field(field.p, field.k * (len(h) - 1))
        emb = embedding(field, K)
        yield K, uni_roots(K, [emb(c) for c in h])[0]


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
    """No singular point of the projective closure of F = 0 lies on z = 0.

    With F_d, F_{d-1} the top two homogeneous parts, such a point is a common
    zero of F_d, dF_d/dx, dF_d/dy and F_{d-1} (the z-derivative there), that
    is, a nonconstant gcd of these binary forms.  A constant shift of F
    leaves all four unchanged once d >= 2."""
    d = F.degree()
    top = F.homogeneous_part(d)
    g = top
    for h in (top.derivative(0), top.derivative(1), F.homogeneous_part(d - 1)):
        g = primitive_gcd(g, h, 1)
    return g.is_constant()


class _Residues:
    """The field F_q[x]/(b) for a monic irreducible b, with elements as
    tuples of base-field coefficients, ascending and without trailing zeros,
    with the operations that `unipoly.gcd` and `unipoly.mod` use."""

    def __init__(self, base, b):
        self.base, self.b = base, b
        self.zero, self.one = (), (base.one,)

    def sub(self, u, v):
        return tuple(unipoly.sub(self.base, u, v))

    def mul(self, u, v):
        return tuple(unipoly.mod(self.base, unipoly.mul(self.base, u, v), self.b))

    def inv(self, u):
        return tuple(unipoly.xgcd(self.base, u, self.b)[1])

    def fibre(self, P: MPoly):
        """P(a, y) in L[y], a the class of x."""
        return unipoly.normalize(self, [tuple(unipoly.mod(self.base, c.to_dense(0), self.b))
                                        for c in coeff_list(P, 1)])

    def values(self, F: MPoly, g):
        """res_x(b, res_y(g, T - F)) in F_q[T] for a monic g in L[y]: the
        product of T - F(a, beta) over the roots a of b and beta of g, with the
        multiplicities of g, that is, the characteristic polynomial of F on
        L[y]/(g).  Row (i, j) holds the F_q-coordinates of x^i y^j (F mod g):
        the transpose of that multiplication matrix, with the same polynomial."""
        dom, e, pad = self.base, len(self.b) - 1, [self.zero] * (len(g) - 1)
        rows, h = [], unipoly.mod(self, self.fibre(F), g)
        for _ in pad:  # h = y^j (F mod g)
            xh = h
            for _ in range(e):  # xh = x^i y^j (F mod g)
                rows.append([c for u in (xh + pad)[:len(pad)] for c in (u + (dom.zero,) * e)[:e]])
                xh = [self.mul(u, (dom.zero, dom.one)) for u in xh]
            h = unipoly.mod(self, [self.zero] + h, g)
        return _charpoly(dom, rows)


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

    For each monic irreducible factor b of B = res_y(F_x, F_y), a nonzero
    polynomial that vanishes at the x of every common zero, and in the
    field L = F_q[x]/(b) with a the class of x, the common y-roots of
    F_x(a, y) and F_y(a, y) are those of their monic gcd g.  A drop of the
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
    if not primitive_gcd(Fx, Fy, 1).is_constant():
        return None
    if Fx.is_constant() or Fy.is_constant():
        return []  # one of them never vanishes: no critical point
    hess = Fx.derivative(0) * Fy.derivative(1) - Fx.derivative(1) ** 2
    V = V_bad = [dom.one]
    for b, _ in uni_factor(dom, resultant(Fx, Fy, 1).to_dense(0))[1]:
        L = _Residues(dom, b)
        g = unipoly.gcd(L, L.fibre(Fx), L.fibre(Fy))
        if len(g) > 1:
            V = unipoly.mul(dom, V, L.values(F, g))
            bad = unipoly.gcd(L, g, L.fibre(hess))
            if len(bad) > 1:
                V_bad = unipoly.mul(dom, V_bad, L.values(F, bad))
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
    a = {}
    for (i, j), c in F.terms.items():
        if i + j > 2:
            raise ValueError("polynomial has degree > 2")
        a[(i, j)] = c
    return a


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
    a = _quad_coeffs(F)
    z = dom.zero
    a00 = a.get((0, 0), z)
    a10 = a.get((1, 0), z)
    a01 = a.get((0, 1), z)
    a20 = a.get((2, 0), z)
    a11 = a.get((1, 1), z)
    a02 = a.get((0, 2), z)
    four = dom.from_int(4)
    denom = dom.sub(dom.mul(four, dom.mul(a02, a20)), dom.mul(a11, a11))
    if denom == z:
        raise ValueError("degenerate quadratic: the closed-form denominator vanishes")
    num = dom.add(
        dom.mul(a02, dom.mul(a10, a10)),
        dom.sub(dom.mul(a20, dom.mul(a01, a01)), dom.mul(a01, dom.mul(a10, a11))),
    )
    return dom.sub(a00, dom.div(num, denom))


def conic_is_degenerate(F: MPoly, lam) -> bool:
    """Reducibility over the closure for a degree-2 polynomial, via the
    vanishing of the symmetric-matrix determinant (characteristic != 2):
    | 2*a20  a11   a10 |
    | a11    2*a02 a01 |
    | a10    a01   2*(a00 - lam) |"""
    dom = F.dom
    a = _quad_coeffs(F)
    z = dom.zero
    two = dom.from_int(2)
    a00 = dom.sub(a.get((0, 0), z), lam)
    a10 = a.get((1, 0), z)
    a01 = a.get((0, 1), z)
    a20 = a.get((2, 0), z)
    a11 = a.get((1, 1), z)
    a02 = a.get((0, 2), z)
    m = [
        [dom.mul(two, a20), a11, a10],
        [a11, dom.mul(two, a02), a01],
        [a10, a01, dom.mul(two, a00)],
    ]
    det = dom.sub(
        dom.add(
            dom.mul(m[0][0], dom.sub(dom.mul(m[1][1], m[2][2]), dom.mul(m[1][2], m[2][1]))),
            dom.mul(m[0][2], dom.sub(dom.mul(m[1][0], m[2][1]), dom.mul(m[1][1], m[2][0]))),
        ),
        dom.mul(m[0][1], dom.sub(dom.mul(m[1][0], m[2][2]), dom.mul(m[1][2], m[2][0]))),
    )
    return det == z


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
