"""Spectral values of indecomposable bivariate polynomials over F_q.

A constant c in the algebraic closure is spectral for F when F - c is
reducible over the closure.  For indecomposable F the spectrum is a finite,
Galois-stable set of size at most deg(F) - 1, so sweeping one representative
per Frobenius orbit over the extensions F_{q^m}, m up to deg(F) - 1, is
complete.  Each spectral value carries the multiplicity n(c) - 1 where n(c)
counts the distinct irreducible factors of F - c over the closure; the sum
of the multiplicities is bounded by deg(F) - 1 (Stein's inequality).

The report keeps one minimal polynomial per orbit and their product, a
polynomial with base-field coefficients whose roots are exactly the
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime
from .decompose import is_indecomposable_multi
from .factoring import (absolutely_irreducible, frobenius_orbit, minimal_polynomial,
                        n_bar_factors)
from .fields import DEFAULT_GUARD, QQ, GuardExceeded, embedding, finite_field, prime_field
from .mpoly import MPoly


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
    """Complete spectral sweep for an indecomposable F in two variables.

    Raises GuardExceeded before any work when the sweep would visit more
    than `guard` elements, counted as the sum of q^m over the extensions
    F_{q^m} it covers."""
    if F.n != 2:
        raise ValueError("the spectral sweep expects two variables")
    if F.is_zero() or F.is_constant():
        raise ValueError("constant input has no spectrum")
    field = F.dom
    if not getattr(field, "is_finite", False):
        raise ValueError("the sweep runs over finite fields")
    d = F.degree()
    q = field.q
    extension_degrees = range(1, max(1, d - 1) + 1)
    sweep = sum(q ** m for m in extension_degrees)
    if sweep > guard:
        raise GuardExceeded(f"spectral sweep over {sweep} elements exceeds guard {guard}")
    if not is_indecomposable_multi(F, guard):
        raise SpectrumUnbounded(
            "decomposable input: every constant shift is reducible, the "
            "spectrum is the whole algebraic closure"
        )
    orbits = []
    for m in extension_degrees:
        K = finite_field(field.p, field.k * m)
        emb = embedding(field, K)
        FK = F.map_coeffs(emb, K)
        seen = set()
        for i in range(K.q):
            lam = K.element(i)
            if lam in seen:
                continue
            orbit = frobenius_orbit(lam, lambda a: K.pow(a, q))
            seen.update(orbit)
            if len(orbit) != m:
                continue  # lives in a smaller extension, already swept
            G = FK - MPoly.const(K, 2, lam)
            if absolutely_irreducible(G, guard):
                continue
            nb = n_bar_factors(G, guard)
            mp = minimal_polynomial(lam, K, field)
            orbits.append(
                SpectralOrbit(m, MPoly.from_dense(field, mp, 1), lam, K, nb - 1)
            )
    orbits.sort(key=lambda o: (o.degree, tuple(map(field.index, o.min_poly.to_dense()))))
    rho = sum(o.degree * o.multiplicity for o in orbits)
    s_poly = MPoly.const(field, 1, field.one)
    for o in orbits:
        s_poly = s_poly * o.min_poly
    return SpectralReport(field, F, d, orbits, rho, s_poly)


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
    if getattr(dom, "char", 0) == 2:
        raise ValueError("characteristic 2 is not covered by the closed form")
    if not (getattr(dom, "is_finite", False) or dom.key() == ("qq",)):
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
