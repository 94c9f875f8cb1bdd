"""Indecomposability modulo p via the discriminant chain.

For F(x, y) with integer coefficients, monic in y and indecomposable over
the rationals' closure, the chain is

    delta_xl  = disc_y(F(x, y) - l)                  in Z[l][x]
    delta_red = pp(P / gcd(P, d/dx delta_xl)),  P = pp(delta_xl)
    delta_l   = disc_x(delta_red)                    in Z[l]
    delta0    = leading x-coefficient of delta_xl    in Z[l]

where pp is the primitive part over Z[l] and the gcd is the primitive gcd in
Z[l][x] of `resultants.primitive_gcd`, a pseudo-remainder sequence that
strips the content in Z[l] at every step. By Gauss's lemma it equals the gcd
in Q(l)[x] up to a unit of Q(l), so delta_red is the primitive squarefree
part over Q(l). The gcd is taken over Z[l] FIRST, before any reduction mod p
(reducing first changes the answer: gcd(l, l + a) is 1 for a != 0 but l for
a = 0). A prime p with p > deg_y(F) whose reduction keeps delta0 * delta_l
nonzero guarantees that F mod p stays indecomposable over the closure of
F_p.

A modular image may certify that the gcd is 1, but never stands in for a
nontrivial gcd (Brown's lemma on unlucky reductions). Let h be the primitive
gcd of P and P_x in Z[l][x] (the gcd above, since P is primitive), and let a
bar denote l = a and reduction mod a prime. h divides P, so lc_x(h) divides lc_x(P); when lc_x(P)(a) is nonzero
mod the prime, h-bar keeps the x-degree of h and divides gcd(P-bar, P-bar').
So gcd(P-bar, P-bar') = 1 forces deg_x h = 0, and then delta_red = P. Only
when no image certifies does the chain take the gcd over Z[l].

The primitive-part sign convention: the leading x-coefficient of the
primitive part has a positive leading integer coefficient in l; the content
absorbs the sign (so -4*(x^3 - l) has content -4 and primitive part
x^3 - l).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import unipoly
from .arith import primes_upto, is_prime
from .decompose import is_indecomposable_multi
from .fields import QQ, ZZ, prime_field
from .mpoly import MPoly
from .resultants import coeff_list, content, discriminant, primitive_gcd

# variable layout for chain polynomials: index 0 = x, index 1 = l
CHAIN_VARS = ("x", "l")

# the prime and the values of l tried, in order, by `_squarefree_certified`;
# l = 0 is left out: F = 0 has a singular point for many inputs (the cusp
# among them), and the image there then has a repeated root
CERT_PRIME = 2**31 - 1
CERT_POINTS = (1, 2, 3, 4)


def content_primitive(F: MPoly):
    """Content in Z[l] and primitive part of a nonzero element of Z[l][x].

    The primitive part's leading x-coefficient has a positive leading
    integer coefficient; content * primitive reconstructs the input.
    """
    if F.is_zero():
        raise ValueError("content of the zero polynomial")
    if F.dom.key() != ("zz",) or F.n != 2:
        raise ValueError("expected integer coefficients in (x, l)")
    cont = content(F, 0)
    if coeff_list(F, 0)[-1].leading()[1] < 0:
        cont = -cont
    return cont, F.exact_div(cont)


def _squarefree_certified(P: MPoly) -> bool:
    """True when an image of P proves gcd(P, P_x) = 1 in Z[l][x].

    The image at l = a is taken mod CERT_PRIME, for each a of CERT_POINTS
    where lc_x(P)(a) stays nonzero; it proves the gcd trivial when it is
    coprime to its derivative (see the module docstring). An x-free P is
    never certified. False proves nothing: the gcd may still be 1.
    """
    n = P.deg_in(0)
    if n < 1:
        return False
    p = CERT_PRIME
    dom = prime_field(p)
    for a in CERT_POINTS:
        img = [0] * (n + 1)
        for (i, j), c in P.terms.items():
            img[i] = (img[i] + c * pow(a, j, p)) % p
        if img[n] and unipoly.gcd(dom, img, unipoly.derivative(dom, img)) == [1]:
            return True
    return False


# --------------------------------------------------------------------------
# the chain
# --------------------------------------------------------------------------

@dataclass
class CriterionChain:
    poly: MPoly          # F in Z[x, y], monic in y
    delta_xl: MPoly      # disc_y(F - l) in Z[x, l]
    delta_red: MPoly     # primitive squarefree part, Z[x, l]
    delta_l: MPoly       # disc_x(delta_red) in Z[l] (vars (x, l), x-free)
    delta0: MPoly        # leading x-coefficient of delta_xl, in Z[l]

    @cached_property
    def criterion_product(self) -> MPoly:
        """delta0 * delta_l, which a good prime keeps nonzero."""
        return self.delta0 * self.delta_l

    def to_json_dict(self):
        return {
            "poly": self.poly.format(),
            "delta_x_lambda": self.delta_xl.format(CHAIN_VARS),
            "delta_red": self.delta_red.format(CHAIN_VARS),
            "delta_lambda": self.delta_l.format(CHAIN_VARS),
            "delta_0": self.delta0.format(CHAIN_VARS),
        }


def _is_monic_in_y(F: MPoly) -> bool:
    dy = F.deg_in(1)
    if dy < 1:
        return False
    lead = [(e, c) for (e, c) in F.terms.items() if e[1] == dy]
    return lead == [((0, dy), 1)]


def build_chain(F: MPoly) -> CriterionChain:
    """Build the discriminant chain for F in Z[x, y], monic in y.

    The rational-closure indecomposability hypothesis is screened by the
    exact decomposition test over Q; the first good prime up to 50 is also
    verified directly with the decomposition engine over F_p.
    """
    if F.dom.key() != ("zz",) or F.n != 2:
        raise ValueError("expected a polynomial with integer coefficients in (x, y)")
    if not _is_monic_in_y(F):
        raise ValueError("polynomial must be monic in y with deg_y >= 1")
    FQ = F.map_coeffs(Fraction, QQ)
    if not is_indecomposable_multi(FQ):
        raise ValueError("polynomial is decomposable over the rationals")
    # disc_y(F - l) in Z[x, y, l]
    F3 = F.lift_vars(3)
    lam = MPoly.variable(ZZ, 3, 2)
    delta3 = discriminant(F3 - lam, 1)
    if delta3.is_zero():
        raise ValueError("degenerate input: the discriminant chain vanishes")
    delta_xl = MPoly(ZZ, 2, {(e[0], e[2]): c for e, c in delta3.terms.items()})
    # gcd with the x-derivative in Z[l][x], taken before any reduction mod p
    # unless one image proves it is 1
    _, prim = content_primitive(delta_xl)
    if _squarefree_certified(prim):
        delta_red = prim
    else:
        quo = prim.exact_div(primitive_gcd(prim, delta_xl.derivative(0), 0))
        if quo is None:  # pragma: no cover - the gcd divides
            raise ArithmeticError("gcd does not divide")
        _, delta_red = content_primitive(quo)
        if primitive_gcd(delta_red, delta_red.derivative(0), 0).deg_in(0) > 0:  # pragma: no cover
            raise ArithmeticError("reduced part is not squarefree")
    if delta_red.deg_in(0) >= 1:
        delta_l = discriminant(delta_red, 0)
    else:
        delta_l = MPoly.const(ZZ, 2, 1)  # empty-product convention
    if delta_l.is_zero():
        raise ValueError("degenerate input: disc_x of the reduced part vanishes")
    delta0 = coeff_list(delta_xl, 0)[-1]
    chain = CriterionChain(F, delta_xl, delta_red, delta_l, delta0)
    p = next((p for p in primes_upto(50) if _keeps_criterion(chain, p)), None)
    if p is not None and not is_indecomposable_multi(F.reduce_mod(prime_field(p))):  # pragma: no cover
        raise ArithmeticError(f"criterion contradicted at p={p}")
    return chain


def _keeps_criterion(chain: CriterionChain, p: int) -> bool:
    """The criterion at a p already known to be prime."""
    if p <= chain.poly.deg_in(1):
        return False
    return any(c % p for c in chain.criterion_product.terms.values())


def criterion_holds(chain: CriterionChain, p: int) -> bool:
    """p > deg_y and delta0 * delta_l stays nonzero mod p: the reduction of
    the input mod p is then indecomposable over the closure of F_p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    return _keeps_criterion(chain, p)


def good_primes(chain: CriterionChain, bound: int) -> list[int]:
    """All primes up to the bound passing the criterion, ascending."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    return [p for p in primes_upto(bound) if _keeps_criterion(chain, p)]
