"""Functional decomposition F = u(H) and its normalized form.

A normalized inner polynomial is monic under graded-lex and has zero
constant term; composing with the affine adjustment of the outer polynomial
turns any decomposition into a normalized one with the same composite.

The decomposability convention depends on arity, and outer_degrees alone
applies it, so decompose_multi and is_indecomposable_multi serve every arity:

* n >= 2 variables: any outer degree >= 2 counts, inner degree 1 allowed;
* one variable: both the outer and the inner degree must be >= 2.

In several variables decompose_multi hands F to the graded engine
_decompose_graded, in one variable its dense coefficient list to
decompose_uni_dense.  The graded engine takes one variable too, and both
return the same canonical inner: among the inner polynomials of a split,
the first in itertools.product order over the free coefficients, the
highest-degree one varying slowest.

One rule for every split, in both arities: with outer degree e = p^a e'
(p the characteristic, p not dividing e'; p^a = 1 over the rationals) and
inner degree m = d/e, a split is rejected first by the exponents of the
input (_exponents_admit): e divides every deg_v u(H) = e deg_v H, and p^a
every exponent above degree d - m, where u(H) agrees with u_e (H^(p^a))^e'
(in one variable _forced_inner_top checks this).  Then the top of the input
forces the inner coefficients of degree k with p^a (m - k) < m, as the p^a-th
root of an e'-th root taken one term at a time (over homogeneous components
in _decompose_graded, as a series at infinity in _forced_inner_top), or
rejects the input.  The others are free: the guard bounds q^(free count)
before they are enumerated, and there are none when the split is tame.  The
outer polynomial is peeled off from the top degree down, u_i H^i subtracted
in place from a copy of the input (by repeated division in one variable), so
a returned pair recomposes to the input by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import unipoly
from .arith import digit_tuples, divisors, integer_nth_root, power_over
from .fields import DEFAULT_GUARD, GuardExceeded
from .mpoly import MPoly, glex_key, monomials_upto


@dataclass
class Decomposition:
    """outer(inner) = source; inner is normalized (monic, zero constant)."""

    outer: MPoly  # univariate
    inner: MPoly

    def recompose(self) -> MPoly:
        return compose(self.outer, self.inner)

    def check(self, source: MPoly):
        if self.outer.degree() < 2:
            raise ValueError("outer degree must be at least 2")
        if self.inner.is_constant():
            raise ValueError("inner polynomial must be nonconstant")
        if self.recompose() != source:
            raise ValueError("decomposition does not recompose to the source")


def compose(u: MPoly, H: MPoly) -> MPoly:
    """u(H) for univariate u."""
    if u.n != 1:
        raise ValueError("outer polynomial must be univariate")
    return u.lift_vars(H.n).subst_poly(0, H)


def normalize(u: MPoly, H: MPoly) -> Decomposition:
    """The normalized decomposition with the same composite as u(H)."""
    if u.n != 1 or u.degree() < 2:
        raise ValueError("outer polynomial must be univariate of degree >= 2")
    if H.is_constant() or H.is_zero():
        raise ValueError("inner polynomial must be nonconstant")
    dom = H.dom
    a = H.leading()[1]
    b = H.constant_term()
    H2 = (H - MPoly.const(dom, H.n, b)).scale(dom.inv(a))
    # u2(t) = u(a t + b)
    t = MPoly.variable(dom, 1, 0)
    affine = t.scale(a) + MPoly.const(dom, 1, b)
    u2 = compose(u, affine)
    return Decomposition(u2, H2)


# --------------------------------------------------------------------------
# e-th roots of polynomials over perfect fields (and over the rationals)
# --------------------------------------------------------------------------

def _coeff_eth_root(dom, c, e):
    """Any z with z^e = c, or None. Over F_q the smallest root of z^e - c;
    over the rationals via integer root extraction."""
    if c == dom.one:
        return dom.one
    if dom.is_finite:
        f = [dom.neg(c)] + [dom.zero] * (e - 1) + [dom.one]
        roots = unipoly.roots(dom, f)
        return roots[0] if roots else None
    frac = Fraction(c)
    num = integer_nth_root(abs(frac.numerator), e)
    den = integer_nth_root(frac.denominator, e)
    if num is None or den is None:
        return None
    if frac < 0:
        if e % 2 == 0:
            return None
        num = -num
    return Fraction(num, den)


def poly_eth_root(G: MPoly, e: int):
    """The monic-normalized e-th root of G, or None when no root exists."""
    if e == 1:
        return G
    if G.is_zero():
        return G
    dom = G.dom
    p = dom.char
    while p and e % p == 0:
        G = G.pth_root()
        if G is None:
            return None
        e //= p
    if e == 1:
        return G
    lead_e, lead_c = G.leading()
    if any(k % e for k in lead_e):
        return None
    z = _coeff_eth_root(dom, lead_c, e)
    if z is None:
        return None
    return _extend_root(G, e, MPoly(dom, G.n, {tuple(k // e for k in lead_e): z}), -1)


def _extend_root(G: MPoly, e: int, R: MPoly, floor: int):
    """Extend R term by term while G - R^e has total degree above `floor`
    (-1: until it is zero), for e invertible in the field; None when a step
    fails.

    Each new term is the leading term of G - R^e divided by e lead(R)^(e-1),
    the leading term of what it adds to R^e, and must be a monomial strictly
    below every term of R.  Glex is a well-order, so the loop stops.  The
    powers R^0, ..., R^(e-1) and R^e - G are kept as dicts and moved to R + t
    per added term t by _add_to_powers, so no power of R is taken again."""
    dom = G.dom
    root_lead, z = R.leading()
    # the new coefficient is -(R^e - G)[lead] / (e z^(e-1))
    ez_inv = dom.neg(dom.inv(dom.mul(dom.from_int(e), dom.pow(z, e - 1))))
    last_key = min(map(glex_key, R.terms))
    powers = _inner_powers(R, e)
    pw = [dict(P.terms) for P in powers[:e]] + [dict((powers[e] - G).terms)]
    binom = [[dom.from_int(comb(k, i)) for i in range(k + 1)] for k in range(e + 1)]
    root = dict(R.terms)
    while pw[e] and sum(re := max(pw[e], key=glex_key)) > floor:
        te = tuple(a - (e - 1) * b for a, b in zip(re, root_lead))
        key = glex_key(te)
        if any(k < 0 for k in te) or key >= last_key:
            return None
        last_key = key
        root[te] = dom.mul(pw[e][re], ez_inv)
        _add_to_powers(dom, pw, binom, te, root[te])
    return MPoly(dom, G.n, root)


def _add_to_powers(dom, pw: list, binom: list, mono: tuple, c) -> None:
    """Turn the dicts pw = [P^0, ..., P^K] into those of P + t, t = c x^mono,
    in place, by (P + t)^k = sum_i C(k, i) P^(k-i) t^i, binom[k][i] = C(k, i)
    in the field.  The highest k goes first, so each power reads only lower,
    older ones, and the top dict may carry an extra summand: it rides along."""
    zero, add, mul = dom.zero, dom.add, dom.mul
    for k in range(len(pw) - 1, 0, -1):
        target, ci = pw[k], dom.one
        for i in range(1, k + 1):
            ci = mul(ci, c)
            bt = mul(binom[k][i], ci)
            if bt == zero:
                continue
            shift = tuple(i * a for a in mono)
            for m, v in pw[k - i].items():
                m = tuple(map(int.__add__, m, shift))
                s = add(target.get(m, zero), mul(v, bt))
                if s == zero:
                    del target[m]
                else:
                    target[m] = s


# --------------------------------------------------------------------------
# multivariate decomposition (n >= 2; also valid over the rationals)
# --------------------------------------------------------------------------

def _inner_powers(H: MPoly, e: int) -> list:
    """[1, H, ..., H^e], with no product by the constant 1."""
    powers = [MPoly.const(H.dom, H.n, H.dom.one), H]
    for _ in range(e - 1):
        powers.append(powers[-1] * H)
    return powers


def _extract_outer(F: MPoly, powers: list):
    """Outer coefficient list with F = sum u_i H^i and deg u = e, or None,
    for powers = _inner_powers(H, e).

    One copy of the terms of F is peeled in place; no polynomial is built.
    At the top degree k = i deg(H) of the rest, u_i is read at i lead(H), the
    leading term of H^i, and u_i H^i is subtracted term by term, which cancels
    that term.  A monomial above i lead(H) of degree k is no term of H^i and
    stays, so the next step sees degree k again, finds no term at i lead(H)
    and returns None, as a graded-lex leading-term check would."""
    dom = F.dom
    zero, sub, mul = dom.zero, dom.sub, dom.mul
    e, H = len(powers) - 1, powers[1]
    m = H.degree()
    u = [zero] * (e + 1)
    lead_H = H.leading()[0]
    r = dict(F.terms)
    while r:
        i, rest = divmod(max(map(sum, r)), m)
        top = tuple(i * a for a in lead_H)
        if rest or i > e or top not in r:
            return None
        ui = u[i] = dom.div(r[top], powers[i].terms[top])
        for mono, c in powers[i].terms.items():
            s = sub(r.get(mono, zero), mul(c, ui))
            if s == zero:
                del r[mono]
            else:
                r[mono] = s
    return None if u[e] == zero else u


def _p_part(p: int, e: int) -> int:
    """p^a, the largest power of the characteristic p dividing e; 1 when p = 0."""
    return p * _p_part(p, e // p) if p and e % p == 0 else 1


def _exponents_admit(F: MPoly, e: int) -> bool:
    """Whether the exponents of F admit F = u(H) with deg u = e: e divides
    every deg_v F = e deg_v H (lc_v(H)^e != 0 over a domain), and with
    e = p^a e' and m = deg F / e, p^a divides every exponent of each term of
    degree above deg F - m, where F agrees with u_e H^e = u_e (H^(p^a))^e', a
    polynomial in the p^a-th powers of the variables (vacuous if p^a = 1)."""
    if any(max(exps) % e for exps in zip(*F.terms)):
        return False
    pa, low = _p_part(F.dom.char, e), F.degree() - F.degree() // e
    return pa == 1 or not any(a % pa for k in F.terms if sum(k) > low for a in k)


def decompose_multi(F: MPoly, e: int, guard=DEFAULT_GUARD):
    """The normalized decomposition of F with outer degree e, or None, in any
    number of variables; ValueError unless e is in outer_degrees(F.n, deg F).
    In several variables _decompose_graded answers; in one variable
    decompose_uni_dense does, and its pair is checked to recompose to F."""
    if F.is_zero() or F.is_constant():
        raise ValueError("cannot decompose a constant")
    d = F.degree()
    if e < 2 or d % e or (F.n == 1 and e == d):  # e not in outer_degrees(F.n, d)
        raise ValueError(f"outer degree {e} must be >= 2 and divide {d}" if F.n >= 2
                         else f"invalid degree split: need e >= 2 and {d}/e >= 2")
    if F.n >= 2:
        return _decompose_graded(F, e, guard)
    res = decompose_uni_dense(F.dom, F.to_dense(), e, guard)
    if res is None:
        return None
    u, v = res
    dec = Decomposition(MPoly.from_dense(F.dom, u, 1), MPoly.from_dense(F.dom, v, 1))
    dec.check(F)
    return dec


def _decompose_graded(F: MPoly, e: int, guard):
    """The normalized decomposition of F with outer degree e, or None, for a
    nonconstant F in any number of variables and e >= 2 dividing deg F.

    A split that fails _exponents_admit(F, e) is answered None first.  Every
    decomposition F = u(H) makes the top form of F equal lc(F) H_m^e, H_m
    the monic top form of H, so a monic top form without an e-th root is
    answered None next.  Both come before the guard and any candidate or
    peel: no root means None, never GuardExceeded.  Above degree d - m,
    F/lc(F) equals (H^(p^a))^e'.  So extend H_m^(p^a) to the e'-th root of
    F/lc(F) down to that degree: its p^a-th root is the sum of the forced
    components H_k, p^a (m - k) < m; when p^a >= m the top form is the only
    one.  The coefficients on the free monomials go in itertools.product
    order over the field's elements (arith.digit_tuples), the last monomial
    fastest; the first inner polynomial with an outer one (_extract_outer)
    wins.
    """
    if not _exponents_admit(F, e):
        return None
    H = poly_eth_root(F.leading_form().monic(), e)
    if H is None:
        return None
    d = F.degree()
    dom = F.dom
    m = d // e
    pa = _p_part(dom.char, e)
    K = m - -(-m // pa)  # a free degree k >= 1 has p^a (m - k) >= m, so k <= K
    nfree = comb(K + F.n, F.n) - 1
    if nfree and (size := power_over(dom.q, nfree, guard)):
        raise GuardExceeded(f"inner enumeration of {nfree} free monomials, size {size}, "
                            f"exceeds guard {guard}")
    free = monomials_upto(F.n, K)[:-1]  # the constant comes last
    if pa < m:  # otherwise the top form is the only forced component
        R = _extend_root(F.monic(), e // pa, H ** pa, d - m)
        H = None if R is None else poly_eth_root(R, pa)
        if H is None:
            return None
    # the candidates have the digit tuples on the free monomials, the last
    # fastest; each element is its own index, and over the rationals none is free
    for digits in digit_tuples(dom.q, nfree) if nfree else [()]:
        pows = _inner_powers(MPoly(dom, F.n, {**H.terms, **dict(zip(free, digits))}), e)
        u = _extract_outer(F, pows)
        if u is not None:
            return Decomposition(MPoly.from_dense(dom, u, 1), pows[1])
    return None


def composites_from_top(powers: list):
    """The terms {monomial: nonzero coefficient} of u(H + h) for every
    u = t^e + u_(e-1) t^(e-1) + ... + u_1 t and every h on the monomials of
    degree 1 .. m - 1, m = deg H, for powers = _inner_powers(H, e):
    q^(e - 1 + #h) composites.  For H a monic form, these are the F with top
    form H^e and F(0) = 0 that decompose at e: a normalized F = u(H') has the
    top form lc(u) top(H')^e, and the monic e-th root of a monic form is
    unique, so lc(u) = 1, top(H') = H and u(0) = 0.  A tame split yields
    each once; a wild one may yield one twice (over F_2, (t^2 + t)(x^2) =
    t^2(x^2 + x)).  h and u go in digit_tuples order.  Nothing is
    multiplied: each digit of h that moves moves copies of the powers
    [1, H + h, ..., (H + h)^e] with it, in place (_add_to_powers)."""
    e, H = len(powers) - 1, powers[1]
    dom = H.dom
    zero, add, mul = dom.zero, dom.add, dom.mul
    low = monomials_upto(H.n, H.degree() - 1)[:-1]  # the constant comes last
    pw = [dict(P.terms) for P in powers]
    binom = [[dom.from_int(comb(k, i)) for i in range(k + 1)] for k in range(e + 1)]
    prev = (zero,) * len(low)
    for digits in digit_tuples(dom.q, len(low)):
        for mono, new, old in zip(low, digits, prev):  # H + h moves to its next h
            if new != old:
                _add_to_powers(dom, pw, binom, mono, dom.sub(new, old))
        prev = digits
        lower = pw[e - 1:0:-1]  # (H + h)^(e-1), ..., H + h
        for outer in digit_tuples(dom.q, e - 1):  # u_(e-1), ..., u_1
            terms = dict(pw[e])
            for ui, P in zip(outer, lower):
                if ui != zero:
                    for mono, c in P.items():
                        s = add(terms.get(mono, zero), mul(ui, c))
                        if s == zero:
                            del terms[mono]
                        else:
                            terms[mono] = s
            yield terms


def outer_degrees(n: int, d: int) -> list:
    """The outer degrees e of the splits of a degree-d polynomial in n
    variables: e >= 2 divides d, and in one variable d/e >= 2 as well."""
    return [e for e in divisors(d) if e >= 2 and (n >= 2 or d // e >= 2)]


def is_indecomposable_multi(F: MPoly, guard=DEFAULT_GUARD) -> bool:
    """No decomposition u(H) with deg u in outer_degrees, in any number of
    variables: inner degree 1 counts in several variables, not in one."""
    if F.is_zero() or F.is_constant():
        raise ValueError("indecomposability is undefined for constants")
    return all(decompose_multi(F, e, guard) is None for e in outer_degrees(F.n, F.degree()))


# --------------------------------------------------------------------------
# one variable (inner degree must be >= 2 too)
# --------------------------------------------------------------------------

def _forced_inner_top(dom, f, s, a, e):
    """The forced coefficients [v_(s-k) .. v_(s-1)], k = (s-1)//pa, of a
    normalized inner v of degree s with f = u(v) and deg u = pa*e, or None
    when no such v exists.  f is monic, pa = p^a is the power of the
    characteristic p in the outer degree (a = 0 when the split is tame) and e
    is invertible in the field.

    With t = 1/x the top of f reads F(t) = sum f_(d-j) t^j and agrees with
    (v^pa)^e below t^s, so its e-th root W = 1 + U is the series of v^pa
    there: U_j is v_(s-j/pa)^pa when pa | j and zero otherwise.  When the
    split is tame, f = w(v + c) for an outer w without an x^(e-1) term, so
    F agrees below t^(2s) with the e-th power of the series of v + c, which
    stops at t^s: U_j must vanish for s < j < 2s.  The root is taken one
    coefficient at a time from a table of [t^j] U^k:
    U_j = (F_j - sum_(k>=2) C(e, k) [t^j] U^k) / e, which divides by e only.
    The constants of the split, p^a, the series length, C(e, k) and 1/e,
    come from _root_constants; only U and its powers are built per f.
    """
    d = len(f) - 1
    pa, n, binom, e_inv = _root_constants(dom, s, a, e)
    zero, add, sub, mul = dom.zero, dom.add, dom.sub, dom.mul
    U = [zero] * n
    powers = [None, U] + [[zero] * n for _ in binom[2:]]  # powers[k][j] = [t^j] U^k
    for j in range(1, n):
        acc = f[d - j]
        prev = U
        for k in range(2, min(e, j) + 1):
            row = powers[k]
            c = zero
            for i in range(1, j - k + 2):
                if U[i] != zero:
                    c = add(c, mul(U[i], prev[j - i]))
            if c != zero:
                row[j] = c
                acc = sub(acc, mul(binom[k], c))
            prev = row
        if acc != zero:
            if j % pa or j > s:
                return None
            U[j] = mul(acc, e_inv)
    top = []
    for i in range((s - 1) // pa, 0, -1):
        c = U[i * pa]
        for _ in range(a):
            c = dom.pth_root(c)
        top.append(c)
    return top


@functools.lru_cache(maxsize=None)
def _root_constants(dom, s, a, e):
    """(p^a, n, (C(e, 0), ..., C(e, min(e, n - 1))), 1/e) in dom for
    _forced_inner_top at inner degree s: a series of n = 2s terms when the
    split is tame, s when it is wild; fixed per field and split."""
    pa = dom.char ** a
    n = 2 * s if pa == 1 else s
    binom = tuple(dom.from_int(comb(e, k)) for k in range(min(e, n - 1) + 1))
    return pa, n, binom, dom.inv(dom.from_int(e))


def _extract_outer_dense(dom, f, v, r):
    """Coefficients [c_0..c_r] with f = sum c_i v^i, all constants, or None."""
    out = []
    cur = list(f)
    for _ in range(r + 1):
        cur, rem = unipoly.divmod_poly(dom, cur, v)
        if unipoly.degree(rem) > 0:
            return None
        out.append(rem[0] if rem else dom.zero)
        if not cur:
            break
    if cur:
        return None
    out += [dom.zero] * (r + 1 - len(out))
    if out[r] == dom.zero:
        return None
    return out


def decompose_uni_dense(dom, f, r, guard=DEFAULT_GUARD):
    """(outer coeffs, normalized inner coeffs) with outer degree r, or None.

    With r = p^a e, p the characteristic and p not dividing e, the top of f
    forces the inner coefficients v_i with p^a (s - i) < s or rejects f
    (_forced_inner_top); the other s - 1 - (s-1)//p^a are free, none when
    the split is tame.  The guard bounds q^(free count), before any work.
    Free completions go in itertools.product order with the highest free
    coefficient slowest, the order of _decompose_graded, and the first that
    passes the exact check by repeated division (_extract_outer_dense) wins."""
    d = unipoly.degree(f)
    s = d // r
    p = dom.char
    a, e = 0, r
    while p and e % p == 0:
        a, e = a + 1, e // p
    nfree = s - 1 - (s - 1) // p ** a
    if nfree and (size := power_over(dom.q, nfree, guard)):
        raise GuardExceeded(
            f"inner enumeration of {nfree} free coefficients, size {size}, exceeds guard {guard}"
        )
    fm = f if f[-1] == dom.one else unipoly.monic(dom, f)
    top = _forced_inner_top(dom, fm, s, a, e)
    if top is None:
        return None
    for low in digit_tuples(dom.q, nfree) if nfree else [()]:
        v = [dom.zero, *reversed(low), *top, dom.one]
        u = _extract_outer_dense(dom, fm, v, r)
        if u is not None:
            return unipoly.scale(dom, u, f[-1]), v
    return None


# --------------------------------------------------------------------------
# p-th powers and Dickson polynomials
# --------------------------------------------------------------------------

def is_pth_power(F: MPoly):
    """The p-th root of F over F_q when every exponent is a multiple of the
    characteristic (the coefficients follow since the field is perfect);
    None otherwise."""
    if not F.dom.is_finite:
        raise ValueError("p-th power detection needs a finite field")
    return F.pth_root()


def dickson(field, m: int, a) -> MPoly:
    """Dickson polynomial D_m(x, a): D_0 = 2, D_1 = x,
    D_{m+1} = x D_m - a D_{m-1}."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    two = field.add(field.one, field.one)
    prev = [two]
    cur = [field.zero, field.one]
    if m == 0:
        return MPoly.from_dense(field, prev, 1)
    for _ in range(m - 1):
        nxt = unipoly.sub(
            field,
            unipoly.mul(field, [field.zero, field.one], cur),
            unipoly.scale(field, prev, a),
        )
        prev, cur = cur, nxt
    return MPoly.from_dense(field, cur, 1)
