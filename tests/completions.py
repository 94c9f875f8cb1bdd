"""Exhaustive enumeration of polynomials by their coefficients: the
references that the decomposition engine, the census walk, its composition
image and the divisor search are checked against.

Both walks run in itertools.product order over the field's elements, the
last monomial fastest; they share no code with the package's own walker,
arith.digit_tuples.
"""

import itertools

from indecpoly.mpoly import MPoly, monomials_upto


def iter_completions(dom, n, fixed, monos):
    """Every polynomial with the terms `fixed` plus any coefficients on the
    monomials `monos` (none of them in `fixed`), in itertools.product order
    over dom.elements(): the last monomial varies fastest."""
    for coeffs in itertools.product(dom.elements(), repeat=len(monos)):
        terms = dict(fixed)
        terms.update(zip(monos, coeffs))
        yield MPoly(dom, n, terms)  # the constructor drops the zero coefficients


def iter_normalized_inner(field, n, m):
    """All normalized polynomials of exact degree m: monic leading term under
    graded-lex and zero constant term, in increasing order of their
    coefficient indices on the nonconstant monomials taken graded-lex
    descending."""
    monos = [e for e in monomials_upto(n, m) if sum(e) > 0]
    ntop = sum(1 for e in monos if sum(e) == m)
    for i in reversed(range(ntop)):
        yield from iter_completions(field, n, {monos[i]: field.one}, monos[i + 1 :])


def rebuilt_composites(H, e):
    """The terms of u(H + h) for u = t^e + u_(e-1) t^(e-1) + ... + u_1 t and
    h on the monomials of degree 1 .. deg H - 1, in the order of
    decompose.composites_from_top: h slower than u, each in itertools.product
    order.  Every power of every H + h is rebuilt by products."""
    dom = H.dom
    low = monomials_upto(H.n, H.degree() - 1)[:-1]  # the constant comes last
    for inner in iter_completions(dom, H.n, H.terms, low):
        powers = [MPoly.const(dom, H.n, dom.one), inner]
        for _ in range(e - 1):
            powers.append(powers[-1] * inner)
        for outer in itertools.product(dom.elements(), repeat=e - 1):  # u_(e-1), ..., u_1
            F = powers[e]
            for ui, P in zip(outer, reversed(powers[1:e])):
                F = F + P.scale(ui)
            yield F.terms
