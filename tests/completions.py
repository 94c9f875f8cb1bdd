"""Exhaustive enumeration of polynomials by their coefficients: the
references that the decomposition engine, the census walk and the divisor
search are checked against.

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
