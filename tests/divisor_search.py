"""The exhaustive divisor search: the reference that bivar_factor is pinned
against.

It enumerates the monic candidates of total degree up to half the input, in
canonical graded-lex order, skipping every candidate whose leading form does
not divide the input's, and splits the input at the first divisor found
until every part is irreducible.  It shares no step with the lifting engine
except the final normalization: factors monic under graded-lex, sorted.
"""

from indecpoly.factoring import Factorization, _merge_factor_lists, _sorted_factors
from completions import iter_completions
from indecpoly.mpoly import MPoly, monomials_upto


def find_divisor(F: MPoly):
    """(g, F / g) for the smallest (canonical order) nonconstant proper monic
    divisor g of F, or None.

    Candidates of degree delta run by leading monomial descending, then by
    coefficient index with the highest monomial slowest, so the top-degree
    form T of a candidate varies slowest.  A divisor's T divides the leading
    form of F (total degree grades an integral domain), so every completion
    of any other T is skipped without changing the order of the rest."""
    field = F.dom
    top_F = F.leading_form()
    for delta in range(1, F.degree() // 2 + 1):
        monos = monomials_upto(2, delta)
        top, lower = monos[: delta + 1], monos[delta + 1 :]
        for lead_pos, lead in enumerate(top):
            for T in iter_completions(field, 2, {lead: field.one}, top[lead_pos + 1 :]):
                if top_F.exact_div(T) is None:
                    continue
                for cand in iter_completions(field, 2, T.terms, lower):
                    quo = F.exact_div(cand)
                    if quo is not None:
                        return cand, quo
    return None


def _split(F: MPoly):
    found = find_divisor(F)
    if found is None:
        return [(F.monic(), 1)]
    g, h = found
    return _merge_factor_lists(_split(g), _split(h))


def search_factor(F: MPoly) -> Factorization:
    """The complete factorization of a nonconstant bivariate F by divisor
    search, normalized as bivar_factor normalizes it."""
    return Factorization(F.dom, F.leading()[1], _sorted_factors(_split(F)))
