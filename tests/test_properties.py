"""Property tests (hypothesis) for bivariate factoring, field embeddings and
functional decomposition.

Examples are derandomized and bounded so the suite's running time stays
fixed; hypothesis is a test-only dependency and the module is skipped
without it.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from indecpoly.decompose import compose, decompose_multi, decompose_uni  # noqa: E402
from indecpoly.factoring import bivar_factor  # noqa: E402
from indecpoly.fields import embedding, finite_field, projection  # noqa: E402
from indecpoly.mpoly import MPoly, monomials_upto  # noqa: E402

FACTOR_FIELDS = [finite_field(2), finite_field(3), finite_field(2, 2), finite_field(5)]
DECOMPOSE_FIELDS = [finite_field(2), finite_field(3), finite_field(2, 2), finite_field(5)]
FIELD_PAIRS = [(2, 1, 2), (2, 1, 3), (2, 2, 4), (2, 2, 6), (2, 3, 6), (3, 1, 2),
               (3, 2, 4), (5, 1, 2), (7, 1, 2)]
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def bivariates(draw):
    F = draw(st.sampled_from(FACTOR_FIELDS))
    monos = monomials_upto(2, draw(st.integers(1, 3)))
    coeffs = draw(st.lists(st.integers(0, F.q - 1), min_size=len(monos), max_size=len(monos)))
    G = MPoly(F, 2, {e: F.element(c) for e, c in zip(monos, coeffs)})
    assume(not G.is_constant())  # also rules out zero
    return G


@st.composite
def field_pairs_with_elements(draw):
    p, k, K = draw(st.sampled_from(FIELD_PAIRS))
    src, dst = finite_field(p, k), finite_field(p, K)
    a, b = (src.element(draw(st.integers(0, src.q - 1))) for _ in range(2))
    return src, dst, a, b


@st.composite
def compositions(draw, nvars, inner_degrees, outer_degrees):
    """(u(H), deg u) for a random u with nonzero leading coefficient and a
    random nonconstant H in nvars variables.  Outer degrees divisible by the
    characteristic (the wild splits) are drawn as often as the others."""
    F = draw(st.sampled_from(DECOMPOSE_FIELDS))
    r = draw(st.sampled_from(outer_degrees))
    m = draw(st.sampled_from(inner_degrees))

    def coeff(nonzero=False):
        return F.element(draw(st.integers(1 if nonzero else 0, F.q - 1)))

    u = MPoly.from_dense(F, [coeff() for _ in range(r)] + [coeff(nonzero=True)], 1)
    monos = monomials_upto(nvars, m)
    H = MPoly(F, nvars, {e: coeff() for e in monos})
    assume(H.degree() == m)
    return compose(u, H), r


@SETTINGS
@given(compositions(2, (1, 2), (2, 3, 4, 5)))
def test_decompose_multi_recomposes_to_the_input(case):
    G, r = case
    dec = decompose_multi(G, r)
    assert dec is not None
    assert dec.outer.degree() == r
    assert dec.inner.constant_term() == G.dom.zero
    assert dec.inner.leading()[1] == G.dom.one
    assert dec.recompose() == G


@SETTINGS
@given(compositions(1, (2, 3), (2, 3, 4, 5)))
def test_decompose_uni_recomposes_to_the_input(case):
    g, r = case
    dec = decompose_uni(g, r)
    assert dec is not None
    assert dec.outer.degree() == r
    assert dec.inner.to_dense()[0] == g.dom.zero and dec.inner.to_dense()[-1] == g.dom.one
    assert dec.recompose() == g


@SETTINGS
@given(bivariates())
def test_bivar_factor_expands_back_and_engines_agree(G):
    search = bivar_factor(G, method="search")
    lift = bivar_factor(G, method="lift")
    assert search.expand() == G
    assert lift.expand() == G
    assert search.unit == lift.unit
    assert [(g.key(), m) for g, m in search.factors] == [(g.key(), m) for g, m in lift.factors]


@SETTINGS
@given(field_pairs_with_elements())
def test_embedding_preserves_add_and_mul(case):
    src, dst, a, b = case
    emb = embedding(src, dst)
    assert emb(src.add(a, b)) == dst.add(emb(a), emb(b))
    assert emb(src.mul(a, b)) == dst.mul(emb(a), emb(b))


@SETTINGS
@given(field_pairs_with_elements())
def test_projection_after_embedding_is_identity(case):
    src, dst, a, _ = case
    assert projection(src, dst)(embedding(src, dst)(a)) == a
