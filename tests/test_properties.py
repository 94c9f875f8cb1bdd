"""Property tests (hypothesis) for bivariate factoring and field embeddings.

Examples are derandomized and bounded so the suite's running time stays
fixed; hypothesis is a test-only dependency and the module is skipped
without it.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from indecpoly.factoring import bivar_factor  # noqa: E402
from indecpoly.fields import embedding, finite_field, projection  # noqa: E402
from indecpoly.mpoly import MPoly, monomials_upto  # noqa: E402

FACTOR_FIELDS = [finite_field(2), finite_field(3), finite_field(2, 2), finite_field(5)]
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
