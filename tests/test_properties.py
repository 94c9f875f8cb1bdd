"""Property tests (hypothesis) for bivariate factoring, field embeddings,
functional decomposition, the degree and leading term that a polynomial
keeps once computed, and spectra of inputs singular at infinity.

Examples are derandomized and bounded so the suite's running time stays
fixed; hypothesis is a test-only dependency and the module is skipped
without it.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from indecpoly import spectrum, unipoly  # noqa: E402
from indecpoly.arith import divisors  # noqa: E402
from indecpoly.decompose import (_decompose_graded, _extract_outer,  # noqa: E402
                                 _exponents_admit, _inner_powers, compose, decompose_multi,
                                 decompose_uni_dense, is_indecomposable_multi,
                                 outer_degrees, poly_eth_root)
from indecpoly.fields import DEFAULT_GUARD  # noqa: E402
from indecpoly.factoring import bivar_factor  # noqa: E402
from indecpoly.fields import QQ, embedding, finite_field, projection  # noqa: E402
from indecpoly.mpoly import MPoly, glex_key, monomials_upto  # noqa: E402
from indecpoly.parsing import parse_poly  # noqa: E402

from divisor_search import search_factor  # noqa: E402

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


def _free_inner_count(F, r, s):
    """Inner coefficients of a one-variable split that the top of u(v) does
    not force: v_i is forced when p^a (s - i) < s, p^a the power of the
    characteristic in r."""
    pa = 1
    while r % (pa * F.p) == 0:
        pa *= F.p
    return s - 1 - (s - 1) // pa


# every (field, r, s) with r, s >= 2 and r s <= 30 whose free inner space
# stays small enough to enumerate quickly
UNI_FIELDS = [finite_field(2), finite_field(3), finite_field(2, 2), finite_field(5),
              finite_field(2, 3), finite_field(3, 2)]
UNI_SHAPES = [(F, r, s) for F in UNI_FIELDS for r in range(2, 16) for s in range(2, 30 // r + 1)
              if F.q ** _free_inner_count(F, r, s) <= 256]


@st.composite
def uni_pairs(draw, shapes=UNI_SHAPES):
    """(F, u, v): random u of degree r and normalized v of degree s, for a
    shape (F, r, s) drawn from `shapes`."""
    F, r, s = draw(st.sampled_from(shapes))
    digits = st.integers(0, F.q - 1)
    u = [F.element(draw(digits)) for _ in range(r)] + [F.element(draw(st.integers(1, F.q - 1)))]
    v = [F.zero] + [F.element(draw(digits)) for _ in range(s - 1)] + [F.one]
    return F, u, v


def _uni_pair(q, r, s):
    # a fixed draw of the given shape, so that the wild splits the property
    # must cover run whatever hypothesis generates
    F = next(F for F in UNI_FIELDS if F.q == q)
    u = [F.element((3 * i + 1) % q) for i in range(r)] + [F.one]
    v = [F.zero] + [F.element((5 * i + 2) % q) for i in range(1, s)] + [F.one]
    return F, u, v


@SETTINGS
@given(uni_pairs())
@example(_uni_pair(2, 4, 7))
@example(_uni_pair(2, 6, 5))
@example(_uni_pair(2, 12, 2))
@example(_uni_pair(3, 6, 5))
@example(_uni_pair(4, 2, 5))  # wild over extensions: the forced part takes
@example(_uni_pair(9, 3, 4))  # a p-th root that is not the identity
def test_decompose_uni_dense_finds_every_composition(case):
    F, u, v = case
    f = unipoly.compose(F, u, v)
    res = decompose_uni_dense(F, f, len(u) - 1)
    assert res is not None
    assert len(res[0]) == len(u) and res[1][0] == F.zero and res[1][-1] == F.one
    assert unipoly.compose(F, *res) == f


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


@st.composite
def screened_inputs(draw):
    """A random polynomial in 2 or 3 variables over F_2 ... F_5, or a random
    composition u(H), so that the screen meets tops with and without roots."""
    nvars = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        return draw(compositions(nvars, (1, 2), (2, 3)))[0]
    F = draw(st.sampled_from(DECOMPOSE_FIELDS))
    monos = monomials_upto(nvars, draw(st.sampled_from((2, 3, 4) if nvars == 2 else (2, 4))))
    coeffs = draw(st.lists(st.integers(0, F.q - 1), min_size=len(monos), max_size=len(monos)))
    G = MPoly(F, nvars, {e: F.element(c) for e, c in zip(monos, coeffs)})
    assume(G.degree() >= 2)
    return G


@SETTINGS
@given(screened_inputs())
def test_top_form_eth_root_screens_every_split(G):
    # the census skips a split whose monic top form has no e-th root, so that
    # must be a split without a decomposition; where it has one, the graded
    # engine must answer as decompose_multi does; and a decomposition's inner
    # top form is the root the screen took
    for e in divisors(G.degree()):
        if e < 2:
            continue
        root = poly_eth_root(G.leading_form().monic(), e)
        dec = decompose_multi(G, e)
        if root is None:
            assert dec is None
        else:
            assert _decompose_graded(G, e, DEFAULT_GUARD) == dec
        if dec is not None:
            assert dec.inner.leading_form() == root


@st.composite
def sparse_compositions(draw):
    """(u, H): a random u of degree 2 to 5 and a random sparse nonconstant H
    of degree 1 to 3 in two or three variables, over F_2, F_3, F_4, F_5, F_9
    or QQ, so that some variables are missing from H or of low degree."""
    F = draw(st.sampled_from(DECOMPOSE_FIELDS + [finite_field(3, 2), QQ]))
    nvars = draw(st.sampled_from((2, 3)))
    if F is QQ:
        coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:
        coeff = st.integers(0, F.q - 1).map(F.element)
    e = draw(st.integers(2, 5))
    u = MPoly.from_dense(F, draw(st.lists(coeff, min_size=e + 1, max_size=e + 1)), 1)
    monos = monomials_upto(nvars, draw(st.integers(1, 3 if nvars == 2 else 2)))
    H = MPoly(F, nvars, draw(st.dictionaries(st.sampled_from(monos), coeff, max_size=5)))
    assume(u.degree() == e and not H.is_constant())
    return u, H


@SETTINGS
@given(sparse_compositions())
def test_partial_degrees_of_a_composite_are_its_outer_degree_times_the_inner(case):
    # lc_v(H)^e != 0 over an integral domain, so deg_v u(H) = e deg_v H in
    # every variable v, the first rule of the exponent screen; its second,
    # p^a divides every exponent above degree d - m, is checked through the
    # helper
    u, H = case
    e = u.degree()
    G = compose(u, H)
    assert [G.deg_in(v) for v in range(G.n)] == [e * H.deg_in(v) for v in range(H.n)]
    assert _exponents_admit(G, e)


# one variable, wild and tame: shapes r s <= 16 whose every split has few
# enough free inner coefficients for the graded engine to enumerate quickly
ENTRY_FIELDS = [finite_field(2), finite_field(3), finite_field(2, 2), finite_field(2, 3),
                finite_field(3, 2)]
ENTRY_SHAPES = [(F, r, s) for F in ENTRY_FIELDS for r in range(2, 9) for s in range(2, 16 // r + 1)
                if all(F.q ** _free_inner_count(F, e, r * s // e) <= 256
                       for e in outer_degrees(1, r * s))]


@SETTINGS
@given(uni_pairs(ENTRY_SHAPES).map(lambda c: MPoly.from_dense(c[0], unipoly.compose(*c), 1)))
@example(parse_poly("x^9 + x^5 + x^4 + x^3 + 2*x^2 + 2", finite_field(3)))
@example(parse_poly("(t + 1)*x^12 + t*x^8 + (t + 1)*x^6 + (t^2 + t)*x^4 + (t + 1)*x^3"
                    " + x^2 + (t^2 + 1)*x + (t^2 + t)", finite_field(2, 3)))
def test_one_variable_entry_returns_the_graded_engines_pair(f):
    # the graded engine is the one-variable reference: where a split has
    # several normalized inners, the dense engine behind decompose_multi
    # must pick the same one
    for r in outer_degrees(1, f.degree()):
        graded = _decompose_graded(f, r, DEFAULT_GUARD)
        assert decompose_multi(f, r) == graded
        dense = decompose_uni_dense(f.dom, f.to_dense(), r)
        assert dense == (None if graded is None
                         else (graded.outer.to_dense(), graded.inner.to_dense()))


# the census classifies one polynomial per orbit {alpha F : alpha != 0}, so
# scaling by alpha must keep the verdict of every split and the inner found
ORBIT_FIELDS = [finite_field(3), finite_field(2, 2), finite_field(5), finite_field(7),
                finite_field(3, 2)]


@st.composite
def scaled_inputs(draw, nvars):
    """(F, G, alpha): a random G of exact degree >= 2 in nvars variables, or
    a random composition u(H), and a random alpha != 0."""
    F = draw(st.sampled_from(ORBIT_FIELDS))
    digits = st.integers(0, F.q - 1)
    nonzero = st.integers(1, F.q - 1)
    if draw(st.booleans()):
        d = draw(st.sampled_from({1: (4, 6, 8, 9), 2: (2, 3, 4), 3: (2, 3)}[nvars]))
        monos = monomials_upto(nvars, d)
        G = MPoly(F, nvars, {e: F.element(draw(digits)) for e in monos[1:]}
                  | {monos[0]: F.element(draw(nonzero))})
    else:
        r = draw(st.sampled_from((2, 3)))
        m = draw(st.sampled_from((2, 3) if nvars == 1 else (1, 2)))
        u = MPoly.from_dense(F, [F.element(draw(digits)) for _ in range(r)]
                             + [F.element(draw(nonzero))], 1)
        H = MPoly(F, nvars, {e: F.element(draw(digits)) for e in monomials_upto(nvars, m)})
        assume(H.degree() == m)
        G = compose(u, H)
    return F, G, F.element(draw(nonzero))


@SETTINGS
@given(scaled_inputs(1))
def test_scaling_keeps_every_one_variable_verdict(case):
    F, G, alpha = case
    f = G.to_dense()
    g = unipoly.scale(F, f, alpha)
    for r in outer_degrees(1, G.degree()):
        res, scaled = decompose_uni_dense(F, f, r), decompose_uni_dense(F, g, r)
        assert (res is None) == (scaled is None)
        if res is not None:
            assert scaled == (unipoly.scale(F, res[0], alpha), res[1])


@SETTINGS
@given(st.sampled_from((2, 3)).flatmap(scaled_inputs))
def test_scaling_keeps_every_split_verdict(case):
    F, G, alpha = case
    for e in outer_degrees(G.n, G.degree()):
        dec, scaled = decompose_multi(G, e), decompose_multi(G.scale(alpha), e)
        assert (dec is None) == (scaled is None)
        if dec is not None:
            assert scaled.inner == dec.inner
            assert scaled.outer == dec.outer.scale(alpha)


@st.composite
def shifted_inputs(draw):
    """(F, G, c): a G drawn as in scaled_inputs, in 1, 2 or 3 variables, and
    a random c, 0 included."""
    F, G, _ = draw(st.sampled_from((1, 2, 3)).flatmap(scaled_inputs))
    return F, G, F.element(draw(st.integers(0, F.q - 1)))


# in n >= 2 the census classifies one polynomial per run {F + c}, so adding
# a constant must keep the verdict of every split and the inner found
@SETTINGS
@given(shifted_inputs())
def test_constant_shift_keeps_every_split_verdict(case):
    F, G, c = case
    C = MPoly.const(F, G.n, c)
    for e in outer_degrees(G.n, G.degree()):
        dec, shifted = decompose_multi(G, e), decompose_multi(G + C, e)
        assert (dec is None) == (shifted is None)
        if dec is not None:
            assert shifted.inner == dec.inner
            assert shifted.outer == dec.outer + MPoly.const(F, 1, c)


@st.composite
def outer_inner_pairs(draw):
    """(F, u, H): u of degree 2..5 with any lower coefficients, zero among
    them, and a normalized H in two variables, sometimes a monomial."""
    F = draw(st.sampled_from(DECOMPOSE_FIELDS))
    e = draw(st.integers(2, 5))
    digits = st.integers(0, F.q - 1)
    u = [F.element(draw(digits)) for _ in range(e)] + [F.element(draw(st.integers(1, F.q - 1)))]
    m = draw(st.integers(1, 3 if e < 4 else 2))
    monos = [mono for mono in monomials_upto(2, m) if sum(mono)]
    if draw(st.booleans()):
        H = MPoly(F, 2, {draw(st.sampled_from(monos)): F.one})
    else:
        H = MPoly(F, 2, {mono: F.element(draw(digits)) for mono in monos})
        assume(not H.is_zero())
        H = H.monic()
    return F, u, H


@SETTINGS
@given(outer_inner_pairs())
@example((finite_field(2), [finite_field(2).zero] * 4 + [finite_field(2).one],
          MPoly(finite_field(2), 2, {(1, 1): 1})))
@example((finite_field(5), [finite_field(5).element(c) for c in (3, 0, 0, 0, 0, 2)],
          MPoly(finite_field(5), 2, {(2, 0): 1, (0, 1): 4})))
def test_extract_outer_recovers_every_outer_coefficient(case):
    F, u, H = case
    e = len(u) - 1
    G = compose(MPoly.from_dense(F, u, 1), H)
    assert _extract_outer(G, _inner_powers(H, e)) == u
    powers = [MPoly.const(F, 2, F.one)] + [H ** i for i in range(1, e + 1)]
    assert _extract_outer(G, powers) == u


MEMO_DOMAINS = [finite_field(2), finite_field(3), finite_field(2, 2), finite_field(5), QQ]


@st.composite
def memo_operands(draw):
    """(A, B, k, c): two polynomials in 1 to 3 variables over F_2 ... F_5 or
    QQ, either of them possibly zero, an exponent and a scalar."""
    dom = draw(st.sampled_from(MEMO_DOMAINS))
    nvars = draw(st.integers(1, 3))
    ints = st.integers(0, dom.q - 1) if dom.is_finite else st.integers(-3, 3)

    def poly():
        monos = draw(st.lists(st.sampled_from(monomials_upto(nvars, 3)), max_size=5))
        return MPoly(dom, nvars, {mono: draw(ints) for mono in monos})
    c = draw(ints)
    c = dom.element(c) if dom.is_finite else dom.from_int(c)
    return poly(), poly(), draw(st.integers(0, 3)), c


def _assert_fresh(P):
    assert all(c != P.dom.zero for c in P.terms.values())  # the constructor drops zeros
    # twice: the first call fills the memo, the second reads it
    for _ in range(2):
        assert P.degree() == max((sum(e) for e in P.terms), default=-1)
        if P.terms:
            lead = max(P.terms, key=glex_key)
            assert P.leading() == (lead, P.terms[lead])
        else:
            with pytest.raises(ValueError):
                P.leading()


@SETTINGS
@given(memo_operands())
def test_degree_and_leading_never_go_stale(case):
    A, B, k, c = case
    _assert_fresh(A)  # fill the operands' memos before any operation
    _assert_fresh(B)
    dom, n = A.dom, A.n
    first = next(iter(A.terms.values()), dom.zero)
    results = [A + B, A - B, A - A, A * B, A ** k, A.scale(c), A.derivative(0),
               A.homogeneous_part(k), A.subst_poly(0, B), A.scale(dom.zero),
               MPoly.from_dense(dom, [c, dom.zero, dom.one, dom.zero], n, n - 1),
               A.map_coeffs(lambda v: dom.sub(v, first), dom)]  # maps `first` to zero
    if dom.char:  # d/dx x^p = p x^(p-1) = 0
        results.append((MPoly.variable(dom, n, 0) ** dom.char).derivative(0))
    if not B.is_zero():
        results += [(A * B).exact_div(B), A.exact_div(B)]
    if not A.is_zero():
        results.append(A.leading_form())
    for P in results + [A, B]:
        if P is not None:
            _assert_fresh(P)


@SETTINGS
@given(compositions(1, (2, 3), (2, 3, 4, 5)))
def test_decompose_uni_recomposes_to_the_input(case):
    g, r = case
    dec = decompose_multi(g, r)
    assert dec is not None
    assert dec.outer.degree() == r
    assert dec.inner.to_dense()[0] == g.dom.zero and dec.inner.to_dense()[-1] == g.dom.one
    assert dec.recompose() == g


@SETTINGS
@given(bivariates())
def test_bivar_factor_expands_back_and_engines_agree(G):
    search = search_factor(G)
    lift = bivar_factor(G)
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


SPECTRUM_FIELDS = [finite_field(3), finite_field(2, 2), finite_field(5)]


@st.composite
def singular_at_infinity(draw):
    """(F, a, b, alpha, c): F of degree 3 or 4, indecomposable, with top form
    w^2 * r and F_(d-1) = w * s for a binary form w of degree 1 or 2, so its
    closure is singular at the zeros of w on z = 0, and spectral_values takes
    the path through the charts at infinity; a, b, c and alpha != 0 in F_q."""
    K = draw(st.sampled_from(SPECTRUM_FIELDS))
    d = draw(st.integers(3, 4))

    def element(nonzero=False):
        return K.element(draw(st.integers(1 if nonzero else 0, K.q - 1)))

    def form(k):
        return MPoly(K, 2, {(i, k - i): element() for i in range(k + 1)})

    w = form(draw(st.integers(1, d // 2)))
    low = MPoly(K, 2, {e: element() for e in monomials_upto(2, d - 2)})
    F = w * w * form(d - 2 * w.degree()) + w * form(d - 1 - w.degree()) + low
    assume(F.degree() == d and not spectrum._smooth_at_infinity(F))
    assume(is_indecomposable_multi(F) and spectrum._critical_candidates(F) is not None)
    assume(spectrum._infinity_candidates(F) is not None)
    return F, element(), element(), element(nonzero=True), element()


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(singular_at_infinity())
def test_spectrum_at_infinity_follows_translations_and_affine_maps(case):
    F, a, b, alpha, c = case
    K = F.dom
    base = spectrum.spectral_values(F)
    rep = base.to_json_dict()
    moved = spectrum.spectral_values(F.shift_var(0, a).shift_var(1, b)).to_json_dict()
    assert {**moved, "poly": rep["poly"]} == rep
    # the spectrum of alpha F + c is alpha S + c: lambda has the minimal
    # polynomial mu, alpha lambda + c the monic multiple of mu((T - c) / alpha)
    image = spectrum.spectral_values(F.scale(alpha) + MPoly.const(K, 2, c))
    inv = K.inv(alpha)
    step = [K.neg(K.mul(c, inv)), inv]
    assert (image.rho, image.spectrum_size()) == (rep["rho"], rep["spectrum_size"])
    assert sorted((tuple(o.min_poly.to_dense()), o.multiplicity) for o in image.orbits) == sorted(
        (tuple(unipoly.monic(K, unipoly.compose(K, o.min_poly.to_dense(), step))), o.multiplicity)
        for o in base.orbits)
