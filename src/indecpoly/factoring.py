"""Polynomial factorization and irreducibility over finite fields.

Univariate factorization is Cantor-Zassenhaus: the squarefree split with
p-th root peeling, then unipoly's distinct-degree pieces and its
deterministic-seeded equal-degree split, so identical inputs always produce
identical outputs.

Bivariate factorization is by lifting, the only engine: make the input monic
in y by a shear, factor a squarefree specialization, lift the factors
x-adically past the total degree one x-coefficient at a time, and recombine
subsets by trial division.  Shears are tried lazily, and the first one with
a squarefree fibre is used.  When no shear has one (a field too small for
the degree), the input is factored over F_{q^2} and the factors descend as
Frobenius orbit products; the descent goes on, within the guard, until a
field is large enough.  Factors are monic under graded-lex and sorted; the
test suite pins them against an exhaustive divisor search.

Absolute irreducibility and the count of irreducible factors over the
algebraic closure reduce to conjugate-orbit sizes: an irreducible polynomial
over F_q splits over the closure into r conjugate factors of equal degree,
and r divides deg and the degree of every smooth point.  A screen takes the
gcd of the point degrees on a few squarefree fibres, at any q, read off the
degrees of their distinct-degree pieces; the exact phase splits over F_{q^l}
only for the primes l of gcd(evidence, deg).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import gcd

from . import unipoly
from .arith import factorint, power_over
from .fields import DEFAULT_GUARD, GuardExceeded, embedding, finite_field, projection
from .mpoly import MPoly
from .resultants import coeff_table, content, primitive_gcd


# --------------------------------------------------------------------------
# univariate factorization (dense coefficient lists)
# --------------------------------------------------------------------------

def uni_sqfree(field, f):
    """Squarefree decomposition [(g_i, m_i)] of a monic f, p-th powers peeled."""
    out = []
    if unipoly.degree(f) < 1:
        return out
    fp = unipoly.derivative(field, f)
    if not fp:
        # f = h(x^p); over a perfect field h's coefficient roots give f = r^p
        root = [field.pth_root(c) for c in f[::field.p]]
        for g, m in uni_sqfree(field, root):
            out.append((g, m * field.p))
        return out
    g = unipoly.gcd(field, f, fp)
    w = unipoly.divmod_poly(field, f, g)[0]
    i = 1
    while unipoly.degree(w) > 0:
        y = unipoly.gcd(field, w, g)
        z = unipoly.divmod_poly(field, w, y)[0]
        if unipoly.degree(z) > 0:
            out.append((z, i))
        w = y
        g = unipoly.divmod_poly(field, g, y)[0]
        i += 1
    if unipoly.degree(g) > 0:
        for h, m in uni_sqfree(field, g):
            out.append((h, m))
    return out


def uni_factor(field, f):
    """(unit, [(monic factor, multiplicity)]) with a canonical sorted order."""
    f = unipoly.normalize(field, list(f))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    unit = f[-1]
    fm = unipoly.monic(field, f)
    factors = [(tuple(piece), m) for g, m in uni_sqfree(field, fm)
               for h, d in unipoly.distinct_degree(field, g)
               for piece in unipoly.equal_degree_split(field, h, d)]
    return unit, sorted(factors, key=lambda t: (len(t[0]), t[0]))


def squarefree_part(field, f):
    """Product of the distinct monic irreducible factors of f (dense form)."""
    f = unipoly.normalize(field, list(f))
    if unipoly.degree(f) < 1:
        raise ValueError("squarefree part needs a nonconstant polynomial")
    out = [field.one]
    for g, _m in uni_sqfree(field, unipoly.monic(field, f)):
        out = unipoly.mul(field, out, g)
    return out


def frobenius_orbit(x, step):
    """[x, step(x), step(step(x)), ...] up to the first repeat of x."""
    orbit = [x]
    cur = step(x)
    while cur != x:
        orbit.append(cur)
        cur = step(cur)
    return orbit


def minimal_polynomial(a, big, sub):
    """Minimal polynomial over `sub` of an element of `big`, as a dense list
    of `sub` elements (sub embedded in big along the canonical embedding)."""
    poly = [big.one]
    for r in frobenius_orbit(a, lambda b: big.pow(b, sub.q)):
        poly = unipoly.mul(big, poly, [big.neg(r), big.one])
    out = list(map(projection(sub, big), poly))
    if None in out:  # pragma: no cover - orbit products are sub-rational
        raise ArithmeticError("minimal polynomial coefficient outside subfield")
    return out


# --------------------------------------------------------------------------
# bivariate factorization
# --------------------------------------------------------------------------

@dataclass
class Factorization:
    """unit * prod(factor^multiplicity); factors monic, canonically sorted."""

    dom: object
    unit: object
    factors: list

    def expand(self) -> MPoly:
        n = self.factors[0][0].n if self.factors else 2
        acc = MPoly.const(self.dom, n, self.unit)
        for g, m in self.factors:
            acc = acc * g ** m
        return acc

    def total_multiplicity(self):
        return sum(m for _, m in self.factors)


def _sorted_factors(factors):
    def keyfn(item):
        g, m = item
        return (g.degree(), len(g.terms), sorted(g.terms.items()), m)

    return sorted(factors, key=keyfn)


def _merge_factor_lists(a, b):
    out = {}
    order = []
    for g, m in list(a) + list(b):
        k = g.key()
        if k not in out:
            order.append(k)
            out[k] = [g, 0]
        out[k][1] += m
    return [(out[k][0], out[k][1]) for k in order]


# -- helpers between MPoly and x-major dense form ---------------------------

def _from_xy(field, cols):
    return MPoly(field, 2, {(i, j): c for i, col in enumerate(cols) for j, c in enumerate(col)})


def _xy_mul(field, A, B, K):
    """Product of x-major y-dense polys, x-truncated below x^K."""
    out = [[] for _ in range(min(K, len(A) + len(B) - 1))]
    for i, a in enumerate(A[:K]):
        for j, b in enumerate(B[: K - i]):
            out[i + j] = unipoly.add(field, out[i + j], unipoly.mul(field, a, b))
    return out


# -- the lifting engine ------------------------------------------------------

def _shear_options(field, F: MPoly):
    """Yield the (transposed, shear constant) pairs making the y^D coefficient
    nonzero, D the total degree, lazily in the order the lift tries them."""
    top = F.leading_form()
    for transposed in (False, True):
        T = top.swap_vars(0, 1) if transposed else top
        for c in range(field.q):
            # coefficient of y^D after x -> x + c*y is top(c, 1)
            if T.evaluate([c, field.one]) != field.zero:
                yield transposed, c


def _lift_pair(field, T, g0, h0, K):
    """Hensel-lift T = G*H from (g0, h0) at x=0 to precision x^K.

    T: x-major y-dense, monic in y; g0, h0: coprime monic y-univariate with
    T_0 = g0*h0.  Returns (G, H) with T = G*H mod x^K, G monic of deg g0.
    Comparing x^m coefficients, e = T_m - sum_{0<i<m} G_i*H_{m-i} must equal
    G_m*h0 + H_m*g0, so with A*g0 + B*h0 = 1 the new coefficients are
    G_m = B*e mod g0 and H_m = (e - G_m*h0)/g0.
    """
    one, A, B = unipoly.xgcd(field, g0, h0)
    assert unipoly.degree(one) == 0
    G, H = [g0], [h0]
    for m in range(1, K):
        e = T[m] if m < len(T) else []
        for i in range(1, m):
            e = unipoly.sub(field, e, unipoly.mul(field, G[i], H[m - i]))
        u = unipoly.mod(field, unipoly.mul(field, B, e), g0)
        v, rem = unipoly.divmod_poly(field, unipoly.sub(field, e, unipoly.mul(field, u, h0)), g0)
        assert not rem
        G.append(u)
        H.append(v)
    return G, H


def _multilift(field, T, locals_, K):
    if len(locals_) == 1:
        return [T[:K]]
    g0 = locals_[0]
    h0 = [field.one]
    for g in locals_[1:]:
        h0 = unipoly.mul(field, h0, g)
    G, H = _lift_pair(field, T, g0, h0, K)
    return [G] + _multilift(field, H, locals_[1:], K)


def _squarefree_fibres(field, cols, count):
    """(x0, fibre) for each element x0 < min(q, count) at which the fibre
    y -> F(x0, y) of the x-major columns is nonconstant and squarefree."""
    for x0 in range(min(field.q, count)):
        fib = []
        for col in reversed(cols):
            fib = unipoly.add(field, unipoly.scale(field, fib, x0), col)
        if unipoly.degree(fib) < 1:
            continue
        fibp = unipoly.derivative(field, fib)
        if fibp and unipoly.degree(unipoly.gcd(field, fib, fibp)) == 0:
            yield x0, fib


def _factor_lift(S: MPoly, guard):
    """Factor a squarefree primitive S (deg >= 1 in both variables) by lifting."""
    field = S.dom
    D = S.degree()
    for transposed, c in _shear_options(field, S):
        W = S.swap_vars(0, 1) if transposed else S
        W = W.shear(0, 1, c)
        c0 = W.coeff((0, D))
        Wm = W.scale(field.inv(c0))
        # Wm is monic of degree D in y, so every fibre has degree D
        for x0, fib in _squarefree_fibres(field, coeff_table(Wm, 0), field.q):
            out = []
            for P in _factor_lift_at(field, Wm, x0, fib, D, guard):
                Q = P.shear(0, 1, field.neg(c))
                if transposed:
                    Q = Q.swap_vars(0, 1)
                out.append((Q.monic(), 1))
            return out
    return _factor_by_extension(S, guard)


def _factor_lift_at(field, Wm, x0, fib, D, guard):
    """Lift the local factors of the fibre at x0 and recombine them."""
    unit, locs = uni_factor(field, fib)
    local = [list(g) for g, _ in locs]
    if len(local) == 1:
        return [Wm]
    space = 2 ** len(local)
    if space > guard:
        raise GuardExceeded(
            f"lift recombination space {space} ({len(local)} local factors over "
            f"GF({field.q})) exceeds guard {guard}"
        )
    T = Wm.shift_var(0, x0) if x0 != field.zero else Wm
    K = D + 1
    lifted = _multilift(field, coeff_table(T, 0), local, K)
    # subset recombination by trial division
    result = []
    pool = list(range(len(lifted)))
    cur = T
    size = 1
    while pool and size <= len(pool):
        for subset in combinations(pool, size):
            cand = [[field.one]]
            for j in subset:
                cand = _xy_mul(field, cand, lifted[j], K)
            P = _from_xy(field, cand)
            quot = cur.exact_div(P)
            if quot is not None:
                result.append(P)
                pool = [j for j in pool if j not in subset]
                cur = quot
                break
        else:
            size += 1
    if cur.deg_in(1) >= 1:
        result.append(cur)
    # undo the x-shift here so callers see factors of Wm
    if x0 != field.zero:
        result = [P.shift_var(0, field.neg(x0)) for P in result]
    return result


def _factor_by_extension(S: MPoly, guard):
    """Factor over F_{q^2} and descend by Frobenius orbit products: S is
    squarefree, so each factor occurs once and each orbit product is F_q-rational.

    The descent squares q until some fibre is squarefree, and it always ends:
    _factor_rec hands _factor_lift a squarefree S in which every factor has a
    nonzero y-derivative.  So all but finitely many shears are monic and
    separable in y.  Their disc_y is a nonzero polynomial in x of degree at
    most D(2D - 1), so once q passes that degree, some fibre is squarefree.
    An F_{q^2} of more than `guard` elements is refused before it is built."""
    field = S.dom
    if size := power_over(field.q, 2, guard):
        raise GuardExceeded(f"extension GF({field.q}^2) of order {size} exceeds guard {guard}")
    E = finite_field(field.p, field.k * 2)
    proj = projection(field, E)
    parts = _factor_rec(S.map_coeffs(embedding(field, E), E), guard)
    frob = lambda g: g.map_coeffs(lambda a: E.pow(a, field.q), E)  # noqa: E731
    remaining = [g for g, _ in parts]
    out = []
    while remaining:
        prod = MPoly.const(E, 2, E.one)
        for h in frobenius_orbit(remaining[0], frob):
            remaining.remove(h)
            prod = prod * h
        down = {e: proj(cc) for e, cc in prod.terms.items()}
        if None in down.values():  # pragma: no cover - orbit products are F_q-rational
            raise ArithmeticError("orbit product coefficient outside the base field")
        out.append((MPoly(field, 2, down).monic(), 1))
    return out


# -- full recursive factorization --------------------------------------------

def _factor_rec(F: MPoly, guard):
    field = F.dom
    if F.is_constant():
        return []
    # univariate inputs
    for var in (0, 1):
        if F.deg_in(1 - var) == 0:
            unit, fs = uni_factor(field, F.to_dense(var))
            return [(MPoly.from_dense(field, list(g), 2, var), m) for g, m in fs]
    for var in (1, 0):
        cont = content(F, var)
        if not cont.is_constant():
            rest = F.exact_div(cont)
            return _merge_factor_lists(
                _factor_rec(cont, guard), _factor_rec(rest, guard))
    root = F.pth_root()
    if root is not None:
        inner = _factor_rec(root, guard)
        return [(g, m * field.p) for g, m in inner]
    Fy = F.derivative(1)
    Fx = F.derivative(0)
    if Fy.is_zero() and Fx.is_zero():  # pragma: no cover - handled by p-th root
        raise ArithmeticError("unreachable: constant derivative pair")
    if Fy.is_zero():
        flipped = _factor_rec(F.swap_vars(0, 1), guard)
        return [(g.swap_vars(0, 1).monic(), m) for g, m in flipped]
    G = primitive_gcd(F, Fy, 1)
    S = F.exact_div(G).monic()
    # deg_y G <= deg_y F_y < deg_y F, so S is nonconstant
    parts = _factor_lift(S, guard)
    if G.is_constant():
        return parts
    return _merge_factor_lists(parts, _factor_rec(G, guard))


def bivar_factor(F: MPoly, guard=DEFAULT_GUARD) -> Factorization:
    """Complete factorization over the coefficient field, by lifting, with
    extension descent when no shear has a squarefree fibre.  Every factor is
    graded-lex monic and that order respects products, so the unit is the
    leading coefficient of F.
    """
    if F.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field = F.dom
    if F.n != 2:
        raise ValueError("bivariate factorization expects two variables")
    if F.is_constant():
        return Factorization(field, F.constant_term(), [])
    return Factorization(field, F.leading()[1], _sorted_factors(_factor_rec(F, guard)))


def bivar_irreducible(F: MPoly, guard=DEFAULT_GUARD) -> bool:
    """No factorization G*H with both parts nonconstant over the base field."""
    if F.is_constant():
        raise ValueError("irreducibility is undefined for constants")
    if F.degree() == 1:
        return True
    fac = bivar_factor(F, guard=guard)
    return fac.total_multiplicity() == 1


def conjugate_split_count(G: MPoly, guard=DEFAULT_GUARD) -> int:
    """Number of absolutely irreducible conjugate factors of an irreducible G."""
    field = G.dom
    delta = G.degree()
    if delta <= 1:
        return 1
    if G.deg_in(0) == 0 or G.deg_in(1) == 0:
        # univariate: an irreducible of degree d splits into d conjugate roots
        return delta
    # screen: a simple root of a squarefree fibre is a smooth point on just
    # one of the r conjugate components, which Frobenius permutes
    # transitively, so r divides the point's degree: r | evidence at any q
    evidence = 0
    for transposed in (False, True):
        P = G.swap_vars(0, 1) if transposed else G
        for _x0, fib in islice(_squarefree_fibres(field, coeff_table(P, 0), 64), 4):
            for _g, d in unipoly.distinct_degree(field, fib):
                evidence = gcd(evidence, d)
                if evidence == 1:
                    return 1
    # exact phase: split over F_{q^l} for the primes l of gcd(evidence, dc),
    # all of dc when no fibre was squarefree, and go on with one factor,
    # whose r / l conjugate components divide evidence / l
    r_total, cur = 1, G
    while (dc := cur.degree()) > 1:
        for ell in sorted(factorint(gcd(evidence, dc))):
            E = finite_field(cur.dom.p, cur.dom.k * ell)
            fac = _factor_rec(cur.map_coeffs(embedding(cur.dom, E), E), guard)
            if sum(m for _, m in fac) > 1:
                cur = _sorted_factors(fac)[0][0]
                r_total *= ell
                evidence //= ell
                break
        else:
            break
    return r_total


def absolutely_irreducible(F: MPoly, guard=DEFAULT_GUARD) -> bool:
    """Irreducible over every finite extension (hence over the closure)."""
    if F.is_constant():
        raise ValueError("irreducibility is undefined for constants")
    if F.degree() == 1:
        return True
    fac = bivar_factor(F, guard=guard)
    if fac.total_multiplicity() > 1:
        return False
    return conjugate_split_count(fac.factors[0][0], guard) == 1


def n_bar_factors(F: MPoly, guard=DEFAULT_GUARD) -> int:
    """Number of distinct irreducible factors over the algebraic closure."""
    if F.is_constant():
        raise ValueError("factor count is undefined for constants")
    fac = bivar_factor(F, guard=guard)
    return sum(conjugate_split_count(g, guard) for g, _ in fac.factors)
