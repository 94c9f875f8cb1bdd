"""Sparse multivariate polynomials over an exact coefficient domain.

A polynomial is a map from exponent tuples to nonzero coefficients, plus the
variable count and the owning domain.  The constructor is the one place that
drops zero coefficients: operations hand it their raw sums and images.  The
monomial order used everywhere (leading terms, canonical printing, divisor
enumeration) is graded lexicographic: higher total degree wins, ties break
lexicographically on the exponent tuple with the first variable strongest.
Values are immutable by convention; every operation returns a fresh
polynomial, and nothing writes the terms of a polynomial after its
constructor.  The convention carries weight: degree() and leading() are
computed on first use and kept on the value.  An int coefficient over F_q is
the element with that index (see fields), never reduced mod p.
"""

from __future__ import annotations


def glex_key(e):
    return (sum(e), e)


class MPoly:
    __slots__ = ("dom", "n", "terms", "_degree", "_leading")

    def __init__(self, dom, n, terms=None):
        self.dom = dom
        self.n = n
        clean = {}
        if terms:
            z = dom.zero
            q = dom.q if dom.is_finite else None
            for e, c in terms.items():
                if c != z:  # the int literal 0 is zero in every domain
                    if type(c) is int:  # a literal: over F_q the element itself
                        if q is None:
                            c = dom.from_int(c)
                        elif not 0 <= c < q:
                            raise ValueError(f"{c} is not an element of {dom}")
                    clean[tuple(e)] = c
        self.terms = clean
        self._degree = self._leading = None  # filled by degree() and leading()

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, dom, n, c):
        return cls(dom, n, {(0,) * n: c})

    @classmethod
    def variable(cls, dom, n, i):
        e = [0] * n
        e[i] = 1
        return cls(dom, n, {tuple(e): dom.one})

    @classmethod
    def from_dense(cls, dom, coeffs, n=1, var=0):
        terms = {}
        for i, c in enumerate(coeffs):
            e = [0] * n
            e[var] = i
            terms[tuple(e)] = c
        return cls(dom, n, terms)

    def to_dense(self, var=0):
        """Coefficient list in `var`; every other variable must be absent."""
        out = [self.dom.zero] * (self.deg_in(var) + 1 if self.terms else 0)
        for e, c in self.terms.items():
            if any(x for i, x in enumerate(e) if i != var):
                raise ValueError("polynomial is not univariate in that variable")
            out[e[var]] = c
        return out

    # -- basic structure ---------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if self._degree is None:
            self._degree = max(map(sum, self.terms), default=-1)
        return self._degree

    def deg_in(self, var):
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if self._leading is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            e = max(self.terms, key=glex_key)
            self._leading = e, self.terms[e]
        return self._leading

    def leading_form(self):
        """Sum of the monomials of maximal total degree."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading form")
        return self.homogeneous_part(self.degree())

    def homogeneous_part(self, d):
        return MPoly(self.dom, self.n, {e: c for e, c in self.terms.items() if sum(e) == d})

    def constant_term(self):
        return self.terms.get((0,) * self.n, self.dom.zero)

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.dom.zero)

    def key(self):
        return (self.dom.key(), self.n, tuple(sorted(self.terms.items())))

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        dom = self.dom
        for e, c in other.terms.items():
            out[e] = dom.add(out.get(e, dom.zero), c)
        return MPoly(dom, self.n, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        dom = self.dom
        for e, c in other.terms.items():
            out[e] = dom.sub(out.get(e, dom.zero), c)
        return MPoly(dom, self.n, out)

    def __neg__(self):
        dom = self.dom
        return MPoly(dom, self.n, {e: dom.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        dom = self.dom
        out = {}
        zero = dom.zero
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = dom.add(out.get(e, zero), dom.mul(c1, c2))
        return MPoly(dom, self.n, out)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = MPoly.const(self.dom, self.n, self.dom.one)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, c):
        dom = self.dom
        return MPoly(dom, self.n, {e: dom.mul(v, c) for e, v in self.terms.items()})

    def monic(self):
        """Scale so the graded-lex leading coefficient is one."""
        _, lc = self.leading()
        if lc == self.dom.one:
            return self
        return self.scale(self.dom.inv(lc))

    def _check(self, other):
        if self.n != other.n or (self.dom is not other.dom
                                 and self.dom.key() != other.dom.key()):
            raise ValueError("operands live in different polynomial rings")

    # -- calculus and substitution ------------------------------------------
    def derivative(self, var):
        dom = self.dom
        out = {}
        for e, c in self.terms.items():
            k = e[var]
            if k:
                e2 = list(e)
                e2[var] = k - 1
                out[tuple(e2)] = dom.mul(c, dom.from_int(k))
        return MPoly(dom, self.n, out)

    def evaluate(self, values):
        """Full evaluation at a point (list of domain elements)."""
        dom = self.dom
        acc = dom.zero
        for e, c in self.terms.items():
            t = c
            for v, k in zip(values, e):
                if k:
                    t = dom.mul(t, dom.pow(v, k))
            acc = dom.add(acc, t)
        return acc

    def subst_poly(self, var, poly):
        """Substitute a polynomial (same ring) for one variable."""
        self._check(poly)
        dom = self.dom
        # group by the exponent of var, Horner over the grouped pieces
        groups = {}
        for e, c in self.terms.items():
            k = e[var]
            e2 = list(e)
            e2[var] = 0
            groups.setdefault(k, {})[tuple(e2)] = c
        kmax = max(groups) if groups else 0
        acc = MPoly(dom, self.n)
        for k in range(kmax, -1, -1):
            acc = acc * poly
            if k in groups:
                acc = acc + MPoly(dom, self.n, groups[k])
        return acc

    def shift_var(self, var, c):
        """x_var -> x_var + c for a domain element c."""
        if c == self.dom.zero:
            return self
        x = MPoly.variable(self.dom, self.n, var)
        return self.subst_poly(var, x + MPoly.const(self.dom, self.n, c))

    def shear(self, var, other_var, c):
        """x_var -> x_var + c * x_other."""
        if c == self.dom.zero:
            return self
        x = MPoly.variable(self.dom, self.n, var)
        y = MPoly.variable(self.dom, self.n, other_var)
        return self.subst_poly(var, x + y.scale(c))

    def swap_vars(self, i, j):
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i], e2[j] = e2[j], e2[i]
            out[tuple(e2)] = c
        return MPoly(self.dom, self.n, out)

    # -- coefficient maps ----------------------------------------------------
    def map_coeffs(self, fn, dom2):
        return MPoly(dom2, self.n, {e: fn(c) for e, c in self.terms.items()})

    def pth_root(self):
        """The p-th root over F_q, or None unless every exponent is a multiple
        of the characteristic p (the field is perfect: coefficients follow)."""
        dom, p = self.dom, self.dom.p
        terms = {}
        for e, c in self.terms.items():
            if any(k % p for k in e):
                return None
            terms[tuple(k // p for k in e)] = dom.pth_root(c)
        return MPoly(dom, self.n, terms)

    def reduce_mod(self, field):
        """Coefficient-wise reduction of an integer polynomial into F_p^k."""
        return self.map_coeffs(field.from_int, field)

    def lift_vars(self, n2):
        """Re-embed into a ring with n2 >= n variables, as its first n."""
        pad = (0,) * (n2 - self.n)
        return MPoly(self.dom, n2, {e + pad: c for e, c in self.terms.items()})

    # -- division ------------------------------------------------------------
    def exact_div(self, g):
        """Exact quotient self / g, or None when g does not divide self."""
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        dom = self.dom
        if self.is_zero():
            return self
        ge, gc = g.leading()
        rem = dict(self.terms)
        out = {}
        while rem:
            e = max(rem, key=glex_key)
            diff = tuple(a - b for a, b in zip(e, ge))
            if any(d < 0 for d in diff):
                return None
            c = dom.exact_div(rem[e], gc)
            if c is None:
                return None
            out[diff] = c
            for e2, c2 in g.terms.items():
                t = tuple(a + b for a, b in zip(diff, e2))
                s = dom.sub(rem.get(t, dom.zero), dom.mul(c, c2))
                if s == dom.zero:
                    rem.pop(t, None)
                else:
                    rem[t] = s
        return MPoly(dom, self.n, out)

    # -- printing ------------------------------------------------------------
    def format(self, var_names=None) -> str:
        return format_poly(self, var_names)

    def __repr__(self):
        return f"MPoly({self.format()!r})"


def default_var_names(n):
    if n == 1:
        return ("x",)
    if n == 2:
        return ("x", "y")
    return tuple(f"x{i + 1}" for i in range(n))


def _format_coeff(dom, c):
    s = dom.format_element(c)
    if " " in s or "+" in s[1:]:
        s = f"({s})"  # multi-term field elements need grouping
    return s


def format_poly(f: MPoly, var_names=None) -> str:
    """Canonical text: graded-lex descending terms, explicit '*' products."""
    if f.is_zero():
        return "0"
    names = var_names or default_var_names(f.n)
    dom = f.dom
    parts = []
    for e in sorted(f.terms, key=glex_key, reverse=True):
        c = f.terms[e]
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        neg = False
        if not dom.is_finite:
            if (isinstance(c, int) or hasattr(c, "denominator")) and c < 0:
                neg = True
                c = -c
        cs = _format_coeff(dom, c)
        if factors:
            body = "*".join(factors) if cs in ("1",) else "*".join([cs] + factors)
        else:
            body = cs
        parts.append((neg, body))
    first_neg, first_body = parts[0]
    text = ("-" if first_neg else "") + first_body
    for neg, body in parts[1:]:
        text += (" - " if neg else " + ") + body
    return text


def monomials_upto(n, d):
    """Exponent tuples of total degree <= d, graded-lex descending."""
    # (prefix, degree left) for each total degree, highest first; each pass
    # gives every prefix in order its next exponent, largest first, so each
    # degree's tuples come out lex descending
    level = [((), total) for total in range(d, -1, -1)]
    for _ in range(n - 1):
        level = [(p + (k,), r - k) for p, r in level for k in range(r, -1, -1)]
    return [p + (r,) for p, r in level]
