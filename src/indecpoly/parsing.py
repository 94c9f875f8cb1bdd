"""Polynomial expression parser for the command line.

Grammar (recursive descent; no implicit multiplication):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' INT]
    atom   := INT | VAR | '(' expr ')'

Variables are x and y, or x1..xn; over an extension field the generator
symbol t is also an atom.  Integer literals land in the coefficient domain.
Errors carry the source offset.
"""

from __future__ import annotations

import re

from .mpoly import MPoly


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|(.))")


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m or m.end() == m.start():
            break
        pos = m.start(1) if m.group(1) else m.start(2) if m.group(2) else m.start(3)
        if m.group(1):
            out.append(("int", int(m.group(1)), pos))
        elif m.group(2):
            out.append(("name", m.group(2), pos))
        else:
            ch = m.group(3)
            if ch not in "+-*^()":
                raise ParseError(f"unexpected character {ch!r}", pos)
            out.append((ch, ch, pos))
        i = m.end()
    out.append(("end", None, len(text)))
    return out


def _var_indices(nvars):
    """Map variable names to slot indices for a fixed arity."""
    if nvars == 1:
        return {"x": 0, "x1": 0}
    table = {f"x{i + 1}": i for i in range(nvars)}
    if nvars == 2:
        table["x"] = 0
        table["y"] = 1
    return table


def _infer_nvars(names):
    plain = {n for n in names if n in ("x", "y")}
    indexed = {n for n in names if re.fullmatch(r"x\d+", n)}
    if plain and indexed:
        raise ValueError("cannot mix x/y with numbered variables")
    if indexed:
        return max(int(n[1:]) for n in indexed)
    if "y" in plain:
        return 2
    return 1


class _Parser:
    def __init__(self, tokens, dom, nvars, varmap, gen):
        self.toks = tokens
        self.i = 0
        self.dom = dom
        self.n = nvars
        self.varmap = varmap
        self.gen = gen

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.take()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[0]!r}", t[2])
        return t

    def parse(self):
        out = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected {t[0]!r}", t[2])
        return out

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            t = self.take()
            if t[0] != "int":
                raise ParseError("expected an integer exponent", t[2])
            return base ** t[1]
        return base

    def atom(self):
        t = self.take()
        if t[0] == "int":
            return MPoly.const(self.dom, self.n, self.dom.from_int(t[1]))
        if t[0] == "name":
            if t[1] in self.varmap:
                return MPoly.variable(self.dom, self.n, self.varmap[t[1]])
            if t[1] == "t" and self.gen is not None:
                return MPoly.const(self.dom, self.n, self.gen)
            raise ParseError(f"unknown variable {t[1]!r}", t[2])
        if t[0] == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a value, found {t[0]!r}", t[2])


def parse_poly(text, dom, nvars=None) -> MPoly:
    """Parse an expression over the given domain (finite field, QQ or ZZ).

    The variable count is inferred from the names used unless given; over an
    extension field the symbol t denotes the field generator."""
    tokens = _tokenize(text)
    names = {v for kind, v, _ in tokens if kind == "name"}
    gen = None
    if dom.is_finite and dom.k > 1:
        gen = dom.element(dom.p)  # the class of t itself
        names.discard("t")
    if nvars is None:
        nvars = _infer_nvars(names)
    varmap = _var_indices(nvars)
    unknown = names - set(varmap)
    if unknown:
        bad = sorted(unknown)[0]
        pos = next(p for kind, v, p in tokens if kind == "name" and v == bad)
        raise ParseError(f"unknown variable {bad!r}", pos)
    return _Parser(tokens, dom, nvars, varmap, gen).parse()
