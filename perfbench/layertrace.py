"""Per-layer spans and counters, recorded from outside the package.

`Tracer.install` wraps the public functions and methods of every traced
layer of `indecpoly` without editing its source:

* each public function of a layer module is replaced in the defining module
  and at every site that bound it by name (`from .decompose import
  decompose_multi` leaves its own reference in `census`);
* each public method of a class defined in a layer module, plus the
  arithmetic dunders, is replaced on the class;
* coefficient domains (the finite fields, QQ, ZZ and any other class with
  `from_int`, `add` and `mul`) get no spans: their element operations are only
  counted, because they are too small and too frequent to time one by one.

A span is one call: name, start, end and the span that was open when it
began, kept in flat arrays until `summary` folds them into calls and self
times per span name.  Self time is a span's duration minus the time covered by
its direct children.  `uninstall` restores every binding it replaced.
"""

from __future__ import annotations

import array
import contextlib
import functools
import inspect
import sys
import time
from fractions import Fraction

LAYERS = ("fields", "unipoly", "mpoly", "resultants", "factoring", "decompose",
          "spectrum", "modp", "census", "cli", "parsing")

# element operations of a coefficient domain, counted but never spanned
ELEMENT_OPS = ("from_int", "add", "sub", "neg", "mul", "inv", "div", "exact_div", "pow")
DOMAIN_COUNTERS = {
    "PrimeField": "fields.prime_ops",
    "ExtensionField": "fields.ext_ops",
    "RationalDomain": "fields.qq_ops",
    "IntegerDomain": "fields.zz_ops",
    "RatFuncField": "modp.ratfunc_ops",
}
ARITH_DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__")

# spans whose outcome is recorded: "hit" is a non-None result, except for
# predicates, where it is a True result
OUTCOME_SPANS = {
    "decompose.decompose_multi": "not_none",
    "decompose.decompose_uni": "not_none",
    "decompose.decompose_uni_dense": "not_none",
    "mpoly.MPoly.exact_div": "not_none",
    "factoring.absolutely_irreducible": "truth",
}

NO_OUTCOME, HIT, MISS = 0, 1, 2


def _is_domain_class(cls):
    return all(callable(getattr(cls, op, None)) for op in ("from_int", "add", "mul"))


class Tracer:
    """Span buffers, counters and the bindings replaced by `install`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_outcome = array.array("b")
        self._stack = [-1]
        self.counters: dict[str, list[int]] = {}
        self.qq_max_bits = [0]
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name):
        sid = self._name_ids.get(name)
        if sid is None:
            sid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = sid
        return sid

    def _counter(self, key):
        return self.counters.setdefault(key, [0])

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block (used for benchmark items)."""
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self.span_outcome.append(NO_OUTCOME)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, fn, name):
        sid = self._name_id(name)
        kind = OUTCOME_SPANS.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, outcomes = self.span_start, self.span_end, self.span_outcome
        stack = self._stack
        clock = time.perf_counter

        # two copies of the same wrapper, so that spans without an outcome
        # pay nothing for recording one
        if kind is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(names)
                names.append(sid)
                parents.append(stack[-1])
                ends.append(0.0)
                outcomes.append(NO_OUTCOME)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            return wrapper

        def is_hit(result):
            return result is not None if kind == "not_none" else bool(result)

        @functools.wraps(fn)
        def tracked(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            outcomes.append(NO_OUTCOME)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                outcomes[idx] = HIT if is_hit(result) else MISS
                return result
            finally:
                ends[idx] = clock()
                stack.pop()
        return tracked

    def _count_wrapper(self, fn, key, track_bits):
        cell = self._counter(key)
        if not track_bits:
            @functools.wraps(fn)
            def counted(*args):
                cell[0] += 1
                return fn(*args)
            return counted
        top = self.qq_max_bits

        @functools.wraps(fn)
        def counted_bits(*args):
            cell[0] += 1
            r = fn(*args)
            if type(r) is Fraction:
                b = max(r.numerator.bit_length(), r.denominator.bit_length())
                if b > top[0]:
                    top[0] = b
            return r
        return counted_bits

    # -- installing --------------------------------------------------------
    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self, package_name="indecpoly"):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == package_name
                                           or name.startswith(package_name + "."))}
        replaced = {}
        for layer in LAYERS:
            mod = modules.get(f"{package_name}.{layer}")
            if mod is None:
                raise RuntimeError(f"layer module {package_name}.{layer} is not imported")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._span_wrapper(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)
        # rebind every module-level reference to a wrapped function
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _install_class(self, layer, cls):
        if _is_domain_class(cls):
            key = DOMAIN_COUNTERS[cls.__name__]
            bits = cls.__name__ == "RationalDomain"
            for op in ELEMENT_OPS:
                fn = getattr(cls, op, None)
                if callable(fn):
                    self._set(cls, op, self._count_wrapper(fn, key, bits))
            return
        if any(_is_domain_class(sub) for sub in cls.__subclasses__()):
            return  # shared base of coefficient domains: not a layer boundary
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITH_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._span_wrapper(raw.__func__, name)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._span_wrapper(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._span_wrapper(raw, name))

    def uninstall(self):
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- summarizing -------------------------------------------------------
    def summary(self):
        """{top-level span name: {span name: [calls, self seconds, hits, misses]}}.

        Each span is filed under the name of the top-level span (one opened
        with no span above it) that it runs in, so that set-up and the timed
        pass can be told apart."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends, outcomes = self.span_start, self.span_end, self.span_outcome
        child = array.array("d", bytes(8 * n))
        root = array.array("i", bytes(4 * n))
        for i in range(n):  # a parent is always recorded before its children
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
                root[i] = root[p]
            else:
                root[i] = i
        tables = {}
        for i in range(n):
            rows = tables.get(names[root[i]])
            if rows is None:
                rows = tables[names[root[i]]] = [[0, 0.0, 0, 0] for _ in self.names]
            row = rows[names[i]]
            row[0] += 1
            row[1] += ends[i] - starts[i] - child[i]
            o = outcomes[i]
            if o == HIT:
                row[2] += 1
            elif o == MISS:
                row[3] += 1
        return {self.names[r]: {self.names[k]: row for k, row in enumerate(rows) if row[0]}
                for r, rows in tables.items()}

    def nested_outcomes(self, name, ancestor):
        """(calls, hits) of spans `name` that have an `ancestor` span above them."""
        sid = self._name_ids.get(name)
        aid = self._name_ids.get(ancestor)
        if sid is None or aid is None:
            return 0, 0
        names, parents, outcomes = self.span_name, self.span_parent, self.span_outcome
        calls = hits = 0
        for i in range(len(names)):
            if names[i] != sid:
                continue
            p = parents[i]
            while p >= 0 and names[p] != aid:
                p = parents[p]
            if p >= 0:
                calls += 1
                hits += outcomes[i] == HIT
        return calls, hits

    def counter(self, key):
        return self.counters.get(key, [0])[0]

    def reset_counters(self):
        """Zero every counter and the largest rational seen."""
        for cell in self.counters.values():
            cell[0] = 0
        self.qq_max_bits[0] = 0

    def span_count(self):
        return len(self.span_name)
