#!/usr/bin/env python3
"""Benchmark harness for indecpoly.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Workloads: census-uni, census-multi, spectrum, modp (see workloads.py).

With --trace 0 the timed phase runs whole passes over the corpus, at least
MIN_PASSES of them and until S seconds have passed, in one process and one
thread.  Each pass starts with its own set-up: a fresh import of the package,
the corpus, the field tables and embeddings.  Every set-up and every item
(one census slice or one command) is timed between two host speed probes
and scaled to the reference speed (hostspeed.py); the raw figures go to the
detail line.  With --trace 1 it makes two passes, each from its own fresh
set-up: one untraced, and one with every layer wrapped (layertrace.py) from
before its set-up on.  It reports per-layer calls, self times and counters of
the traced pass; the embedding metrics also count the traced set-up.

Every pass's report text must hash the same, and the first pass must agree
with the workload's oracle; otherwise the result has "correct": false and the
exit code is 1.  The last stdout line is the result object; the line before
it holds the details (report digest, tail percentile, source version).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "indecpoly"
MIN_PASSES = 2
TAIL_LEVELS = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)

sys.path.insert(0, str(HERE))

from hostspeed import probe, scale  # noqa: E402
from layertrace import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Census, Failed, failed_run  # noqa: E402


class Pass:
    """One pass over the corpus: outputs, item times, and the report digest."""

    def __init__(self, outputs, raw, scaled, units, report):
        self.outputs = outputs
        self.raw = raw        # item times, seconds as measured; the report step last
        self.scaled = scaled  # the same at the reference host speed
        self.units = units
        self.report = report
        self.digest = hashlib.sha256(report.encode()).hexdigest()

    @property
    def wall(self):
        return sum(self.scaled)

    @property
    def wall_raw(self):
        return sum(self.raw)


def import_package():
    """Import the package afresh and return its layer modules."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    top = importlib.import_module(PACKAGE)
    if not Path(top.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"{PACKAGE} was imported from {top.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS})


def set_up(workload, seed):
    """Fresh import, corpus, field tables: (pkg, items, seconds, scaled seconds)."""
    before = probe()
    t0 = time.perf_counter()
    pkg = import_package()
    items = workload.setup(pkg, seed)
    dt = time.perf_counter() - t0
    return pkg, items, dt, scale(dt, before, probe())


def run_pass(pkg, workload, items, tracer=None):
    outputs, raw, scaled = [], [], []
    clock = time.perf_counter
    before = probe()
    for item in items:
        t = clock()
        try:
            if tracer is None:
                out = workload.run(pkg, item)
            else:
                with tracer.span("bench.item"):
                    out = workload.run(pkg, item)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            out = Failed(exc)
        dt = clock() - t
        after = probe()
        raw.append(dt)
        scaled.append(scale(dt, before, after))
        outputs.append(out)
        before = after
    t = clock()
    report = workload.report(pkg, items, outputs)
    dt = clock() - t
    raw.append(dt)
    scaled.append(scale(dt, before, probe()))
    return Pass(outputs, raw, scaled, sum(map(workload.units, outputs)), report)


def tail(values, count):
    """(level, value): the highest percentile with at least ten samples beyond
    it among `count` samples, estimated over `values` by nearest rank."""
    level = next((lv for lv in TAIL_LEVELS if count * (100 - lv) / 100 >= 10), 50)
    s = sorted(values)
    rank = max(1, -(-len(s) * level // 100))
    return level, s[int(rank) - 1]


def check(pkg, workload, items, passes):
    """Failed item indices and problem messages for a list of passes."""
    problems = []
    bad = set()
    for p in passes:
        bad.update(i for i, out in enumerate(p.outputs) if failed_run(out))
    for i in sorted(bad):
        outs = {repr(p.outputs[i]) if isinstance(p.outputs[i], Failed) else p.outputs[i][2]
                for p in passes}
        problems.append(f"{items[i].label}: {'; '.join(sorted(outs))}".strip())
    if len({p.digest for p in passes}) != 1:
        problems.append("report text differs between passes")
    for idxs, msg in workload.check(pkg, items, passes[0].outputs):
        bad.update(idxs)
        problems.append(msg)
    return bad, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def timings(setups, walls, units, samples, count):
    """The five timing metrics from set-up times, pass times and item times."""
    level, tail_s = tail(samples, count)
    return level, {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "throughput_per_s": units / sum(walls),
        "item_p50_ms": statistics.median(samples) * 1e3,
        "item_tail_ms": tail_s * 1e3,
    }


def end_to_end(setups, items, passes):
    """Metrics at the reference host speed; the raw figures go to the detail line.

    Item times pool every pass.  The tail percentile is fixed by the sample
    count of MIN_PASSES passes, so it does not change with the number of
    passes a run happens to make."""
    n = len(items)
    units = sum(p.units for p in passes)
    count = MIN_PASSES * n
    level, scaled = timings([s for _, s in setups], [p.wall for p in passes], units,
                            [t for p in passes for t in p.scaled[:n]], count)
    _, raw = timings([r for r, _ in setups], [p.wall_raw for p in passes], units,
                     [t for p in passes for t in p.raw[:n]], count)
    units_of = {"setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s",
                "item_p50_ms": "ms", "item_tail_ms": "ms"}
    metrics = {name: metric(value, units_of[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                    "MB")
    return metrics, {"item_tail_percentile": level, "item_samples": len(passes) * n,
                     "passes": len(passes), "raw": raw,
                     "host_slowdown": raw["wall_s"] / scaled["wall_s"]}


# per-layer metrics: name -> (unit, function of (summary, tracer))
def _calls(*names):
    return lambda s, t: sum(s.get(n, (0,))[0] for n in names)


def _layer(layer, col):
    return lambda s, t: sum(row[col] for n, row in s.items() if n.startswith(layer + "."))


def _self(name):
    return lambda s, t: s.get(name, (0, 0.0))[1]


def _hit_ratio(*names):
    def f(s, t):
        hits = sum(s.get(n, (0, 0, 0, 0))[2] for n in names)
        tried = sum(s.get(n, (0, 0, 0, 0))[2] + s.get(n, (0, 0, 0, 0))[3] for n in names)
        return hits / tried if tried else 0.0
    return f


def _lambdas(s, t):
    return t.nested_outcomes("factoring.absolutely_irreducible", "spectrum.spectral_values")[0]


def _reducible_ratio(s, t):
    calls, irreducible = t.nested_outcomes("factoring.absolutely_irreducible",
                                           "spectrum.spectral_values")
    return (calls - irreducible) / calls if calls else 0.0


DECOMPOSERS = ("decompose.decompose_multi", "decompose.decompose_uni",
               "decompose.decompose_uni_dense")
PER_LAYER = {
    "unipoly.calls": ("count", _layer("unipoly", 0)),
    "unipoly.self_s": ("s", _layer("unipoly", 1)),
    "unipoly.mul_trunc.calls": ("count", _calls("unipoly.mul_trunc")),
    "unipoly.divmod.calls": ("count", _calls("unipoly.divmod_poly")),
    "unipoly.gcd.calls": ("count", _calls("unipoly.gcd")),
    "unipoly.pow_mod.calls": ("count", _calls("unipoly.pow_mod")),
    "decompose.calls": ("count", _layer("decompose", 0)),
    "decompose.self_s": ("s", _layer("decompose", 1)),
    "decompose.hit_ratio": ("ratio", _hit_ratio(*DECOMPOSERS)),
    "census.self_s": ("s", _layer("census", 1)),
    "mpoly.calls": ("count", _layer("mpoly", 0)),
    "mpoly.self_s": ("s", _layer("mpoly", 1)),
    "mpoly.mul.calls": ("count", _calls("mpoly.MPoly.__mul__")),
    "mpoly.mul.self_s": ("s", _self("mpoly.MPoly.__mul__")),
    "mpoly.exact_div.calls": ("count", _calls("mpoly.MPoly.exact_div")),
    "mpoly.exact_div.self_s": ("s", _self("mpoly.MPoly.exact_div")),
    "mpoly.exact_div.hit_ratio": ("ratio", _hit_ratio("mpoly.MPoly.exact_div")),
    "mpoly.evaluate.calls": ("count", _calls("mpoly.MPoly.evaluate")),
    "factoring.calls": ("count", _layer("factoring", 0)),
    "factoring.self_s": ("s", _layer("factoring", 1)),
    "factoring.bivar_factor.calls": ("count", _calls("factoring.bivar_factor")),
    "factoring.uni_factor.calls": ("count", _calls("factoring.uni_factor")),
    "factoring.conjugate_split_count.calls": ("count",
                                              _calls("factoring.conjugate_split_count")),
    "spectrum.self_s": ("s", _layer("spectrum", 1)),
    "spectrum.lambdas_tested": ("count", _lambdas),
    "spectrum.reducible_ratio": ("ratio", _reducible_ratio),
    "fields.prime_ops": ("count", lambda s, t: t.counter("fields.prime_ops")),
    "fields.ext_ops": ("count", lambda s, t: t.counter("fields.ext_ops")),
    "fields.qq_ops": ("count", lambda s, t: t.counter("fields.qq_ops")),
    "fields.zz_ops": ("count", lambda s, t: t.counter("fields.zz_ops")),
    "fields.qq_max_bits": ("bits", lambda s, t: t.qq_max_bits[0]),
    "modp.calls": ("count", _layer("modp", 0)),
    "modp.self_s": ("s", _layer("modp", 1)),
    "modp.ratfunc_ops": ("count", lambda s, t: t.counter("modp.ratfunc_ops")),
    "resultants.calls": ("count", _layer("resultants", 0)),
    "resultants.self_s": ("s", _layer("resultants", 1)),
    "cli.self_s": ("s", _layer("cli", 1)),
    "parsing.self_s": ("s", _layer("parsing", 1)),
}


# the same, over the spans of the traced set-up and pass together
SETUP_AND_PASS = {
    "fields.embed.calls": ("count", _calls("fields.embedding")),
    "fields.embed.self_s": ("s", _self("fields.embedding")),
}


def _merge(*summaries):
    merged = {}
    for summary in summaries:
        for name, row in summary.items():
            merged[name] = [a + b for a, b in zip(merged.get(name, [0, 0.0, 0, 0]), row)]
    return merged


def per_layer(setup, passed, tracer, base, traced, polys):
    """Metrics from the span summaries of the traced set-up and pass."""
    both = _merge(setup, passed)
    metrics = {name: metric(fn(passed, tracer), unit) for name, (unit, fn) in PER_LAYER.items()}
    metrics.update({name: metric(fn(both, tracer), unit)
                    for name, (unit, fn) in SETUP_AND_PASS.items()})
    metrics["census.polys_classified"] = metric(polys, "count")
    metrics["trace.overhead_ratio"] = metric(traced.wall / base.wall, "ratio")
    return metrics


def source_info():
    files = sorted((SRC / PACKAGE).rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
            sha = r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0))}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace:
            pkg, items, _, _ = set_up(workload, args.seed)
            base = run_pass(pkg, workload, items)
            tracer = Tracer()
            traced_pkg = import_package()
            tracer.install(PACKAGE)
            try:
                with tracer.span("bench.setup"):
                    traced_items = workload.setup(traced_pkg, args.seed)
                tracer.reset_counters()  # counters cover the pass only
                with tracer.span("bench.pass"):
                    traced = run_pass(traced_pkg, workload, traced_items, tracer)
            finally:
                tracer.uninstall()
            passes = [base, traced]
            tables = tracer.summary()
            setup_summary, pass_summary = tables["bench.setup"], tables["bench.pass"]
            polys = traced.units if isinstance(workload, Census) else 0
            metrics = per_layer(setup_summary, pass_summary, tracer, base, traced, polys)
            counts = {k: v["value"] for k, v in metrics.items()
                      if v["unit"] != "s" and k != "trace.overhead_ratio"}
            detail.update(spans=tracer.span_count(), counts_sha256=hashlib.sha256(
                json.dumps(counts, sort_keys=True).encode()).hexdigest(),
                **{key: {n: {"calls": r[0], "self_s": r[1]} for n, r in summary.items()}
                   for key, summary in (("setup_spans_by_name", setup_summary),
                                        ("spans_by_name", pass_summary))})
        else:
            passes, setups = [], []
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                pkg, items, setup_raw, setup_scaled = set_up(workload, args.seed)
                setups.append((setup_raw, setup_scaled))
                passes.append(run_pass(pkg, workload, items))
            metrics, extra = end_to_end(setups, items, passes)
            detail.update(extra)
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE}: {exc}", file=sys.stderr)
        return 2
    detail["items_per_pass"] = len(items)

    bad, problems = check(pkg, workload, items, passes)
    attempted = len(items) * len(passes)
    failed = len(bad) * len(passes)
    if not args.trace:
        metrics["ok_frac"] = metric((attempted - failed) / attempted, "ratio")
    correct = not problems
    detail.update(source_info(), report_sha256=passes[0].digest, problems=problems,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
