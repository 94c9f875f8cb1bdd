#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload spectrum --seeds 1-10 [--seconds 20]

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound in BENCHMARK.json.
A spread above a third of its bound is flagged; setup_s has no spread limit.
Runs go one after another, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        detail, result = run(args.workload, seed, seconds, 0)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: passes {detail['passes']}, report {detail['report_sha256'][:12]}, "
              + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    flagged = []
    print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        share = (q3 - q1) / med if med else float("inf")
        flag = m["name"] != "setup_s" and share > m["bound"] / 3
        if flag:
            flagged.append(m["name"])
        print(f"{m['name']:18} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:7.3f} {m['bound']:6.2f}"
              + ("  above a third of the bound" if flag else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
