#!/usr/bin/env python3
"""Check that a traced run repeats exactly and leaves the results unchanged.

    python3 perfbench/check_repeat.py --workload census-uni --seed 1

Runs the workload twice with --trace 1 and once with --trace 0, one after
another.  The per-layer counts (every metric not in seconds, except the
tracing overhead) must be identical in the two traced runs, and all three
runs must print the same report digest.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"trace {trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] != "s" and k != "trace.overhead_ratio"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    (d1, r1), (d2, r2), (d0, _) = (run(args.workload, args.seed, t) for t in (1, 1, 0))
    c1, c2 = counts(r1), counts(r2)
    problems = [f"{k}: {c1.get(k)} != {c2.get(k)}" for k in sorted(set(c1) | set(c2))
                if c1.get(k) != c2.get(k)]
    digests = {d["report_sha256"] for d in (d0, d1, d2)}
    if len(digests) != 1:
        problems.append(f"report digests differ: {sorted(digests)}")
    print(f"{args.workload} seed {args.seed}: {len(c1)} counts, report {d0['report_sha256']}, "
          f"counts {d1['counts_sha256']}")
    for p in problems:
        print("mismatch:", p)
    print("repeatable" if not problems else "NOT repeatable")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
