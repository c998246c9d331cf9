#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload serve_city --seeds 1-10 [--trace 0]

For every metric the benchmark prints, reports the median and the
interquartile range as a share of the median (statistics.quantiles with
n=4), next to the metric's bound from BENCHMARK.json. A spread above a
third of its bound is flagged, as is a run that fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, *spec["command"][1:]),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode,
                                             proc.stderr[-2000:]))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect" % seed)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)

    worst = 0
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above a third of its bound"
            worst = 1
        print("%-32s median %-14.6g spread %6.3f bound %s%s"
              % (name, med, spread, bound, flag))
        print("    " + " ".join("%.4g" % v for v in vals))
    return worst


if __name__ == "__main__":
    sys.exit(main())
