#!/usr/bin/env python3
"""Bench-history regression gate.

Every bench script appends its run to bench/history/<bench>.jsonl and
checks the run against the matched-context baseline BEFORE recording
it (so a run is never its own baseline). A record is one JSON line:

    {"ts": ..., "bench": "serve", "smoke": true,
     "context_key": "ab12cd34ef56", "context": {...},
     "metrics": {"small.b4.rps": 320.8, ...}, "slo_breached": false}

Context matching: runs only compare against history from the same
machine shape — the context_key hashes the bench name, smoke flag and
the BENCH context block (threads, compiler, simd dispatch, build
type). A fresh machine (or a compiler upgrade) therefore starts with
"no_baseline" — the gate passes and seeds history instead of
comparing apples to oranges.

Noise-aware tolerance bands: the baseline per metric is the BEST of
the last --baseline-n matched runs (min for lower-is-better, max for
higher-is-better) — min-of-N absorbs one-sided scheduler noise — and
the regression ratio is symmetric (how many times worse than
baseline, regardless of direction), judged against warn/fail bands
scaled per metric kind (latency percentiles get more slack than
throughput) and widened for --smoke-sized runs.

Verdicts mirror obs/slo.hpp: healthy / degraded / breached (plus
no_baseline). `check` exits non-zero on breached — including when the
bench itself embedded "slo_breached": true — and writes a
machine-readable verdict JSON for CI to upload.

Usage:
  bench_gate.py record --bench NAME --json FILE [--history DIR]
  bench_gate.py check  --bench NAME --json FILE [--history DIR]
                       [--out FILE] [--baseline-n N] [--warn R] [--fail R]
  bench_gate.py gate   --bench NAME --json FILE ...   # check, then record;
                                                      # exits with check's status
  bench_gate.py bless  --bench NAME [--history DIR] [--context-of FILE]

Blessing a new baseline after an INTENTIONAL perf change: run
`bless --bench X --context-of BENCH_X.json` to drop the matched
context's history (or omit --context-of to drop the bench's whole
history); the next run re-seeds it.
"""

import argparse
import hashlib
import json
import os
import sys
import time

# ---------------------------------------------------------------------------
# context keying

CONTEXT_FIELDS = (
    "threads",
    "clm_threads_env",
    "compiler",
    "simd",
    "simd_dispatch",
    "simd_disabled",
    "build",
)


def context_key(bench, data):
    ctx = data.get("context", {})
    basis = {"bench": bench, "smoke": bool(data.get("smoke", False))}
    for field in CONTEXT_FIELDS:
        basis[field] = ctx.get(field)
    blob = json.dumps(basis, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# metric extraction: {name: (value, direction, tolerance_scale)}
# direction "higher" = regressions are drops, "lower" = regressions are
# rises. tolerance_scale widens the bands for noisier metric kinds.

LAT = 1.5     # latency percentiles: noisier than throughput
RATIO = 2.0   # speedup ratios: quotient of two noisy numbers


def extract_serve(data):
    m = {}
    for case in data.get("cases", []):
        name = case.get("name", "case")
        m[f"{name}.direct_ms_per_view"] = (case["direct_ms_per_view"], "lower", LAT)
        for pt in case.get("sweep", []):
            b = pt.get("max_batch", 0)
            m[f"{name}.b{b}.rps"] = (pt["rps"], "higher", 1.0)
            m[f"{name}.b{b}.p99_ms"] = (pt["p99_ms"], "lower", LAT)
        if case.get("batch4_speedup"):
            m[f"{name}.batch4_speedup"] = (case["batch4_speedup"], "higher", RATIO)
    return m


def extract_overload(data):
    m = {}
    for case in data.get("cases", []):
        name = case.get("name", "case")
        m[f"{name}.capacity_rps"] = (case["capacity_rps"], "higher", 1.0)
        for pt in case.get("points", []):
            if pt.get("policy") != "reject":
                continue
            x = pt.get("load_x", 0)
            tag = f"{name}.reject{x:g}x"
            m[f"{tag}.goodput_rps"] = (pt["goodput_rps"], "higher", 1.0)
            if pt.get("p99_ms", 0) > 0:
                m[f"{tag}.p99_ms"] = (pt["p99_ms"], "lower", LAT)
    return m


def extract_train_step(data):
    m = {}
    for case in data.get("cases", []):
        name = case.get("name", "case")
        for field, tol in (("step_ms", 1.0), ("raster_bwd_ms", 1.0),
                           ("composite_ms", LAT)):
            if field in case:
                m[f"{name}.{field}"] = (case[field], "lower", tol)
    return m


def extract_generic(data):
    """Fallback: scrape rps/p99 fields wherever they sit."""
    m = {}

    def walk(node, path):
        if isinstance(node, dict):
            label = node.get("name")
            for k, v in node.items():
                sub = f"{path}.{label or k}" if label and k != "name" else f"{path}.{k}"
                walk(v, sub if label is None else f"{path}.{label}.{k}")
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            leaf = path.rsplit(".", 1)[-1]
            if leaf == "rps" or leaf.endswith(("_rps", "_per_s")):
                m[path.lstrip(".")] = (node, "higher", 1.0)
            elif leaf == "p99_ms":
                m[path.lstrip(".")] = (node, "lower", LAT)
            elif leaf in ("fwd_ms", "bwd_ms", "step_ms"):
                m[path.lstrip(".")] = (node, "lower", 1.0)

    walk(data, "")
    return m


EXTRACTORS = {
    "serve": extract_serve,
    "overload": extract_overload,
    "train_step": extract_train_step,
}


def extract_metrics(bench, data):
    return EXTRACTORS.get(bench, extract_generic)(data)


# ---------------------------------------------------------------------------
# history

def history_path(history_dir, bench):
    return os.path.join(history_dir, f"{bench}.jsonl")


def load_history(history_dir, bench):
    path = history_path(history_dir, bench)
    records = []
    if not os.path.exists(path):
        return records
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                print(f"[bench_gate] skipping corrupt history line in {path}",
                      file=sys.stderr)
    return records


def make_record(bench, data):
    return {
        "ts": time.time(),
        "bench": bench,
        "smoke": bool(data.get("smoke", False)),
        "context_key": context_key(bench, data),
        "context": data.get("context", {}),
        "metrics": {k: v for k, (v, _d, _t) in
                    sorted(extract_metrics(bench, data).items())},
        "slo_breached": bool(data.get("slo_breached", False)),
    }


def record_run(args, data):
    os.makedirs(args.history, exist_ok=True)
    rec = make_record(args.bench, data)
    with open(history_path(args.history, args.bench), "a") as f:
        f.write(json.dumps(rec) + "\n")
    print(f"[bench_gate] recorded {args.bench} run "
          f"(context {rec['context_key']}, {len(rec['metrics'])} metrics) "
          f"-> {history_path(args.history, args.bench)}")
    return 0


# ---------------------------------------------------------------------------
# check

VERDICT_RANK = {"no_baseline": 0, "healthy": 0, "degraded": 1, "breached": 2}


def regression_ratio(value, baseline, direction):
    """Symmetric 'times worse than baseline, minus one': 3x slower and
    3x less throughput both come out as 2.0. <= 0 means no regression."""
    if baseline <= 0 or value <= 0:
        return 0.0
    if direction == "lower":
        return value / baseline - 1.0
    return baseline / value - 1.0


def check_run(args, data):
    key = context_key(args.bench, data)
    metrics = extract_metrics(args.bench, data)
    history = [r for r in load_history(args.history, args.bench)
               if r.get("context_key") == key]
    baseline_runs = history[-args.baseline_n:]

    smoke_scale = 2.0 if data.get("smoke", False) else 1.0
    results = []
    worst = "healthy"
    for name in sorted(metrics):
        value, direction, tol = metrics[name]
        base_values = [r["metrics"][name] for r in baseline_runs
                       if name in r.get("metrics", {})]
        entry = {"name": name, "value": value, "direction": direction}
        if not base_values:
            entry["verdict"] = "no_baseline"
            results.append(entry)
            continue
        baseline = (min(base_values) if direction == "lower"
                    else max(base_values))
        ratio = regression_ratio(value, baseline, direction)
        warn = args.warn * tol * smoke_scale
        fail = args.fail * tol * smoke_scale
        verdict = ("breached" if ratio > fail
                   else "degraded" if ratio > warn else "healthy")
        entry.update(baseline=baseline, ratio=round(ratio, 4),
                     warn=round(warn, 4), fail=round(fail, 4),
                     verdict=verdict)
        results.append(entry)
        if VERDICT_RANK[verdict] > VERDICT_RANK[worst]:
            worst = verdict

    slo_breached = bool(data.get("slo_breached", False))
    if slo_breached:
        worst = "breached"
    if not baseline_runs and worst == "healthy" and not slo_breached:
        overall = "no_baseline"
    else:
        overall = worst

    verdict_doc = {
        "bench": args.bench,
        "context_key": key,
        "smoke": bool(data.get("smoke", False)),
        "baseline_runs": len(baseline_runs),
        "slo_breached": slo_breached,
        "verdict": overall,
        "metrics": results,
    }
    out_path = args.out or f"BENCH_gate_{args.bench}.json"
    with open(out_path, "w") as f:
        json.dump(verdict_doc, f, indent=1)
        f.write("\n")

    regressed = [r for r in results
                 if r.get("verdict") in ("degraded", "breached")]
    print(f"[bench_gate] {args.bench}: {overall} "
          f"(context {key}, {len(baseline_runs)} baseline runs, "
          f"{len(regressed)} regressed metrics) -> {out_path}")
    for r in regressed:
        print(f"[bench_gate]   {r['verdict']}: {r['name']} = "
              f"{r['value']:.4g} vs baseline {r['baseline']:.4g} "
              f"({r['ratio']:+.0%}, fail band {r['fail']:.0%})")
    if slo_breached:
        print(f"[bench_gate]   breached: bench embedded slo_breached=true")
    return 1 if overall == "breached" else 0


def bless(args):
    path = history_path(args.history, args.bench)
    if not os.path.exists(path):
        print(f"[bench_gate] no history at {path}; nothing to bless")
        return 0
    records = load_history(args.history, args.bench)
    if args.context_of:
        with open(args.context_of) as f:
            key = context_key(args.bench, json.load(f))
        kept = [r for r in records if r.get("context_key") != key]
        dropped = len(records) - len(kept)
        with open(path, "w") as f:
            for r in kept:
                f.write(json.dumps(r) + "\n")
        print(f"[bench_gate] blessed {args.bench}: dropped {dropped} "
              f"records for context {key}; next run re-seeds the baseline")
    else:
        os.remove(path)
        print(f"[bench_gate] blessed {args.bench}: dropped all "
              f"{len(records)} records; next run re-seeds the baseline")
    return 0


# ---------------------------------------------------------------------------

def main(argv):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    default_history = os.path.join(repo_root, "bench", "history")

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=["record", "check", "gate", "bless"])
    ap.add_argument("--bench", required=True,
                    help="bench name (history file + extractor)")
    ap.add_argument("--json", help="BENCH_*.json produced by the bench")
    ap.add_argument("--history", default=default_history,
                    help=f"history directory (default {default_history})")
    ap.add_argument("--out", help="verdict JSON path "
                                  "(default BENCH_gate_<bench>.json)")
    ap.add_argument("--baseline-n", type=int, default=5,
                    help="baseline = best of the last N matched runs")
    ap.add_argument("--warn", type=float, default=0.15,
                    help="base degraded band (relative regression)")
    ap.add_argument("--fail", type=float, default=0.35,
                    help="base breached band (relative regression)")
    ap.add_argument("--context-of", help="bless: BENCH json whose "
                                         "context's records to drop")
    args = ap.parse_args(argv)

    if args.command == "bless":
        return bless(args)

    if not args.json:
        ap.error(f"{args.command} requires --json")
    try:
        with open(args.json) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"[bench_gate] cannot read {args.json}: {e}", file=sys.stderr)
        return 2

    if args.command == "record":
        return record_run(args, data)
    if args.command == "check":
        return check_run(args, data)
    # gate: judge against PRE-existing history, then record this run —
    # in that order, so a run is never compared against itself.
    rc = check_run(args, data)
    record_run(args, data)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
