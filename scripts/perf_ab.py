#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a parent revision against
a change.

Usage (from the repository root):

    python3 scripts/perf_ab.py --parent HEAD~1 --workload serve_city \\
        --seeds 11-20 [--seconds 30] [--trace 0] [--json perf_ab.json]
    python3 scripts/perf_ab.py --self-test

The parent revision is checked out in a temporary `git worktree`
(`--parent-dir` names an existing checkout instead); the change is the
working tree this script lives in (or `--change-dir`). Each side builds
and runs through its own perfbench/run.py with its own CARGO_TARGET_DIR
under `--workdir`, so the two builds never share objects.

For every workload, pair i runs both sides on seed i back to back; the
side that goes first alternates from pair to pair, so a slow phase of a
shared host lands on both. BENCHMARK.json (from the change) supplies each
end-to-end metric's name, direction (`better`) and bound. Per metric the
report gives each side's median and quartiles, the pairs the change won,
the ratio of the medians and a verdict:

  better            the change won at least 90% of the pairs and its
                    median beats the parent's by more than the parent's
                    interquartile distance, or every change run beats
                    every parent run
  unresolved        otherwise, when the parent's interquartile distance
                    exceeds the bound (as a share of its median): the
                    runs spread too widely to judge the metric
  worse than bound  the change's median is worse than the parent's by
                    more than the bound
  within bound      everything else

Per-layer metrics (`--trace 1` runs) have no bound; they get `better` or
`-`. The same table is written as JSON. Every run must print
"correct": true; the `repeatable` line of each seed is compared between
the sides.

Host contention: over each run's window the script reads the host's CPU
counters from /proc/stat (read only) and its own children's CPU time. It
reports, per side, the share of the host's CPU time that was stolen by
the hypervisor (steal) and the share that other processes used (busy
time minus the run's own), and flags the pairs in which either run saw
more than BUSY_SHARE of the host taken that way: their serving metrics
measured a busy host, not the change. Without /proc/stat the columns
read n/a.

`--self-test` checks the statistics, verdicts and contention arithmetic
on synthetic samples without building anything.
"""

import argparse
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Share of pairs the change must win for a "better" verdict.
WIN_SHARE = 0.9

# Share of the host's CPU time (steal + other processes) over a run's
# window above which the run, and its pair, count as run on a busy host.
BUSY_SHARE = 0.10


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def quartiles(vals):
    """(q1, median, q3), statistics.quantiles(n=4) as steadiness.py uses."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q = statistics.quantiles(vals, n=4)
    return q[0], med, q[2]


def is_better(a, b, better):
    """True when value a beats value b in direction @p better."""
    return a < b if better == "lower" else a > b


def judge(parent, change, better, bound):
    """Statistics and verdict of one metric over paired samples."""
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if is_better(c, p, better))
    pairs = min(len(parent), len(change))
    iqr = pq3 - pq1
    scale = abs(pmed)
    spread = iqr / scale if scale else (0.0 if iqr == 0 else math.inf)
    # Signed relative regression of the change's median (> 0 = worse).
    delta = cmed - pmed if better == "lower" else pmed - cmed
    worse = delta / scale if scale else (0.0 if delta == 0 else
                                         math.copysign(math.inf, delta))
    # Every change run beating every parent run settles a wide spread.
    separated = bool(parent) and bool(change) and all(
        is_better(c, p, better) for c in change for p in parent)
    if separated or (pairs > 0 and wins >= math.ceil(WIN_SHARE * pairs)
                     and -delta > iqr):
        verdict = "better"
    elif bound is None:
        verdict = "-"
    elif spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return {
        "parent": {"median": pmed, "q1": pq1, "q3": pq3, "values": parent},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "values": change},
        "wins": wins, "pairs": pairs,
        "ratio": cmed / pmed if pmed else None,
        "parent_spread": spread, "bound": bound, "better": better,
        "verdict": verdict,
    }


def cpu_ticks(text):
    """(total, busy, steal) ticks of the aggregate "cpu" line of
    /proc/stat text; busy excludes idle, iowait and steal (guest time is
    already inside user)."""
    for line in text.splitlines():
        if line.startswith("cpu "):
            v = [int(x) for x in line.split()[1:9]]
            v += [0] * (8 - len(v))
            user, nice, system, idle, iowait, irq, softirq, steal = v
            busy = user + nice + system + irq + softirq
            return busy + idle + iowait + steal, busy, steal
    return None


def read_cpu_ticks():
    try:
        with open("/proc/stat") as f:
            return cpu_ticks(f.read())
    except OSError:
        return None


def children_cpu_s():
    """CPU seconds of this process's waited-for descendants."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def contention(before, after, own_cpu_s, hz):
    """Steal and other-process shares of the host's CPU time between two
    cpu_ticks() readings, the run itself having used @p own_cpu_s; None
    without readings."""
    if before is None or after is None or after[0] <= before[0]:
        return None
    total = after[0] - before[0]
    other = max(0.0, after[1] - before[1] - own_cpu_s * hz)
    return {"steal": (after[2] - before[2]) / total, "other": other / total}


def busy_pairs(parent, change):
    """1-based pairs in which either run's steal + other share exceeds
    BUSY_SHARE."""
    def busy(c):
        return c is not None and c["steal"] + c["other"] > BUSY_SHARE
    return [i + 1 for i, (p, c) in enumerate(zip(parent, change))
            if busy(p) or busy(c)]


def contention_line(side, runs):
    """One report line: median [max] steal and other share of a side."""
    known = [c for c in runs if c is not None]
    if not known:
        return "%-7s steal n/a, other processes n/a" % side
    def stat(key):
        vals = [c[key] for c in known]
        return "%.1f%% [max %.1f%%]" % (100 * statistics.median(vals),
                                        100 * max(vals))
    return "%-7s steal %s, other processes %s" % (side, stat("steal"),
                                                  stat("other"))


def load_build(side_root):
    """The build() of @p side_root's perfbench/run.py."""
    path = os.path.join(side_root, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.build


def run_once(side_root, target, workload, seed, seconds, trace):
    """One benchmark run: (result object, repeatable object or None,
    host contention over the run or None)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(side_root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    ticks, own = read_cpu_ticks(), children_cpu_s()
    proc = subprocess.run(cmd, cwd=side_root, env=env, capture_output=True,
                          text=True)
    host = contention(ticks, read_cpu_ticks(), children_cpu_s() - own,
                      os.sysconf("SC_CLK_TCK"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError("%s seed %d: exit %d" % (side_root, seed,
                                                     proc.returncode))
    result = json.loads(lines[-1])
    repeatable = None
    if len(lines) > 1 and lines[-2].startswith('{"repeatable"'):
        repeatable = json.loads(lines[-2])["repeatable"]
    return result, repeatable, host


def report(workload, rows, out=sys.stdout):
    out.write("\n== %s ==\n" % workload)
    out.write("%-28s %-30s %-30s %-6s %-7s %s\n" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "wins", "ratio", "verdict"))
    for name, r in rows.items():
        p, c = r["parent"], r["change"]
        out.write("%-28s %-30s %-30s %-6s %-7s %s\n" % (
            name,
            "%.4g [%.4g, %.4g]" % (p["median"], p["q1"], p["q3"]),
            "%.4g [%.4g, %.4g]" % (c["median"], c["q1"], c["q3"]),
            "%d/%d" % (r["wins"], r["pairs"]),
            "-" if r["ratio"] is None else "%.3f" % r["ratio"],
            r["verdict"]))


def run_ab(args):
    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec.get("per_layer", [])}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = seeds_of(args.seeds)

    workdir = args.workdir or tempfile.mkdtemp(prefix="perf_ab_")
    os.makedirs(workdir, exist_ok=True)
    worktree = None
    parent_dir = args.parent_dir
    if parent_dir is None:
        worktree = os.path.join(workdir, "parent_src")
        if os.path.exists(worktree):
            subprocess.call(["git", "-C", ROOT, "worktree", "remove",
                             "--force", worktree])
        subprocess.check_call(["git", "-C", ROOT, "worktree", "add",
                               "--detach", worktree, args.parent])
        parent_dir = worktree
    sides = {
        "parent": (os.path.abspath(parent_dir),
                   os.path.join(workdir, "target_parent")),
        "change": (os.path.abspath(args.change_dir),
                   os.path.join(workdir, "target_change")),
    }
    try:
        for name, (root, target) in sides.items():
            print("building %s (%s)" % (name, root), file=sys.stderr)
            if not load_build(root)(target):
                raise RuntimeError("build of %s failed" % name)

        table = {"seeds": seeds, "seconds": seconds, "trace": args.trace,
                 "workloads": {}}
        for workload in workloads:
            samples = {"parent": [], "change": []}
            repeatable = {"parent": [], "change": []}
            host = {"parent": [], "change": []}
            correct = True
            for i, seed in enumerate(seeds):
                order = ["parent", "change"] if i % 2 == 0 else \
                        ["change", "parent"]
                for side in order:
                    root, target = sides[side]
                    result, rep, busy = run_once(root, target, workload,
                                                 seed, seconds, args.trace)
                    host[side].append(busy)
                    correct = correct and bool(result.get("correct"))
                    samples[side].append({k: v["value"] for k, v in
                                          result["metrics"].items()})
                    repeatable[side].append(rep)
                print("%s pair %d/%d (seed %d) done" % (
                    workload, i + 1, len(seeds), seed), file=sys.stderr)

            rows = {}
            for name in list(end_to_end) + list(per_layer):
                if not all(name in s for s in
                           samples["parent"] + samples["change"]):
                    continue
                m = end_to_end.get(name) or per_layer[name]
                rows[name] = judge([s[name] for s in samples["parent"]],
                                   [s[name] for s in samples["change"]],
                                   m["better"], m.get("bound")
                                   if name in end_to_end else None)
            same = sum(1 for a, b in zip(repeatable["parent"],
                                         repeatable["change"]) if a == b)
            busy = busy_pairs(host["parent"], host["change"])
            table["workloads"][workload] = {
                "all_correct": correct,
                "repeatable_identical": "%d/%d" % (same, len(seeds)),
                "metrics": rows,
                "host_contention": dict(host, busy_pairs=busy),
            }
            report(workload, rows)
            print("every run correct: %s; repeatable line identical on "
                  "%d/%d seeds" % (correct, same, len(seeds)))
            print("host contention over the runs (median [max] share of "
                  "the host's CPU time):")
            for side in ("parent", "change"):
                print("  " + contention_line(side, host[side]))
            print("pairs on a busy host (steal + other > %d%%): %s" % (
                round(100 * BUSY_SHARE),
                ", ".join(map(str, busy)) if busy else "none"))
        with open(args.json, "w") as f:
            json.dump(table, f, indent=1)
        print("\nwrote %s" % args.json)
    finally:
        if worktree is not None:
            subprocess.call(["git", "-C", ROOT, "worktree", "remove",
                             "--force", worktree])
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


def self_test():
    """Statistics and verdicts on synthetic samples; no build, no run."""
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    q1, med, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    check((q1, med, q3) == (2.75, 5.5, 8.25), "quartiles %r" %
          ((q1, med, q3),))
    check(quartiles([4.0]) == (4.0, 4.0, 4.0), "quartiles of one sample")

    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    # A 0.6x setup time, lower is better: 10/10 wins, far beyond IQR.
    r = judge(base, [0.6 * x for x in base], "lower", 0.25)
    check(r["verdict"] == "better", "clear gain: %s" % r["verdict"])
    check(r["wins"] == 10 and r["pairs"] == 10, "wins %d" % r["wins"])
    check(abs(r["ratio"] - 0.6) < 1e-9, "ratio %r" % r["ratio"])
    # The same samples, higher is better: a 40% regression.
    r = judge(base, [0.6 * x for x in base], "higher", 0.25)
    check(r["verdict"] == "worse than bound", "regression: %s" %
          r["verdict"])
    check(r["wins"] == 0, "regression wins %d" % r["wins"])
    # 5% slower with a 25% bound: within.
    r = judge(base, [1.05 * x for x in base], "lower", 0.25)
    check(r["verdict"] == "within bound", "small move: %s" % r["verdict"])
    # A parent spread wider than the bound cannot be judged.
    wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0]
    r = judge(wide, [1.1 * x for x in wide], "lower", 0.25)
    check(r["verdict"] == "unresolved", "wide parent: %s" % r["verdict"])
    # A wide parent spread, but every change run beats every parent run.
    r = judge(wide, [0.4 - 0.01 * i for i in range(10)], "lower", 0.25)
    check(r["verdict"] == "better", "separated: %s" % r["verdict"])
    # Winning 8 of 10 pairs is not enough for "better".
    change = [0.9 * x for x in base]
    change[0], change[1] = 2.0, 2.0
    r = judge(base, change, "lower", 0.25)
    check(r["wins"] == 8, "8/10 wins: %d" % r["wins"])
    check(r["verdict"] != "better", "8/10 wins judged better")
    # 9 of 10 pairs, median inside the parent's IQR: not "better".
    r = judge(base, [x - 0.001 for x in base[:9]] + [base[9] + 1],
              "lower", 0.25)
    check(r["verdict"] == "within bound", "inside IQR: %s" % r["verdict"])
    # A zero median (ok_frac-like fractions of failures) stays finite.
    r = judge([0.0] * 10, [0.0] * 10, "lower", 0.01)
    check(r["verdict"] == "within bound" and r["ratio"] is None,
          "zero median: %s %r" % (r["verdict"], r["ratio"]))
    r = judge([0.0] * 10, [0.5] * 10, "lower", 0.01)
    check(r["verdict"] == "worse than bound", "from zero: %s" %
          r["verdict"])
    # No bound (per-layer metric): "-" unless it is a clear gain.
    r = judge(base, [1.05 * x for x in base], "lower", None)
    check(r["verdict"] == "-", "per-layer: %s" % r["verdict"])
    check(seeds_of("1-3,7") == [1, 2, 3, 7], "seeds_of")

    # Host contention from /proc/stat counters.
    stat = ("cpu  100 5 20 800 10 2 3 60 7 0\n"
            "cpu0 50 2 10 400 5 1 1 30 0 0\nintr 1 2 3\n")
    check(cpu_ticks(stat) == (1000, 130, 60), "cpu_ticks %r" %
          (cpu_ticks(stat),))
    check(cpu_ticks("cpu  1 2 3 4\n") == (10, 6, 0), "short cpu line")
    check(cpu_ticks("intr 1 2\n") is None, "no cpu line")
    # 1000 ticks at 100 Hz: 50 stolen, 400 busy of which 3 s are ours.
    c = contention((0, 0, 0), (1000, 400, 50), 3.0, 100)
    check(abs(c["steal"] - 0.05) < 1e-12 and abs(c["other"] - 0.1) < 1e-12,
          "contention %r" % (c,))
    # Own CPU beyond the host's busy delta (tick rounding) is not negative.
    c = contention((0, 0, 0), (1000, 100, 0), 2.0, 100)
    check(c["other"] == 0.0, "clamped other %r" % (c,))
    check(contention(None, (1, 1, 1), 0, 100) is None, "no reading")
    check(contention((5, 0, 0), (5, 0, 0), 0, 100) is None, "empty window")
    quiet = {"steal": 0.01, "other": 0.02}
    loud = {"steal": 0.02, "other": 0.5}
    check(busy_pairs([quiet, loud, quiet, None], [quiet, quiet, loud, None])
          == [2, 3], "busy pairs")
    check("n/a" in contention_line("parent", [None]), "n/a line")
    check("5.0%" in contention_line("change", [quiet, {"steal": 0.05,
                                                      "other": 0}, loud]),
          "steal line")

    for f in failures:
        print("self-test FAILED: " + f)
    if not failures:
        print("perf_ab self-test passed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--parent", default="HEAD~1",
                    help="parent revision (checked out in a git worktree)")
    ap.add_argument("--parent-dir",
                    help="an existing checkout of the parent instead")
    ap.add_argument("--change-dir", default=ROOT)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default every BENCHMARK.json workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int,
                    help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--workdir",
                    help="builds go here and are kept (default: a "
                         "temporary directory, removed afterwards)")
    ap.add_argument("--json", default="perf_ab.json")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    return run_ab(args)


if __name__ == "__main__":
    sys.exit(main())
