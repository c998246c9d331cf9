#!/usr/bin/env python3
"""End-to-end checks of the benchmark command itself.

Usage (from the repository root):

    python3 perfbench/tests/test_checks.py

1. A clean short run exits 0 with "correct": true.
2. Every output check fails the run when its condition is broken by a
   benchmark-side corrupted input (--corrupt loss|psnr|unresolved|frame,
   and --corrupt spans on a traced run): non-zero exit, "correct": false.
3. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits non-zero without printing a result.
4. The counts that should repeat for a fixed seed are compared across two
   runs of one seed; any that differ are reported (not a failure: the TSP
   orderer runs under a wall-clock budget).
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOAD = "serve_city"


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run(args, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", WORKLOAD, "--seconds", "4"] + args
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, lines


def main():
    failures = []

    rc, result, _ = run(["--seed", "5", "--trace", "0"])
    if rc != 0 or not result or not result["correct"]:
        failures.append("clean run: exit %d, result %s" % (rc, result))
    print("clean run: exit %d" % rc)

    for kind, trace in (("loss", "0"), ("psnr", "0"), ("unresolved", "0"),
                        ("frame", "0"), ("spans", "1")):
        rc, result, _ = run(["--seed", "5", "--trace", trace,
                             "--corrupt", kind])
        caught = rc != 0 and (result is None or not result["correct"])
        print("corrupt %-10s exit %d -> %s"
              % (kind, rc, "caught" if caught else "MISSED"))
        if not caught:
            failures.append("corrupt %s not caught" % kind)

    bare = os.path.join(build_dir(), "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    rc, result, _ = run(["--seed", "5", "--trace", "0"], cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    print("bare checkout: exit %d, result printed: %s"
          % (rc, result is not None))
    if rc == 0 or result is not None:
        failures.append("bare checkout did not fail cleanly")

    repeats = []
    for _ in range(2):
        rc, _, lines = run(["--seed", "7", "--trace", "0"])
        rows = [json.loads(l) for l in lines if l.startswith('{"repeatable"')]
        repeats.append(rows[0]["repeatable"] if rows else {})
    differ = [k for k in repeats[0] if repeats[0].get(k) != repeats[1].get(k)]
    print("repeatable counts that differ between two seed-7 runs: %s"
          % (", ".join(differ) or "none"))

    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    print("all checks behaved as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
