#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_city --seed 1 --seconds 10 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the program
from ../src) into $CARGO_TARGET_DIR or .bench_build, pins the program's
thread pool at CLM_THREADS=min(nproc, 4), and runs it. The program's last
line of standard output is the result object. Build output goes to
standard error. Extra flags (for example --corrupt frame) are passed on.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", BENCH, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]]
    if os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def git_commit():
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["CLM_THREADS"] = str(min(os.cpu_count() or 1, 4))
    cmd = [os.path.join(out, "perfbench"), *sys.argv[1:],
           "--git-commit", git_commit()]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
