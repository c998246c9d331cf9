#!/usr/bin/env bash
# Build and run the serving micro-benchmark, emitting BENCH_serve.json
# in the repo root: requests/sec and p50/p99 latency of the
# RenderService over city-scale models, swept across coalescing batch
# sizes 1/2/4/8 (every batch, a batch of one included, renders through
# the fused multi-view pipeline, whose frames are verified bit-identical
# to sequential renders under the dispatched and the forced-scalar
# kernel tables before timing), then open-loop arrivals at 1x/2x/4x of
# the batch-4 rps against the Reject admission configuration (6-deep
# queue, per-request deadline), plus a worker-stall fault point.
#
# Invariants the binary itself enforces (non-zero exit on violation):
#   - batched, traced and admitted open-loop frames are bitwise equal
#     to direct renders;
#   - hung_requests == 0: every open-loop future resolves;
#   - no sweep point and no clean open-loop point breaches its SLO,
#     and the worker-stall fault point does.
#
# The JSON includes the machine/build context block (thread count,
# compiler, SIMD backend, CLM_DISABLE_SIMD). Worker threads default to
# CLM_THREADS=1 so recorded points are single-core-comparable across
# runs; export CLM_THREADS to override (e.g. CLM_THREADS=4 for the
# multi-core point).
#
# Uses the shared build-release/ tree so it never flips the cached
# build type of the default build/ directory that verify.sh uses.
#
# Usage: scripts/bench_serve.sh [--smoke]
#   --smoke   tiny single-case run (CI "builds and runs" gate)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
export CLM_THREADS="${CLM_THREADS:-1}"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"$JOBS" --target micro_serve
./build-release/micro_serve "$@" --out BENCH_serve.json

# Judge this run against the matched-context bench history, then record
# it (bench/history/serve.jsonl). Exits non-zero on a breached regression
# or an embedded SLO breach. Skip with CLM_BENCH_GATE=off; bless a new
# baseline after an intentional perf change with
#   python3 scripts/bench_gate.py bless --bench serve --context-of BENCH_serve.json
if [ "${CLM_BENCH_GATE:-on}" != "off" ]; then
  python3 scripts/bench_gate.py gate --bench serve --json BENCH_serve.json
fi
