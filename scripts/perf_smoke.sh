#!/usr/bin/env bash
#
# Perf-smoke gate: catches event-kernel dispatch-rate regressions.
#
#   1. bench_kernel at reduced scale (LFS_KERNEL_EVENTS=300k, 3 reps);
#      each case's events_per_sec must stay within the regression
#      tolerance of its checked-in baseline (scripts/perf_baseline.json).
#      Baselines sit well below (~60% of) the reference container's
#      measured rates so ordinary machine variance never false-fails —
#      the gate is tuned to catch the >20% regression class, e.g.
#      reintroducing a per-event heap allocation. Its attribution audit
#      fails the run; its tracing_delta line is a report (the
#      disabled-tracer gate is the ctest
#      TracedLambdaFs.TracingOffTouchesNoTracerState).
#   2. bench_micro_structures cache-walk, namespace, write-path and
#      result-cache cases (hit/miss/deep/put_chain/guarded chain
#      install/prefix-invalidate, resolve_ids/lookup_child/create,
#      invalidate-with-read-in-flight/
#      lock-table cycle, lookup/complete/release round): per-op
#      nanoseconds must stay below the checked-in ceilings — the gate
#      for the zero-allocation metadata-cache walk and guard log
#      (DESIGN.md par.14), the slab-resident namespace hot paths
#      (par.15), the flat row-lock table and the retained-result slab
#      (par.10).
#   3. bench_fig11_client_scaling at tiny scale: end-to-end sanity that
#      a full harness still reports [perf] lines and clears its floor.
#      Pinned to LFS_SWEEP_JOBS=1: the wall-clock floor assumes runs do
#      not share the machine with sibling sweep points.
#   4. bench_scenarios at tiny scale: the extended op surface (links,
#      sessions, GC) must succeed on every system, reclaim every leaked
#      lease, and leave no orphans — a cross-system lifecycle smoke.
#   5. bench_namespace_scale at 1M inodes under the default 64 MB budget:
#      the two-tier namespace must page file records out, keep budgeted
#      bytes/inode under its checked-in ceiling, and keep the unbudgeted
#      point entirely out of the cold tier (DESIGN.md par.15).
#
# The floors and ceilings of steps 1, 2, 3 and 5 are checked by
# scripts/lfs_report.py --perf-gate over the captured outputs.
#
# All runs append one dated JSON line to the checked-in trajectory
# files (BENCH_kernel.json / BENCH_micro.json / BENCH_fig11.json /
# BENCH_scenarios.json / BENCH_namespace.json) so the repo accumulates
# a perf time series;
# render it with scripts/lfs_report.py --trajectory.
#
# Usage: scripts/perf_smoke.sh [build-dir]   (default: build)
# Skip with LFS_SKIP_PERF=1 (e.g. on emulated or heavily-shared hosts).
# Skip the trajectory append with LFS_SKIP_BENCH_LOG=1.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BASELINE_JSON="scripts/perf_baseline.json"

if [[ "${LFS_SKIP_PERF:-0}" == "1" ]]; then
    echo "== perf smoke skipped (LFS_SKIP_PERF=1) =="
    exit 0
fi

KERNEL_LOG="BENCH_kernel.json"
MICRO_LOG="BENCH_micro.json"
FIG11_LOG="BENCH_fig11.json"
SCENARIOS_LOG="BENCH_scenarios.json"
NAMESPACE_LOG="BENCH_namespace.json"
if [[ "${LFS_SKIP_BENCH_LOG:-0}" == "1" ]]; then
    KERNEL_LOG=""
    MICRO_LOG=""
    FIG11_LOG=""
    SCENARIOS_LOG=""
    NAMESPACE_LOG=""
fi

echo "== perf smoke: bench_kernel =="
KERNEL_OUT="$(LFS_KERNEL_EVENTS="${LFS_PERF_EVENTS:-300000}" \
    LFS_KERNEL_REPS="${LFS_PERF_REPS:-3}" \
    LFS_BENCH_LOG="$KERNEL_LOG" \
    "$BUILD_DIR/bench/bench_kernel")"
echo "$KERNEL_OUT" | grep '^\[bench_kernel\]'

echo "== perf smoke: bench_micro_structures (cache-walk, namespace, write-path, result-cache ceilings) =="
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
MICRO_JSON="$WORK/micro.json"
"$BUILD_DIR/bench/bench_micro_structures" --benchmark_filter='Cache|BM_Ns|LockTable' \
    --benchmark_format=json --benchmark_min_time=0.1 > "$MICRO_JSON"

echo "== perf smoke: bench_fig11_client_scaling (tiny scale, serial) =="
FIG11_OUT="$(LFS_OPS_PER_CLIENT=8 LFS_SWEEP_JOBS=1 \
    LFS_BENCH_LOG="$FIG11_LOG" \
    "$BUILD_DIR/bench/bench_fig11_client_scaling")"

echo "== perf smoke: bench_scenarios (extended op surface, tiny scale) =="
SCENARIOS_OUT="$(LFS_SCENARIO_ROUNDS=10 LFS_SWEEP_JOBS=1 \
    LFS_BENCH_LOG="$SCENARIOS_LOG" \
    "$BUILD_DIR/bench/bench_scenarios")"
if echo "$SCENARIOS_OUT" | grep -q 'MEASURED: NO'; then
    echo "$SCENARIOS_OUT" | grep 'MEASURED:'
    echo "FAIL: bench_scenarios lifecycle check failed"
    echo "== perf smoke FAILED =="
    exit 1
fi
if [[ "$(echo "$SCENARIOS_OUT" | grep -c 'MEASURED: yes')" -lt 3 ]]; then
    echo "FAIL: bench_scenarios printed fewer than 3 passing checks"
    echo "== perf smoke FAILED =="
    exit 1
fi
if ! echo "$SCENARIOS_OUT" | grep -q '^\s*\[perf\]'; then
    echo "FAIL: no [perf] events_per_sec lines in bench_scenarios output"
    echo "== perf smoke FAILED =="
    exit 1
fi
echo "  ok: extended op surface clean on every system " \
     "($(echo "$SCENARIOS_OUT" | grep -c '^\s*\[perf\]') observed runs)"

echo "== perf smoke: bench_namespace_scale (two-tier paging, 1M inodes) =="
NS_OUT="$(LFS_NS_MAX_INODES="${LFS_PERF_NS_INODES:-1000000}" \
    LFS_NS_RESOLVES=50000 LFS_SWEEP_JOBS=1 \
    LFS_BENCH_LOG="$NAMESPACE_LOG" \
    "$BUILD_DIR/bench/bench_namespace_scale")"

printf '%s\n' "$KERNEL_OUT" > "$WORK/kernel.txt"
printf '%s\n' "$FIG11_OUT" > "$WORK/fig11.txt"
printf '%s\n' "$NS_OUT" > "$WORK/namespace.txt"
if ! python3 scripts/lfs_report.py --perf-gate "$BASELINE_JSON" \
        --micro-json "$MICRO_JSON" --micro-log "$MICRO_LOG" \
        --kernel-out "$WORK/kernel.txt" --fig11-out "$WORK/fig11.txt" \
        --ns-out "$WORK/namespace.txt"
then
    echo "== perf smoke FAILED =="
    exit 1
fi
echo "== perf smoke passed =="
