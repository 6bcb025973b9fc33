#!/usr/bin/env bash
#
# Line-coverage report for src/ — a report, not a gate (check.sh does
# not call it). It answers "which code does no figure, figure-test or
# example need" (ROADMAP item 9):
#   1. build the benches and examples with --coverage -O1 into a
#      separate tree (default: build-coverage)
#   2. run every bench_fig*, bench_table3_subtree, every bench_ablation_*
#      and every example at smoke scale, then report per-file line
#      coverage for this "figures+examples" set
#   3. run bench_scenarios, bench_namespace_scale (200k inodes, 4 MB
#      budget), bench_overload, bench_kernel, bench_micro_structures and
#      check.sh's two observability runs, then report the "full" set,
#      plus the lfs:: functions no run executed, per file
#
# Everything runs with LFS_SWEEP_JOBS=1: forked sweep children leave
# through _exit (bench/common/sweep.cc) and never flush their counters.
# Fig 12 and Fig 14 take ~2 minutes each at this scale.
#
# Usage: scripts/coverage.sh [build-dir]

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-coverage}"
OUT_DIR="$BUILD_DIR/coverage-runs"

echo "== configure + build (--coverage -O1) =="
# A build type with no flags of its own, so -O1 is the only level.
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Coverage \
    -DCMAKE_CXX_FLAGS="--coverage -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
TARGETS=$(cd bench && ls bench_*.cc | sed 's/\.cc$//')
TARGETS="$TARGETS $(cd examples && ls *.cpp | sed 's/^/example_/; s/\.cpp$//')"
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR" -j"$(nproc)" --target $TARGETS
find "$BUILD_DIR" -name '*.gcda' -delete
mkdir -p "$OUT_DIR"

export LFS_SWEEP_JOBS=1
export LFS_BENCH_SCALE=0.03 LFS_DURATION=10 LFS_OPS_PER_CLIENT=4
export LFS_MAX_CLIENTS=16 LFS_TT_FIXED_TOTAL=8000 LFS_TT_PER_CLIENT=80

# A bench's own checks may fail on an instrumented build (bench_kernel's
# overhead audit does); its counters are recorded all the same.
run() {
    local name="$1"
    shift
    local t0=$SECONDS status=0
    "$@" >"$OUT_DIR/$name.out" 2>&1 || status=$?
    echo "  $name: $((SECONDS - t0)) s, exit $status"
}

# Per-file executed/executable lines over src/*.cc, and (with --functions)
# the lfs:: functions never entered, from gcov's JSON intermediate format.
read -r -d '' SUMMARIZE <<'EOF' || true
import json
import sys

functions = "--functions" in sys.argv
files = {}
decoder = json.JSONDecoder()
text = sys.stdin.read()
pos = 0
while pos < len(text):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        break
    doc, pos = decoder.raw_decode(text, pos)
    for f in doc["files"]:
        name = f["file"]
        cut = name.rfind("src/")
        if cut < 0 or not name.endswith(".cc"):
            continue
        name = name[cut:]
        entry = files.setdefault(name, {"lines": {}, "fns": {}})
        for line in f["lines"]:
            n = line["line_number"]
            entry["lines"][n] = entry["lines"].get(n, 0) + line["count"]
        for fn in f["functions"]:
            key = fn["demangled_name"]
            entry["fns"][key] = (entry["fns"].get(key, 0) +
                                 fn["execution_count"])
total_hit = total = 0
for name in sorted(files):
    lines = files[name]["lines"]
    hit = sum(1 for c in lines.values() if c > 0)
    total_hit += hit
    total += len(lines)
    pct = 100.0 * hit / len(lines) if lines else 100.0
    print(f"  {pct:5.1f}%  {hit:5d}/{len(lines):<5d}  {name}")
    if functions:
        for fn in sorted(k for k, c in files[name]["fns"].items()
                         if c == 0 and k.startswith("lfs::")):
            print(f"           unexecuted: {fn}")
print(f"  TOTAL {100.0 * total_hit / max(total, 1):.1f}% "
      f"({total_hit} of {total} executable src/*.cc lines)")
EOF

report() {
    local title="$1"
    shift
    echo "== $title =="
    find "$BUILD_DIR/src" -name '*.gcda' | sort | while read -r gcda; do
        (cd "$(dirname "$gcda")" &&
            gcov --stdout --json-format "$(basename "$gcda")" 2>/dev/null)
    done | python3 -c "$SUMMARIZE" "$@"
}

echo "== figures + examples (smoke scale) =="
for b in "$BUILD_DIR"/bench/bench_fig* "$BUILD_DIR"/bench/bench_table3_subtree \
         "$BUILD_DIR"/bench/bench_ablation_*; do
    run "$(basename "$b")" "$b"
done
for e in "$BUILD_DIR"/examples/example_*; do
    run "$(basename "$e")" "$e"
done
report "coverage: figures + examples"

echo "== other benches + observability runs =="
run bench_scenarios "$BUILD_DIR/bench/bench_scenarios"
run bench_namespace_scale env LFS_NS_MAX_INODES=200000 LFS_NS_BUDGET_MB=4 \
    LFS_NS_RESOLVES=20000 "$BUILD_DIR/bench/bench_namespace_scale"
run bench_overload "$BUILD_DIR/bench/bench_overload"
run bench_kernel env LFS_KERNEL_EVENTS=200000 LFS_KERNEL_REPS=1 \
    "$BUILD_DIR/bench/bench_kernel"
run bench_micro_structures "$BUILD_DIR/bench/bench_micro_structures" \
    --benchmark_min_time=0.01
run observability_fig10 "$BUILD_DIR/bench/bench_fig10_latency_cdf" \
    --trace-out="$OUT_DIR/trace.json" --metrics-out="$OUT_DIR/metrics.json"
run attribution_fig11 "$BUILD_DIR/bench/bench_fig11_client_scaling" \
    --attribution --metrics-out="$OUT_DIR/attr_metrics.json" \
    --trace-out="$OUT_DIR/attr_trace.json"
report "coverage: full set" --functions
