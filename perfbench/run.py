#!/usr/bin/env python3
"""Build and run the λFS-sim benchmark.

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild only what changed. Build output goes to stderr.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1. The line before it is the
benchmark's full record (units, directions, sample counts, seed, workload
hash, build type, each correctness check). The exit code is non-zero when
the build fails or any correctness check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(target):
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "-j", jobs,
                 "--target", target]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return build_dir / target


def summary_line(record, trace):
    """The summary line: the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    measured = {m["name"]: m for m in record["metrics"]}
    metrics = {}
    for entry in wanted:
        m = measured.get(entry["name"])
        if m is None:
            sys.exit("perfbench: record lacks metric " + entry["name"])
        metrics[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": all(record["checks"].values()),
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests and exit")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(subprocess.run([str(build("perfbench_selftest"))]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    binary = build("perfbench")
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: no record (exit code %d)" % proc.returncode)
    record = json.loads(lines[-1])
    summary = summary_line(record, args.trace == 1)
    print(lines[-1])
    print(json.dumps(summary))
    if proc.returncode != 0 or not summary["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
