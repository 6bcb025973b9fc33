#!/usr/bin/env python3
"""Latency attribution report (DESIGN.md section 11).

Reads the metrics JSON written by a bench harness run with
``--metrics-out=PATH --attribution`` and prints, per captured run and
system:

  * the per-segment attribution table (count / mean / p50 / p99 / share
    of end-to-end mean), reconstructed from the exported
    ``attr.segment{system=...,seg=...}`` histograms;
  * a latency CDF of ``attr.total`` rendered from the exported histogram
    buckets;
  * the tail-exemplar flight-recorder summary: the worst retained ops
    with their dominant segments and span-tree sizes.

Modes:
  lfs_report.py METRICS.json                   human-readable report
  lfs_report.py METRICS.json --check-segments N
                                               exit 1 unless at least N
                                               distinct segments carry
                                               nonzero time (CI smoke)
  lfs_report.py METRICS.json --check-exemplars N
                                               exit 1 unless at least N
                                               exemplars were retained
  lfs_report.py --trajectory BENCH_kernel.json show a checked-in perf
                                               trajectory file as a
                                               time series per case
  lfs_report.py --perf-gate scripts/perf_baseline.json --micro-json M
      --micro-log LOG --kernel-out K --fig11-out F --ns-out N
                                               the perf-smoke gate
                                               (scripts/perf_smoke.sh):
                                               exit 1 unless every
                                               captured bench output
                                               clears its checked-in
                                               floor or ceiling

The segment taxonomy and the "segments sum to end-to-end" invariant are
defined in src/sim/latency.h. Segment histograms hold only the ops where
the segment saw time (mean/p50/p99 are conditional on occurrence); the
additive quantity is the contribution mean x count / total ops, and the
contributions sum to the end-to-end mean exactly because each op's
finalized ledger sums to its end-to-end latency.
"""

import argparse
import json
import re
import sys
import time

# Taxonomy order from src/sim/latency.h — the table reads client ->
# gateway -> NameNode -> store top to bottom.
SEGMENT_ORDER = [
    "client_backoff",
    "client_retry_wait",
    "net_client",
    "net_gateway",
    "gateway_queue",
    "cold_start_wait",
    "namenode_cpu",
    "net_store",
    "store_lock_wait",
    "store_queue",
    "store_service",
    "coherence",
    "unattributed",
]


def fmt_ms(us):
    return f"{us / 1e3:.3f}"


def load_runs(path):
    with open(path) as f:
        doc = json.load(f)
    runs = doc.get("runs", [])
    if not runs:
        sys.exit(f"error: {path} contains no runs")
    return runs


def attribution_of(run):
    """-> {system: {"total": hist, "segments": {seg: hist}}}"""
    out = {}
    for m in run.get("data", {}).get("metrics", []):
        labels = m.get("labels", {})
        system = labels.get("system")
        if m.get("type") != "histogram" or system is None:
            continue
        entry = out.setdefault(system, {"total": None, "segments": {}})
        if m["name"] == "attr.total":
            entry["total"] = m
        elif m["name"] == "attr.segment":
            entry["segments"][labels.get("seg", "?")] = m
    return {s: e for s, e in out.items() if e["total"] is not None}


def print_table(system, entry):
    total = entry["total"]
    if total["count"] == 0:
        return 0
    e2e_mean = total["mean"]
    print(f"  [{system}] ops={total['count']} "
          f"e2e mean={fmt_ms(e2e_mean)} ms "
          f"p50={fmt_ms(total['p50'])} ms p99={fmt_ms(total['p99'])} ms")
    print(f"    {'segment':<18} {'count':>10} {'mean_ms':>10} "
          f"{'p50_ms':>10} {'p99_ms':>10} {'share%':>7}")
    nonzero = 0
    contrib_sum = 0.0
    for seg in SEGMENT_ORDER:
        h = entry["segments"].get(seg)
        if h is None or h["count"] == 0 or h["max"] == 0:
            continue
        contrib = h["mean"] * h["count"] / total["count"]
        contrib_sum += contrib
        nonzero += 1
        share = 100.0 * contrib / e2e_mean if e2e_mean > 0 else 0.0
        print(f"    {seg:<18} {h['count']:>10} {fmt_ms(h['mean']):>10} "
              f"{fmt_ms(h['p50']):>10} {fmt_ms(h['p99']):>10} "
              f"{share:>6.1f}%")
    print(f"    sum of segment contributions = {fmt_ms(contrib_sum)} ms "
          f"(e2e mean {fmt_ms(e2e_mean)} ms)")
    drift = abs(contrib_sum - e2e_mean)
    if e2e_mean > 0 and drift > max(1.0, 0.001 * e2e_mean):
        print(f"    WARNING: attribution does not sum to end-to-end "
              f"(drift {fmt_ms(drift)} ms)")
    return nonzero


def print_cdf(system, entry, width=48):
    total = entry["total"]
    buckets = total.get("buckets", [])
    if not buckets or total["count"] == 0:
        return
    n = total["count"]
    print(f"    e2e latency CDF ({system}):")
    cum = 0
    last_pct = -10.0
    for b in buckets:
        cum += b["count"]
        pct = 100.0 * cum / n
        # Thin the rendering: print a bar when the CDF advanced enough.
        if pct - last_pct < 5.0 and cum != n:
            continue
        last_pct = pct
        bar = "#" * int(round(width * cum / n))
        print(f"      <= {fmt_ms(b['le']):>10} ms "
              f"{bar:<{width}} {pct:5.1f}%")


def dominant_segments(ledger, k=3):
    ranked = sorted(ledger.items(), key=lambda kv: kv[1], reverse=True)
    return ", ".join(f"{seg}={fmt_ms(us)}ms" for seg, us in ranked[:k])


def print_exemplars(run, limit):
    exemplars = run.get("exemplars", [])
    if not exemplars:
        return 0
    worst = sorted(exemplars, key=lambda e: e["latency_us"], reverse=True)
    print(f"    flight recorder: {len(exemplars)} exemplars retained; "
          f"worst {min(limit, len(worst))}:")
    for ex in worst[:limit]:
        spans = len(ex.get("spans", []))
        status = "ok" if ex.get("ok") else "FAILED"
        print(f"      {fmt_ms(ex['latency_us']):>9} ms  {ex['op']:<12} "
              f"{status:<6} {ex['system']:<14} spans={spans:<3} "
              f"{dominant_segments(ex.get('ledger', {}))}")
        if ex.get("path"):
            print(f"                 path={ex['path']}")
    return len(exemplars)


def report(path, args):
    runs = load_runs(path)
    total_nonzero_segments = set()
    total_exemplars = 0
    attributed_runs = 0
    for run in runs:
        attr = attribution_of(run)
        if not attr and not run.get("exemplars"):
            continue
        attributed_runs += 1
        print(f"\nrun: {run.get('system', '?')}")
        for system, entry in sorted(attr.items()):
            print_table(system, entry)
            for seg, h in entry["segments"].items():
                if h["max"] > 0:
                    total_nonzero_segments.add(seg)
            if args.cdf:
                print_cdf(system, entry)
        total_exemplars += print_exemplars(run, args.worst)
    if attributed_runs == 0:
        print("no attribution data found "
              "(run the bench with --attribution --metrics-out=...)")
    ok = True
    if args.check_segments is not None:
        n = len(total_nonzero_segments)
        if n < args.check_segments:
            print(f"\nCHECK FAILED: only {n} segments carry time "
                  f"(need >= {args.check_segments}): "
                  f"{sorted(total_nonzero_segments)}")
            ok = False
        else:
            print(f"\ncheck ok: {n} segments carry time "
                  f"(need >= {args.check_segments})")
    if args.check_exemplars is not None:
        if total_exemplars < args.check_exemplars:
            print(f"CHECK FAILED: only {total_exemplars} exemplars "
                  f"retained (need >= {args.check_exemplars})")
            ok = False
        else:
            print(f"check ok: {total_exemplars} exemplars retained "
                  f"(need >= {args.check_exemplars})")
    return 0 if ok else 1


def entry_rates(entry):
    """{label: events_per_sec} for one dated entry.

    A label may legitimately recur within one entry — the sweep harnesses
    observe the same (system, clients) instance once per operation — so
    duplicates are aggregated (max: the run least perturbed by wall-clock
    noise) instead of last-wins, and the trend below sees exactly one
    sample per (entry, label) rather than double-counting repeats.
    """
    rates = {}
    for r in entry.get("runs", []):
        v = r.get("events_per_sec", 0.0)
        label = r["label"]
        if label not in rates or v > rates[label]:
            rates[label] = v
    return rates


def trajectory(path):
    entries = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    if not entries:
        sys.exit(f"error: {path} is empty")
    cases = []
    for e in entries:
        for r in e.get("runs", []):
            if r["label"] not in cases:
                cases.append(r["label"])
    print(f"perf trajectory: {path} ({len(entries)} entries, "
          f"bench={entries[-1].get('bench', '?')})")
    header = f"  {'date':<22}" + "".join(f" {c[:14]:>15}" for c in cases)
    print(header)
    per_entry = [entry_rates(e) for e in entries]
    for e, rates in zip(entries, per_entry):
        row = f"  {e.get('date', '?'):<22}"
        for c in cases:
            v = rates.get(c)
            row += f" {v:>15,.0f}" if v is not None else f" {'-':>15}"
        print(row)
    # Trend: last entry vs the median of prior entries, per case — one
    # aggregated sample per (entry, label).
    if len(entries) >= 2:
        print("  trend (last vs median of prior):")
        for c in cases:
            prior = [rates[c] for rates in per_entry[:-1] if c in rates]
            last = per_entry[-1].get(c)
            if not prior or last is None:
                continue
            med = sorted(prior)[len(prior) // 2]
            pct = 100.0 * (last - med) / med if med else 0.0
            print(f"    {c:<24} {pct:+6.1f}%")
    return 0


def eps_lines(text, tag):
    """{case: [events_per_sec, ...]} from the lines of @text holding @tag."""
    rates = {}
    for line in text.splitlines():
        if tag not in line:
            continue
        case = re.search(r"case=(\S+)", line)
        eps = re.search(r"events_per_sec=(\d+)", line)
        if eps:
            rates.setdefault(case.group(1) if case else "", []).append(
                int(eps.group(1)))
    return rates


def gate_kernel(baseline, tolerance, kernel_out):
    fail = False
    kernel_rates = eps_lines(kernel_out, "[bench_kernel]")
    for case, base in baseline["bench_kernel"].items():
        floor = base * (1.0 - tolerance)
        got = kernel_rates.get(case)
        if not got:
            print(f"FAIL: bench_kernel case {case} printed no events_per_sec")
            fail = True
        elif got[0] < floor:
            print(f"FAIL: {case} at {got[0]} events/sec, more than "
                  f"{tolerance:.0%} below baseline {base} "
                  f"(floor {floor:.0f})")
            fail = True
        else:
            print(f"  ok: {case} {got[0]} events/sec (floor {floor:.0f})")
    return fail


def gate_micro(baseline, micro, micro_log):
    """Cache-walk, namespace, write-path and result-cache ceilings;
    appends the trajectory line.

    Per-op real_time (ns) must stay below the checked-in ceiling.
    Ceilings carry their own slack (~2.5x a healthy run), so no further
    tolerance is applied.
    """
    fail = False
    micro_times = {b["name"]: b["real_time"]
                   for b in micro.get("benchmarks", [])
                   if b.get("time_unit", "ns") == "ns"}
    micro_runs = []
    ceilings = dict(baseline["bench_micro_structures"]["cache_ns_ceiling"])
    for group in ("namespace_ns_ceiling", "write_path_ns_ceiling",
                  "result_cache_ns_ceiling"):
        ceilings.update(baseline["bench_micro_structures"].get(group, {}))
    for case, ceiling in ceilings.items():
        got = micro_times.get(case)
        if got is None:
            print(f"FAIL: bench_micro_structures did not report {case}")
            fail = True
            continue
        micro_runs.append((case, got))
        if got > ceiling:
            print(f"FAIL: {case} at {got:.0f} ns/op, above ceiling "
                  f"{ceiling} ns")
            fail = True
        else:
            print(f"  ok: {case} {got:.0f} ns/op (ceiling {ceiling})")

    if micro_log and micro_runs:
        # One dated trajectory line; ns/op is recorded as ops/sec so the
        # --trajectory renderer and its trend math apply unchanged.
        entry = {
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "bench": "bench_micro_structures",
            "runs": [{"label": case, "ns_per_op": round(t, 1),
                      "events_per_sec": round(1e9 / t) if t else 0}
                     for case, t in micro_runs],
        }
        with open(micro_log, "a") as f:
            f.write(json.dumps(entry, separators=(",", ":")) + "\n")
        print(f"appended bench log: {micro_log} ({len(micro_runs)} runs)")
    return fail


def gate_fig11(baseline, tolerance, fig11_out):
    rates = [r for rs in eps_lines(fig11_out, "[perf]").values() for r in rs]
    base = baseline["bench_fig11_client_scaling"]["best_run_events_per_sec"]
    floor = base * (1.0 - tolerance)
    if not rates:
        print("FAIL: no [perf] events_per_sec lines in fig11 output")
        return True
    if max(rates) < floor:
        print(f"FAIL: fig11 best rate {max(rates)} events/sec below "
              f"floor {floor:.0f}")
        return True
    print(f"  ok: fig11 best rate {max(rates)} events/sec "
          f"(floor {floor:.0f})")
    return False


def gate_namespace(baseline, ns_out):
    """Two-tier namespace gate over the deterministic residency table.

    Rows read (point resident cold res_mb B/inode pageins pageouts). The
    budgeted single-client point must actually page out and stay under
    the bytes/inode ceiling; the unbudgeted point must never touch the
    cold tier.
    """
    row_re = re.compile(r"^\s*(ns/\S+)\s+(\d+)\s+(\d+)\s+([\d.]+)"
                        r"\s+([\d.]+)\s+(\d+)\s+(\d+)\s*$")
    ns_rows = {}
    for line in ns_out.splitlines():
        m = row_re.match(line)
        if m:
            ns_rows[m.group(1)] = {
                "resident": int(m.group(2)), "cold": int(m.group(3)),
                "bpi": float(m.group(5)), "pageins": int(m.group(6)),
                "pageouts": int(m.group(7)),
            }
    budgeted = next((r for label, r in ns_rows.items()
                     if "budget=unset" not in label and "clients=1" in label),
                    None)
    unset = next((r for label, r in ns_rows.items()
                  if "budget=unset" in label), None)
    bpi_ceiling = baseline["bench_namespace_scale"][
        "budgeted_bytes_per_inode_ceiling"]
    if budgeted is None or unset is None:
        print("FAIL: bench_namespace_scale printed no parseable residency "
              "rows")
        return True
    fail = False
    if budgeted["cold"] == 0 or budgeted["pageouts"] == 0:
        print("FAIL: budgeted namespace point paged nothing out")
        fail = True
    if budgeted["bpi"] > bpi_ceiling:
        print(f"FAIL: budgeted bytes/inode {budgeted['bpi']} above "
              f"ceiling {bpi_ceiling}")
        fail = True
    if unset["cold"] != 0 or unset["pageouts"] != 0 or unset["pageins"] != 0:
        print("FAIL: unbudgeted namespace point touched the cold tier")
        fail = True
    if not fail:
        print(f"  ok: namespace {budgeted['bpi']} B/inode budgeted "
              f"(ceiling {bpi_ceiling}), {budgeted['cold']} cold records, "
              f"unbudgeted fully resident")
    return fail


def perf_gate(args):
    def read(path):
        with open(path) as f:
            return f.read()

    with open(args.perf_gate) as f:
        baseline = json.load(f)
    with open(args.micro_json) as f:
        micro = json.load(f)
    tolerance = baseline["regression_tolerance"]
    # Every gate runs (and prints) even after an earlier one failed.
    fails = [
        gate_kernel(baseline, tolerance, read(args.kernel_out)),
        gate_micro(baseline, micro, args.micro_log),
        gate_fig11(baseline, tolerance, read(args.fig11_out)),
        gate_namespace(baseline, read(args.ns_out)),
    ]
    return 1 if any(fails) else 0


def main():
    parser = argparse.ArgumentParser(
        description="λFS latency attribution / perf-trajectory report")
    parser.add_argument("metrics", nargs="?",
                        help="metrics JSON from --metrics-out")
    parser.add_argument("--trajectory",
                        help="render a BENCH_*.json trajectory file")
    parser.add_argument("--check-segments", type=int, default=None,
                        help="exit 1 unless >= N segments carry time")
    parser.add_argument("--check-exemplars", type=int, default=None,
                        help="exit 1 unless >= N exemplars were retained")
    parser.add_argument("--worst", type=int, default=8,
                        help="exemplars to print per run (default 8)")
    parser.add_argument("--cdf", action="store_true",
                        help="render e2e latency CDFs from buckets")
    parser.add_argument("--perf-gate", metavar="BASELINE",
                        help="run the perf-smoke gate against BASELINE "
                             "(scripts/perf_baseline.json)")
    parser.add_argument("--micro-json",
                        help="perf gate: bench_micro_structures JSON")
    parser.add_argument("--micro-log", default="",
                        help="perf gate: trajectory file to append the "
                             "micro ceilings to (empty: no append)")
    parser.add_argument("--kernel-out", help="perf gate: bench_kernel stdout")
    parser.add_argument("--fig11-out",
                        help="perf gate: bench_fig11_client_scaling stdout")
    parser.add_argument("--ns-out",
                        help="perf gate: bench_namespace_scale stdout")
    args = parser.parse_args()
    if args.perf_gate:
        for name in ("micro_json", "kernel_out", "fig11_out", "ns_out"):
            if getattr(args, name) is None:
                parser.error(f"--perf-gate needs --{name.replace('_', '-')}")
        return perf_gate(args)
    if args.trajectory:
        return trajectory(args.trajectory)
    if not args.metrics:
        parser.error("need a metrics JSON path or --trajectory")
    return report(args.metrics, args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        sys.exit(0)
