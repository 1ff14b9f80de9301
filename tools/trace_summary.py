#!/usr/bin/env python3
"""Summarize an mch-trace/mch-metrics artifact pair on the terminal.

Reads the Chrome trace-event JSON written by `mchlegal --trace` (or any
bench/test run with MCH_TRACE=<path>) and prints a per-phase wall-clock
breakdown plus the top-k slowest per-component solves, with their
warm-start and finisher flags. When the matching metrics snapshot
(`--metrics`, from `--metrics`/MCH_METRICS=<path>) is given, the
finisher's accepted/attempted totals, its counters and latency histograms
are appended.

    tools/trace_summary.py run.trace.json [--metrics run.metrics.json] \
        [--top 10]

Stdlib only — no third-party dependencies.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_events(path):
    """Returns the complete-span events ("ph": "X") from a trace file."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") not in (None, "mch-trace/1"):
        print(f"warning: unexpected trace schema {doc.get('schema')!r}",
              file=sys.stderr)
    events = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    dropped = doc.get("otherData", {}).get("droppedSpans", 0)
    return events, dropped


def fmt_ms(us):
    return f"{us / 1e3:10.3f} ms"


def phase_breakdown(events):
    """Aggregates span durations by name, widest total first.

    Nested spans each count their own wall time, so the table reads as "time
    attributable to spans named X" — the root span (legalize / session.*)
    gives the denominator for the %-of-run column.
    """
    agg = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [count, total, max]
    for e in events:
        entry = agg[e["name"]]
        entry[0] += 1
        entry[1] += e["dur"]
        entry[2] = max(entry[2], e["dur"])
    total_us = max((e["ts"] + e["dur"] for e in events), default=0.0) - min(
        (e["ts"] for e in events), default=0.0)

    print(f"phase breakdown ({len(events)} spans, "
          f"wall clock {total_us / 1e3:.3f} ms):")
    print(f"  {'span':<28} {'count':>6} {'total':>13} {'mean':>13} "
          f"{'max':>13} {'% wall':>7}")
    for name, (count, total, peak) in sorted(
            agg.items(), key=lambda kv: -kv[1][1]):
        share = 100.0 * total / total_us if total_us > 0 else 0.0
        print(f"  {name:<28} {count:>6} {fmt_ms(total)} "
              f"{fmt_ms(total / count)} {fmt_ms(peak)} {share:>6.1f}%")


def slowest_components(events, top_k):
    solves = [e for e in events if e["name"] == "solve.component"]
    if not solves:
        return
    solves.sort(key=lambda e: -e["dur"])
    print(f"\ntop {min(top_k, len(solves))} slowest component solves "
          f"(of {len(solves)}):")
    print(f"  {'time':>13}  {'tid':>3} {'comp':>6} {'vars':>6} {'rows':>6} "
          f"{'solver':<6} {'iters':>7} {'warm':>4} {'fin':>3}  other")
    for e in solves[:top_k]:
        args = dict(e.get("args", {}))
        cols = [args.pop(k, "-") for k in (
            "component", "vars", "rows", "solver", "iterations", "warm",
            "finished")]
        detail = ", ".join(f"{k}={v}" for k, v in args.items())
        print(f"  {fmt_ms(e['dur'])}  {e.get('tid', '?'):>3} {cols[0]:>6} "
              f"{cols[1]:>6} {cols[2]:>6} {cols[3]:<6} {cols[4]:>7} "
              f"{cols[5]:>4} {cols[6]:>3}  {detail}")


def metrics_summary(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") not in (None, "mch-metrics/1"):
        print(f"warning: unexpected metrics schema {doc.get('schema')!r}",
              file=sys.stderr)

    attributes = doc.get("attributes", {})
    if attributes:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(attributes.items()))
        print(f"\nmetrics attributes: {rendered}")

    counters = doc.get("counters", {})
    attempts = counters.get("mmsim.finisher.attempts", 0)
    if attempts:
        accepted = counters.get("mmsim.finisher.accepted", 0)
        print(f"finisher: {accepted} accepted of {attempts} attempts "
              f"({100.0 * accepted / attempts:.1f}%)")
    if counters:
        print("counters:")
        for name, value in sorted(counters.items()):
            print(f"  {name:<44} {value:>12}")

    gauges = doc.get("gauges", {})
    if gauges:
        print("gauges:")
        for name, value in sorted(gauges.items()):
            print(f"  {name:<44} {value:>12.2f}")

    histograms = doc.get("histograms", {})
    if histograms:
        print("histograms (seconds):")
        print(f"  {'name':<36} {'count':>7} {'mean':>10} {'p50':>10} "
              f"{'p95':>10} {'p99':>10}")
        for name, h in sorted(histograms.items()):
            print(f"  {name:<36} {h['count']:>7} {h['mean']:>10.6f} "
                  f"{h['p50']:>10.6f} {h['p95']:>10.6f} {h['p99']:>10.6f}")


def main():
    parser = argparse.ArgumentParser(
        description="Per-phase breakdown of an mch trace/metrics pair.")
    parser.add_argument("trace", help="Chrome trace JSON (mch-trace/1)")
    parser.add_argument("--metrics", help="metrics JSON (mch-metrics/1)")
    parser.add_argument("--top", type=int, default=10, metavar="K",
                        help="slowest component solves to list (default 10)")
    args = parser.parse_args()

    events, dropped = load_events(args.trace)
    if not events:
        print("no spans in trace (was tracing enabled?)")
        return 1
    if dropped:
        print(f"note: {dropped} spans dropped by ring overwrite — "
              "raise MCH_TRACE_RING for full coverage\n")

    phase_breakdown(events)
    slowest_components(events, args.top)
    if args.metrics:
        metrics_summary(args.metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
