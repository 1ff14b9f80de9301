#!/usr/bin/env python3
"""Diff two sets of perfbench results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are result files (*.result.json, written by run.py under
.bench_build/perfbench-out/) or directories of them. Untraced results are
grouped by workload; each end-to-end metric is compared by its median over
the runs of each side:

  worse       the median got worse by more than the metric's bound;
  unresolved  the run-to-run spread (IQR / median) of either side exceeds
              the bound and the runs of the two sides overlap;
  improved    the median got better by more than either side's spread (by
              more than the bound when a side has a single run);
  same        none of the above.

One row per workload, then the metrics behind its verdict. Exits 1 when any
workload is worse. Stdlib only.
"""

import argparse
import glob
import json
import os
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402

RANK = {"worse": 3, "unresolved": 2, "improved": 1, "same": 0}


def load(path):
    """workload -> metric -> [values] over the untraced results at path."""
    files = (sorted(glob.glob(os.path.join(path, "*.result.json")))
             if os.path.isdir(path) else [path])
    grouped = {}
    for name in files:
        with open(name) as f:
            result = json.load(f)
        if result.get("trace"):
            continue
        metrics = grouped.setdefault(result["workload"], {})
        for metric, entry in result["metrics"].items():
            metrics.setdefault(metric, []).append(entry["value"])
    return grouped


def verdict(base, new, bound, better):
    """(verdict, signed relative change with positive = better)."""
    b, n = benchstats.median(base), benchstats.median(new)
    if b == 0:
        return ("same" if n == 0 else "unresolved"), 0.0
    gain = (n - b) / abs(b) * (1 if better == "higher" else -1)
    sign = 1 if better == "higher" else -1
    all_better = min(v * sign for v in new) > max(v * sign for v in base)
    all_worse = max(v * sign for v in new) < min(v * sign for v in base)
    spread = max(benchstats.iqr_share(base), benchstats.iqr_share(new))
    if spread > bound:
        if all_better:
            return "improved", gain
        return ("worse" if all_worse else "unresolved"), gain
    if -gain > bound:
        return "worse", gain
    single = min(len(base), len(new)) < 2
    if gain > (bound if single else spread):
        return "improved", gain
    return "same", gain


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print("%-12s missing (base %d runs, new %d runs)" % (
                workload, len(next(iter(base.get(workload, {}).values()), [])),
                len(next(iter(new.get(workload, {}).values()), []))))
            continue
        rows = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            v, gain = verdict(base[workload][name], new[workload][name],
                              metric["bound"], metric["better"])
            rows.append((v, name, gain))
        overall = max((r[0] for r in rows), key=RANK.get, default="same")
        worst = max(worst, RANK[overall])
        runs = len(next(iter(new[workload].values())))
        print("%-12s %-10s (%d base runs, %d new runs)" % (
            workload, overall, len(next(iter(base[workload].values()))), runs))
        for v, name, gain in rows:
            if v != "same":
                print("  %-10s %-16s %+.1f%% (positive = better)" % (
                    v, name, 100.0 * gain))
    return 1 if worst == RANK["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
