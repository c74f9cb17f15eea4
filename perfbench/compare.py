"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (its
``.perfbench/results/``), typically ten runs per workload on different
seeds.  For every end-to-end metric of ``BENCHMARK.json`` and every
workload, the verdict follows the benchmark's bounds:

* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, on either side) is wider than the bound, and not every new run
  beats, or loses to, every base run;
* ``worse`` — the new median is worse than the base median by more than
  the bound;
* ``improved`` — the new median is better by more than the base spread
  and the new run wins at least nine tenths of the seed-matched pairs;
* ``unchanged`` — otherwise.

Traced results (``--trace 1``) add one row per layer metric with the
change of its median.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def load(directory: str) -> dict:
    """{(workload, trace): {seed: {metric: value}}} from result files."""
    runs = defaultdict(dict)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        env = result["env"]
        runs[(env["workload"], env["trace"])][env["seed"]] = {
            name: metric["value"] for name, metric in result["metrics"].items()
        }
    return runs


def _spread(values) -> float:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple:
    """(verdict, base median, new median, relative change, spread)."""
    sign = 1.0 if better == "lower" else -1.0
    b_vals, n_vals = list(base.values()), list(new.values())
    b_med, n_med = statistics.median(b_vals), statistics.median(n_vals)
    change = (n_med - b_med) / abs(b_med) if b_med else 0.0
    worse_by = sign * change
    spread = max(_spread(b_vals), _spread(n_vals))
    # in "cost" terms (sign * value) lower is always better
    b_cost = [sign * v for v in b_vals]
    n_cost = [sign * v for v in n_vals]
    all_better = max(n_cost) < min(b_cost)
    all_worse = min(n_cost) > max(b_cost)
    if spread > bound and not (all_better or all_worse):
        return "unresolved", b_med, n_med, change, spread
    if worse_by > bound or (spread > bound and all_worse):
        return "worse", b_med, n_med, change, spread
    pairs = [seed for seed in base if seed in new]
    wins = sum(1 for seed in pairs if sign * new[seed] < sign * base[seed])
    if all_better or (-worse_by > _spread(b_vals) and pairs
                      and wins >= 0.9 * len(pairs)):
        return "improved", b_med, n_med, change, spread
    return "unchanged", b_med, n_med, change, spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    base, new = load(args.base), load(args.new)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':15s} {'metric':28s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    worse = 0
    for workload in workloads:
        b_runs, n_runs = base.get((workload, 0)), new.get((workload, 0))
        if not b_runs or not n_runs:
            print(f"{workload:15s} (no untraced runs on one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = {seed: m[name] for seed, m in b_runs.items() if name in m}
            n = {seed: m[name] for seed, m in n_runs.items() if name in m}
            if not b or not n:
                continue
            result, b_med, n_med, change, spread = verdict(
                b, n, metric["better"], metric["bound"])
            worse += result == "worse"
            print(f"{workload:15s} {name:28s} {b_med:12.6g} {n_med:12.6g} "
                  f"{change * 100:+7.1f}% {spread * 100:6.1f}% "
                  f"{metric['bound'] * 100:5.0f}%  {result}")
    for workload in workloads:
        b_runs, n_runs = base.get((workload, 1)), new.get((workload, 1))
        if not b_runs or not n_runs:
            continue
        print(f"\n{workload}: per-layer medians of the traced runs")
        for metric in spec["per_layer"]:
            name = metric["name"]
            b_vals = [m[name] for m in b_runs.values() if name in m]
            n_vals = [m[name] for m in n_runs.values() if name in m]
            if not b_vals or not n_vals:
                continue
            b_med, n_med = statistics.median(b_vals), statistics.median(n_vals)
            if not b_med and not n_med:
                continue
            print(f"  {name:30s} {b_med:12.6g} -> {n_med:12.6g} "
                  f"({n_med - b_med:+.6g} {metric['unit']})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
