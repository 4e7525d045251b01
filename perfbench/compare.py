#!/usr/bin/env python3
"""Compare two benchmark results files, one row per workload and metric.

    python3 perfbench/compare.py .bench_out/BENCH_parent.jsonl .bench_out/BENCH_change.jsonl

Each file holds the JSON records run.py appends, usually ten seeds per
workload (see series.py).  For every end-to-end metric the table gives
each side's median and quartiles, the change in median, and a verdict
against the metric's bound from BENCHMARK.json:

- improved: the change wins at least nine tenths of the runs paired by
  seed (ties count for neither side) and the medians differ by more than
  the parent's own spread (the distance between its quartiles);
- worse: the change's median is worse than the parent's by more than the
  bound;
- unresolved: not worse, but either side's spread is wider than the
  bound, and not every run of the change reads better than every run of
  the parent;
- unchanged: otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path, trace: int = 0) -> dict[str, dict[str, dict[int, float]]]:
    """workload -> metric -> seed -> value, from the records of one trace mode."""
    runs: dict = defaultdict(lambda: defaultdict(dict))
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"] != trace:
            continue
        for name, metric in record["metrics"].items():
            runs[record["workload"]][name][record["seed"]] = metric["value"]
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles, as statistics.quantiles gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: list[float]) -> float:
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent: dict[int, float], change: dict[int, float], bound: float, lower: bool) -> str:
    sign = 1 if lower else -1  # positive: the change is better
    a, b = list(parent.values()), list(change.values())
    med_a, q1_a, q3_a = summary(a)
    med_b = summary(b)[0]
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (parent[s] - change[s]) > 0 for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and sign * (med_a - med_b) > q3_a - q1_a:
        return "improved"
    if sign * (med_a - med_b) < -bound * abs(med_a):
        return "worse"
    if max(spread(a), spread(b)) > bound:
        all_better = min(sign * x for x in a) > max(sign * x for x in b)
        return "unchanged" if all_better else "unresolved"
    return "unchanged"


def table(parent: Path, change: Path, spec: dict) -> list[str]:
    a_runs, b_runs = load(parent), load(change)
    lines = ["| workload | metric | unit | parent median [q1, q3] | change median [q1, q3] "
             "| delta | bound | verdict |", "|---|---|---|---|---|---|---|---|"]
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            a = a_runs.get(workload, {}).get(metric["name"])
            b = b_runs.get(workload, {}).get(metric["name"])
            if not a or not b:
                lines.append(f"| {workload} | {metric['name']} | {metric['unit']} | "
                             f"{'missing' if not a else len(a)} | {'missing' if not b else len(b)} "
                             f"| | {metric['bound']} | unresolved |")
                continue
            (ma, qa1, qa3), (mb, qb1, qb3) = summary(list(a.values())), summary(list(b.values()))
            delta = (mb - ma) / ma * 100 if ma else float("nan")
            lines.append(
                f"| {workload} | {metric['name']} | {metric['unit']} | {ma:.4g} [{qa1:.4g}, {qa3:.4g}] "
                f"| {mb:.4g} [{qb1:.4g}, {qb3:.4g}] | {delta:+.1f}% | {metric['bound']:.0%} "
                f"| {verdict(a, b, metric['bound'], metric['better'] == 'lower')} |"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="results file of the parent commit")
    parser.add_argument("change", type=Path, help="results file of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("\n".join(table(args.parent, args.change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
