#!/usr/bin/env python3
"""Run the benchmark on seeds 1 to 10 of every workload, untraced.

    python3 perfbench/series.py --label change --parent ../parent-checkout

Runs this checkout's benchmark, and with --parent the benchmark of another
checkout (usually the parent commit) too, seed by seed: for each seed both
sides run back to back, and the side that goes first alternates, so a
slow spell of the machine falls on both sides alike.  This checkout's
records go to .bench_out/BENCH_<label>.jsonl and the other's to
.bench_out/BENCH_<label>-parent.jsonl.

Afterwards one row per side, workload and end-to-end metric gives the
median, the spread (distance between the quartiles as a share of the
median) and whether the spread is below a third of the bound.  With
--parent the compare.py table of the two sides follows.  Two checkouts of
the same commit give the benchmark's agreement with itself.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import ROOT, load, spread, summary, table

SEEDS = range(1, 11)


def run_once(root: Path, workload: str, seed: int, seconds: int, results: Path) -> None:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--results", str(results)]
    done = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    last = done.stdout.strip().splitlines()[-1:] or ["(no result)"]
    print(f"{root.name} {workload} seed {seed}: exit {done.returncode} {last[0][:80]}", file=sys.stderr)


def spreads(name: str, results: Path, spec: dict) -> list[str]:
    runs = load(results)
    lines = []
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            values = list(runs[workload["name"]][metric["name"]].values())
            s = spread(values)
            lines.append(f"| {name} | {workload['name']} | {metric['name']} | {summary(values)[0]:.4g} "
                         f"| {s:.3f} | {metric['bound'] / 3:.3f} | {'yes' if s < metric['bound'] / 3 else 'NO'} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, help="checkout whose benchmark runs in turn with this one")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    change = ROOT / ".bench_out" / f"BENCH_{args.label}.jsonl"
    sides = [(ROOT, change)]
    if args.parent:
        parent = ROOT / ".bench_out" / f"BENCH_{args.label}-parent.jsonl"
        sides.append((args.parent.resolve(), parent))
    for workload in spec["workloads"]:
        for seed in SEEDS:
            for root, results in sides[::-1] if seed % 2 else sides:
                run_once(root, workload["name"], seed, spec["run_seconds"], results)

    print("| side | workload | metric | median | spread | bound/3 | steady |")
    print("|---|---|---|---|---|---|---|")
    for name, (_, results) in zip(("change", "parent"), sides):
        print("\n".join(spreads(name, results, spec)))
    if args.parent:
        print()
        print("\n".join(table(parent, change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
