#!/usr/bin/env python3
"""The uccakit benchmark: one run of one workload.

    python3 perfbench/run.py --workload small-corpus --seed 1 --seconds 55 --trace 0

The run generates the workload's corpus from the seed under .bench_work/.
With --trace 0 it then repeats rounds for --seconds (at least
MIN_ROUNDS): a fresh interpreter importing the CLI (setup_s), the five
CLI commands one child process at a time, and one pass of the in-process
gold/system pair loop.  The end-to-end times are CPU times (user plus
system), so time the host takes from the VM does not count.  With
--trace 1 it runs each command REPLAYS times, each time followed by an
untraced in-process replay and a replay with a span around every library
call, and reports per-layer times and counts.  Every output is checked
against the benchmark's own model.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The full record, with the raw samples, the span table and
provenance, is appended to --results.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
from measure import ChildGuard, exponent, provenance, run_child, slow_half_mean, tail_percentile  # noqa: E402

#: Whole-run deadline: a run must end within 180 s.
DEADLINE_S = 170
#: Fewest rounds a run makes, whatever --seconds says.
MIN_ROUNDS = 3
#: Child runs, and untraced and traced replays, per command in a traced run.
REPLAYS = 3

END_TO_END = {
    "setup_s": "s",
    "evaluate_s": "s",
    "validate_s": "s",
    "stats_s": "s",
    "normalize_s": "s",
    "convert_bilexical_s": "s",
    "peak_rss_mb": "MB",
    "pair_ms_p50": "ms",
}

#: Spans reported as layer times (summed self time over every command).
LAYER_TIMES = [
    "formats.parse_xml", "graph.build_freeze", "graph.yield_of", "evaluation.edge_signatures",
    "evaluation.score_passage", "validation.normalize", "validation.validate",
    "stats.corpus_stats", "stats.render_table", "formats.serialize_xml",
    "formats.export_bilexical",
]
EXPONENTS = ["formats.parse_xml", "graph.build_freeze", "graph.yield_of", "evaluation.score_passage"]
COUNTS = ["formats.bytes_parsed", "graph.edges", "evaluation.signatures", "evaluation.matched",
          "validation.normalize.rebuilt", "validation.violations"]
COMMANDS = ("evaluate", "validate", "stats", "normalize", "convert_bilexical")

PER_LAYER = {
    **{f"{name}.s": "s" for name in LAYER_TIMES},
    "formats.parse_xml.us_per_token": "us",
    **{f"{name}.exponent": "1" for name in EXPONENTS},
    **{name: "count" for name in COUNTS},
    "validation.normalize.rebuilt_share": "ratio",
    **{f"cli.{c}.{k}": "s" for c in COMMANDS for k in ("unaccounted_s", "cpu_s")},
    "io.read_s": "s",
    "io.write_s": "s",
    "trace.overhead_pct": "%",
    "error_rate": "ratio",
}


class Deadline(BaseException):
    """Not an Exception, so the handlers that count library failures let it
    through and the run ends with exit 3."""


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


class Run:
    """One workload run: the corpus on disk, its expected results, and the
    tally of attempted and failed operations."""

    def __init__(self, workload: corpus.Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        pairs = corpus.generate(workload, seed)
        self.golds = [gold for _, gold in pairs]
        self.gold_dir, self.system_dir = corpus.write_corpus(pairs, work / "corpus")
        self.sizes = {gold.pid: len(gold.tokens) for gold in self.golds}
        self.expected_scores = corpus.expected_scores(pairs)
        gc.collect()
        gc.freeze()  # the model is long-lived; keep it out of the collector's scans
        self.guard = ChildGuard()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        env = {k: v for k, v in os.environ.items() if k != "UCCAKIT_FORMAT"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.env = env

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def child(self, argv: list[str], name: str):
        out, err = self.work / f"{name}.out", self.work / f"{name}.err"
        result = run_child([sys.executable, *argv], self.env, out, err, self.guard)
        problems = []
        if result.exit_code != 0:
            tail = err.read_text(errors="replace")[-500:]
            problems.append(f"{name}: exit {result.exit_code}: {tail}")
        return result, out, problems

    def setup_probe(self):
        result, _, problems = self.child(["-c", "import uccakit.cli"], "setup")
        self.tally(problems)
        return result

    def command(self, name: str):
        """Run one CLI command as a child and check its output."""
        out = self.work / "out"
        gold = str(self.gold_dir)
        argv = {
            "evaluate": ["evaluate", "--gold", gold, "--system", str(self.system_dir),
                         "--fine-grained", "--json"],
            "validate": ["validate", gold, "--json"],
            "stats": ["stats", gold, "--json"],
            "normalize": ["normalize", gold, "--out", str(out / "normalize")],
            "convert_bilexical": ["convert", gold, "--to", "bilexical", "--out", str(out / "bilexical")],
        }[name]
        shutil.rmtree(out, ignore_errors=True)
        result, stdout, problems = self.child(["-m", "uccakit.cli", *argv], name)
        self.tally(problems or self.check(name, stdout, out))
        return result

    def check(self, name: str, stdout: Path, out: Path) -> list[str]:
        if name == "evaluate":
            return checks.check_evaluate(stdout.read_text(), self.expected_scores)
        if name == "validate":
            return checks.check_validate(stdout.read_text(), corpus.legacy_edges(self.golds))
        if name == "stats":
            return checks.check_stats(stdout.read_text(), corpus.expected_stats(self.golds))
        if name == "normalize":
            return checks.check_normalize(out / "normalize", self.golds)
        return checks.check_bilexical(out / "bilexical", self.golds)

    def pair_pass(self, data: list[tuple[bytes, bytes]]) -> list[float]:
        """parse_xml on both sides, normalize both, score_passage, for every
        pair from bytes in memory; returns CPU milliseconds per pair."""
        from uccakit import EvalScores, normalize, parse_xml, score_passage

        times, total = [], EvalScores()
        gc.collect()
        gc.freeze()
        for system, gold in data:
            self.attempted += 1
            try:
                start = time.process_time()
                out, ref = parse_xml(system), parse_xml(gold)
                scores = score_passage(normalize(out), normalize(ref))
                times.append((time.process_time() - start) * 1000)
            except Exception as exc:  # any library failure counts against error_rate
                self.failed += 1
                self.problems.append(f"pair loop: {exc!r}")
                times.append(float("nan"))
                continue
            total = total.merge(scores)
        self.tally(checks.check_evaluate(json.dumps(total.to_dict()), self.expected_scores))
        return times


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Rounds of (setup probe, five commands, one pass of the pair loop)
    for `seconds`; a round that would end past them is not started.  The
    host's CPU speed jumps between states up to 1.5x apart for a few
    seconds at a time, so each command reports the mean of its slower
    half of rounds, which sit in the common state (see README.md)."""
    data = [((run.system_dir / f"{g.pid}.xml").read_bytes(),
             (run.gold_dir / f"{g.pid}.xml").read_bytes()) for g in run.golds]
    run.child(["-c", "import uccakit.cli"], "setup")  # compiles bytecode once
    run.pair_pass(data)  # warm-up pass
    setup, rounds, passes = [], [], []
    start, round_s = time.perf_counter(), 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() + round_s < start + seconds:
        begun = time.perf_counter()
        setup.append(run.setup_probe())
        rounds.append({name: run.command(name) for name in COMMANDS})
        passes.append(run.pair_pass(data))
        round_s = time.perf_counter() - begun
    samples = [ms for times in passes for ms in times]
    metrics = {"setup_s": statistics.median(probe.cpu_s for probe in setup)}
    for name in COMMANDS:
        metrics[f"{name}_s"] = slow_half_mean([r[name].cpu_s for r in rounds])
    metrics["peak_rss_mb"] = max(r[name].peak_rss_mb for r in rounds for name in COMMANDS)
    if run.workload.sizes:
        # One pair per size: the median of every sample would sit between
        # two sizes, so take the median pass instead, as a mean per pair.
        metrics["pair_ms_p50"] = statistics.median(statistics.fmean(times) for times in passes)
    else:
        metrics["pair_ms_p50"] = statistics.median(samples)
    p99 = tail_percentile(samples)
    extra = {
        "rounds": len(rounds),
        "setup_cpu_s": [probe.cpu_s for probe in setup],
        "setup_wall_s": [probe.wall_s for probe in setup],
        "command_cpu_s": {name: [r[name].cpu_s for r in rounds] for name in COMMANDS},
        "command_wall_s": {name: [r[name].wall_s for r in rounds] for name in COMMANDS},
        "pair_samples": len(samples),
        "pair_ms_p99": p99,
        "pair_ms_p99_note": None if p99 is not None else
        f"not reported: {len(samples)} samples leave fewer than 10 beyond p99",
    }
    return metrics, extra


def replay(run: Run, tracer, name: str) -> float | None:
    """One in-process replay of a command; its wall time, or None if the
    library failed."""
    import traced

    gc.collect()
    gc.freeze()  # as in a fresh CLI process, collections scan only new objects
    run.attempted += 1
    try:
        return traced.replay_command(tracer, name, run.gold_dir, run.system_dir, run.work / "replay",
                                     run.sizes)
    except Exception as exc:  # a library failure counts against error_rate
        run.failed += 1
        run.problems.append(f"replay {name}: {exc!r}")
        return None


def traced(run: Run) -> tuple[dict, dict]:
    """Per command, REPLAYS times: the CLI child, then an untraced and a
    traced in-process replay, in turns as to which goes first.  The fastest
    child and the fastest traced replay are kept; the tracing cost is the
    median ratio of each traced replay to its untraced neighbour."""
    from traced import NullTracer, Tracer

    setup = statistics.median([run.setup_probe().wall_s for _ in range(MIN_ROUNDS)])
    cli, kept, walls, ratios = {}, [], {}, []
    for name in COMMANDS:
        best = None
        for i in range(REPLAYS):
            child = run.command(name)
            if name not in cli or child.wall_s < cli[name].wall_s:
                cli[name] = child
            tracer = Tracer()
            if i % 2:
                wall, plain = replay(run, tracer, name), replay(run, NullTracer(), name)
            else:
                plain, wall = replay(run, NullTracer(), name), replay(run, tracer, name)
            if wall is not None and plain is not None:
                ratios.append(wall / plain)
            if wall is not None and (best is None or wall < best[0]):
                best = (wall, tracer)
        if best:
            walls[name] = best[0]
            kept.append(best[1])

    self_time: dict[str, float] = defaultdict(float)
    by_command: dict[str, float] = defaultdict(float)
    points: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    counts: dict[str, int] = defaultdict(int)
    for tracer in kept:
        for name, n in tracer.counts.items():
            counts[name] += n
        for command, name, duration, own, size in tracer.records:
            self_time[name] += own
            if not name.startswith("io.") and command in COMMANDS:
                by_command[command] += own
            if size:
                points[name][0].append(size)
                points[name][1].append(duration)

    parsed_tokens = sum(points["formats.parse_xml"][0])
    metrics = {f"{name}.s": self_time[name] for name in LAYER_TIMES}
    metrics["formats.parse_xml.us_per_token"] = self_time["formats.parse_xml"] / parsed_tokens * 1e6
    for name in EXPONENTS:
        fastest: dict[int, float] = {}  # per size, so noise does not bend the fit
        for size, duration in zip(*points[name]):
            fastest[size] = min(duration, fastest.get(size, duration))
        metrics[f"{name}.exponent"] = exponent(list(fastest), list(fastest.values()))
    for name in COUNTS:
        metrics[name] = counts[name]
    metrics["validation.normalize.rebuilt_share"] = counts["validation.normalize.rebuilt"] / len(run.golds)
    for name in COMMANDS:
        metrics[f"cli.{name}.unaccounted_s"] = cli[name].wall_s - setup - by_command[name]
        metrics[f"cli.{name}.cpu_s"] = cli[name].cpu_s
    metrics["io.read_s"] = self_time["io.read"]
    metrics["io.write_s"] = self_time["io.write"]
    metrics["trace.overhead_pct"] = (statistics.median(ratios) - 1) * 100 if ratios else float("nan")
    extra = {
        "setup_s": setup,
        "cli_wall_s": {name: cli[name].wall_s for name in COMMANDS},
        "replay_wall_s": walls,
        "traced_to_untraced": ratios,
        "spans": {name: {"count": len(points[name][0]) or None, "self_s": t}
                  for name, t in sorted(self_time.items())},
        "layer_s_by_command": dict(by_command),
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", type=Path, default=ROOT / ".bench_out" / "BENCH_runs.jsonl",
                        help="JSON-lines file the full record is appended to")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uccakit" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    run = None
    try:
        run = Run(corpus.WORKLOADS[args.workload], args.seed, work)
        metrics, extra = traced(run) if args.trace else untraced(run, args.seconds)
        if args.trace:
            metrics["error_rate"] = run.failed / run.attempted
        else:
            extra["error_rate"] = run.failed / run.attempted
    except Deadline as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        if run is not None:
            run.guard.kill()
        shutil.rmtree(work, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        # A failed operation can leave a value undefined; JSON has no NaN.
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else None, "unit": unit}
                    for name, unit in wanted.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **result, "extra": extra, "problems": run.problems[:50],
              "provenance": provenance(ROOT)}
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with args.results.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for problem in run.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
