"""In-process replay of the five CLI commands, with a span around every
call into the library.

Each replay calls the modules' public functions in the order the CLI does
(read, parse, normalize, score or validate or count, render, write), so the
sum of its layer spans is comparable with the command's wall time.  A probe
on every gold passage adds what the CLI order cannot isolate: graph
construction replayed through Passage/add_node/add_edge/freeze, the first
yield_of on every node of the fresh passage, and edge_signatures.  The
probe is work the CLI does not do, so its time is kept out of the replay's
wall time.  A NullTracer replays the same calls with spans that do nothing
and no probe, which gives the untraced time the tracing cost is measured
against.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

from uccakit import evaluation, formats, stats, validation
from uccakit.graph import Passage


class Span:
    __slots__ = ("tracer", "name", "size", "start", "child")

    def __init__(self, tracer: "Tracer", name: str, size: int):
        self.tracer, self.name, self.size, self.child = tracer, name, size, 0.0

    def __enter__(self):
        self.tracer.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        duration = time.perf_counter() - self.start
        tracer = self.tracer
        tracer.stack.pop()
        if tracer.stack:
            tracer.stack[-1].child += duration
        tracer.records.append((tracer.command, self.name, duration, duration - self.child, self.size))
        return False


class Tracer:
    """Keeps spans in memory as (command, name, duration, self time, tokens)."""

    def __init__(self):
        self.records: list[tuple[str, str, float, float, int]] = []
        self.stack: list[Span] = []
        self.command = ""
        self.counts: dict[str, int] = defaultdict(int)
        self.aside_s = 0.0

    def span(self, name: str, size: int = 0) -> Span:
        return Span(self, name, size)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def aside(self, work, *args) -> None:
        """Runs benchmark-only work under the command "probe"; its wall time
        is added to aside_s, which the replay's wall time leaves out."""
        command, self.command = self.command, "probe"
        start = time.perf_counter()
        work(*args)
        self.aside_s += time.perf_counter() - start
        self.command = command


class NullTracer(Tracer):
    """Spans and counts that do nothing, and no probe: the untraced replay."""

    def span(self, name: str, size: int = 0):
        return nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass

    def aside(self, work, *args) -> None:
        pass


def _read(tr: Tracer, path: Path) -> bytes:
    with tr.span("io.read"):
        return path.read_bytes()


def _parse(tr: Tracer, data: bytes, size: int):
    with tr.span("formats.parse_xml", size):
        passage = formats.parse_xml(data)
    tr.count("formats.bytes_parsed", len(data))
    return passage


def _normalize(tr: Tracer, passage, size: int):
    with tr.span("validation.normalize", size):
        return validation.normalize(passage)


def probe(tr: Tracer, passage, size: int) -> None:
    """Graph construction, first yields and signatures of one gold passage."""
    tokens = passage.tokens
    units = sorted((n for n in passage.nodes if not n.is_terminal and n.id != passage.root),
                   key=lambda n: n.id)
    edges = passage.edges
    with tr.span("graph.build_freeze", size):
        fresh = Passage(passage.passage_id, tokens, root_id=passage.root)
        ids = {passage.root: fresh.root}
        for node in units:
            ids[node.id] = fresh.add_node(node.kind)
        for e in edges:
            fresh.add_edge(ids.get(e.parent, e.parent), ids.get(e.child, e.child), e.category,
                           remote=e.remote)
        fresh.freeze()
    tr.count("graph.edges", len(edges))
    nodes = [n.id for n in fresh.nodes]
    with tr.span("graph.yield_of", size):
        for nid in nodes:
            fresh.yield_of(nid)
    with tr.span("evaluation.edge_signatures", size):
        labeled = evaluation.edge_signatures(fresh, True)
        evaluation.edge_signatures(fresh, False)
    tr.count("evaluation.signatures", len(labeled))


def replay_evaluate(tr: Tracer, gold_dir: Path, system_dir: Path, sizes: dict[str, int]) -> str:
    gold = {p.stem: p for p in sorted(gold_dir.glob("*.xml"))}
    system = {p.stem: p for p in sorted(system_dir.glob("*.xml"))}
    pairs = []
    for stem in sorted(gold):
        n = sizes[stem]
        out = _parse(tr, _read(tr, system[stem]), n)
        ref = _parse(tr, _read(tr, gold[stem]), n)
        tr.aside(probe, tr, ref, n)
        pairs.append((_normalize(tr, out, n), _normalize(tr, ref, n), n))
    total = evaluation.EvalScores()
    for out, ref, n in pairs:
        with tr.span("evaluation.score_passage", n):
            scores = evaluation.score_passage(out, ref)
        with tr.span("evaluation.merge"):
            total = total.merge(scores)
    with tr.span("evaluation.to_dict"):
        payload = total.to_dict()
    tr.count("evaluation.matched", total.labeled["all"].matched)
    return json.dumps(payload, indent=2)


def replay_validate(tr: Tracer, gold_dir: Path, sizes: dict[str, int]) -> str:
    lines = []
    for path in sorted(gold_dir.glob("*.xml")):
        n = sizes[path.stem]
        passage = _parse(tr, _read(tr, path), n)
        with tr.span("validation.validate", n):
            report = validation.validate(passage)
        tr.count("validation.violations", len(report.violations))
        if report.violations:
            with tr.span("validation.to_json_lines"):
                lines.append(report.to_json_lines())
    return "\n".join(lines)


def _render_table(tr: Tracer, report) -> None:
    with tr.span("stats.render_table"):
        stats.render_table(report)


def replay_stats(tr: Tracer, gold_dir: Path, sizes: dict[str, int]) -> str:
    def load():
        for path in sorted(gold_dir.glob("*.xml")):
            yield _parse(tr, _read(tr, path), sizes[path.stem])

    with tr.span("stats.corpus_stats"):
        report = stats.corpus_stats(load())
    with tr.span("stats.to_dict"):
        payload = report.to_dict()
    tr.aside(_render_table, tr, report)
    return json.dumps(payload, indent=2)


def replay_normalize(tr: Tracer, gold_dir: Path, out_dir: Path, sizes: dict[str, int]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(gold_dir.glob("*.xml")):
        n = sizes[path.stem]
        passage = _parse(tr, _read(tr, path), n)
        normalized = _normalize(tr, passage, n)
        tr.count("validation.normalize.rebuilt", normalized is not passage)
        with tr.span("formats.serialize_xml", n):
            data = formats.serialize_xml(normalized)
        with tr.span("io.write"):
            (out_dir / path.name).write_bytes(data)


def replay_convert(tr: Tracer, gold_dir: Path, out_dir: Path, sizes: dict[str, int]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(gold_dir.glob("*.xml")):
        n = sizes[path.stem]
        passage = _normalize(tr, _parse(tr, _read(tr, path), n), n)
        with tr.span("formats.export_bilexical", n):
            rows = formats.export_bilexical(passage)
        with tr.span("formats.render_bilexical"):
            text = formats.render_bilexical(rows)
        with tr.span("io.write"):
            (out_dir / f"{path.stem}.tsv").write_text(text, encoding="utf-8")


def replay_command(tr: Tracer, command: str, gold_dir: Path, system_dir: Path, out_dir: Path,
                   sizes: dict[str, int]) -> float:
    """Replay one command in CLI order; returns its wall time, less the
    time spent on benchmark-only work."""
    steps = {
        "evaluate": lambda: replay_evaluate(tr, gold_dir, system_dir, sizes),
        "validate": lambda: replay_validate(tr, gold_dir, sizes),
        "stats": lambda: replay_stats(tr, gold_dir, sizes),
        "normalize": lambda: replay_normalize(tr, gold_dir, out_dir / "normalize", sizes),
        "convert_bilexical": lambda: replay_convert(tr, gold_dir, out_dir / "bilexical", sizes),
    }
    tr.command = command
    start = time.perf_counter()
    steps[command]()
    return time.perf_counter() - start - tr.aside_s
