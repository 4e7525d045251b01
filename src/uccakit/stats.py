"""Corpus-level structural statistics."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .categories import ALL_CODES, REPORT_ORDER
from .graph import Passage


@dataclass
class StatsReport:
    """Aggregate counts over a corpus, with derived percentages.

    Percentages are micro: computed on the aggregate counts, not averaged
    per passage.  Merging reports is associative and commutative.
    """

    passages: int = 0
    sentences: int = 0
    tokens: int = 0
    non_terminals: int = 0
    discontinuous: int = 0
    reentrant: int = 0
    non_root_nodes: int = 0  # reentrancy denominator: all nodes except roots
    edges: int = 0
    primary: int = 0
    remote: int = 0
    category_counts: Counter = field(default_factory=Counter)

    @property
    def pct_discontinuous(self) -> float:
        return _pct(self.discontinuous, self.non_terminals)

    @property
    def pct_reentrant(self) -> float:
        return _pct(self.reentrant, self.non_root_nodes)

    @property
    def pct_primary(self) -> float:
        return _pct(self.primary, self.edges)

    @property
    def pct_remote(self) -> float:
        return _pct(self.remote, self.edges)

    @property
    def by_category(self) -> dict[str, float]:
        return {code: _pct(n, self.edges) for code, n in sorted(self.category_counts.items())}

    def add_passage(self, passage: Passage) -> None:
        passage.require_sealed()
        self.passages += 1
        self.sentences += passage.num_sentences
        self.tokens += len(passage.terminals)
        self.non_root_nodes += len(passage.nodes) - 1
        for unit in passage.non_terminals:
            self.non_terminals += 1
            if passage.is_discontinuous(unit.id):
                self.discontinuous += 1
        for node in passage.nodes:
            if node.id != passage.root and passage.is_reentrant(node.id):
                self.reentrant += 1
        for edge in passage.edges:
            self.edges += 1
            if edge.remote:
                self.remote += 1
            else:
                self.primary += 1
            self.category_counts[edge.category.code] += 1

    def merge(self, other: "StatsReport") -> "StatsReport":
        merged = StatsReport()
        for name in ("passages", "sentences", "tokens", "non_terminals", "discontinuous",
                     "reentrant", "non_root_nodes", "edges", "primary", "remote"):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        merged.category_counts = self.category_counts + other.category_counts
        return merged

    def to_dict(self) -> dict:
        return {
            "passages": self.passages,
            "sentences": self.sentences,
            "tokens": self.tokens,
            "non_terminals": self.non_terminals,
            "pct_discontinuous": round(self.pct_discontinuous, 2),
            "pct_reentrant": round(self.pct_reentrant, 2),
            "edges": self.edges,
            "pct_primary": round(self.pct_primary, 2),
            "pct_remote": round(self.pct_remote, 2),
            "by_category": {c: round(p, 2) for c, p in self.by_category.items()},
        }


def corpus_stats(passages: Iterable[Passage]) -> StatsReport:
    """Aggregate statistics over a stream of sealed passages."""
    report = StatsReport()
    for passage in passages:
        report.add_passage(passage)
    return report


def render_table(report: StatsReport) -> str:
    """Aligned text table, one statistic per row."""
    rows: list[tuple[str, str]] = [
        ("# passages", str(report.passages)),
        ("# sentences", str(report.sentences)),
        ("# tokens", str(report.tokens)),
        ("# non-terminals", str(report.non_terminals)),
        ("% discontinuous", f"{report.pct_discontinuous:.2f}"),
        ("% reentrant", f"{report.pct_reentrant:.2f}"),
        ("# edges", str(report.edges)),
        ("% primary", f"{report.pct_primary:.2f}"),
        ("% remote", f"{report.pct_remote:.2f}"),
    ]
    seen = [c for c in REPORT_ORDER if c in report.category_counts]
    seen += sorted(set(report.category_counts) - set(seen))
    for code in seen:
        rows.append((f"  % {ALL_CODES.get(code, code)}", f"{_pct(report.category_counts[code], report.edges):.2f}"))
    width = max(len(label) for label, _ in rows)
    lines = [f"{label:<{width}}  {value:>10}" for label, value in rows]
    if seen:
        lines.insert(9, "by category")
    return "\n".join(lines)


def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0
