"""Corpus-level structural statistics."""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from operator import add

from .categories import ALL_CODES, report_order
from .graph import Passage
from .records import Record, render_rows


class StatsReport(Record):
    """Aggregate counts over a corpus, with derived percentages.

    Percentages are micro: computed on the aggregate counts, not averaged
    per passage.  Merging reports is associative and commutative.
    non_root_nodes, the reentrancy denominator, counts all nodes except roots.
    """

    __slots__ = ("passages", "tokens", "non_terminals", "discontinuous", "reentrant",
                 "non_root_nodes", "edges", "primary", "remote", "category_counts")

    def __init__(self, passages: int = 0, tokens: int = 0, non_terminals: int = 0,
                 discontinuous: int = 0, reentrant: int = 0, non_root_nodes: int = 0,
                 edges: int = 0, primary: int = 0, remote: int = 0,
                 category_counts: Counter | None = None):
        self.passages, self.tokens, self.non_terminals = passages, tokens, non_terminals
        self.discontinuous, self.reentrant, self.non_root_nodes = (
            discontinuous, reentrant, non_root_nodes)
        self.edges, self.primary, self.remote = edges, primary, remote
        self.category_counts = Counter() if category_counts is None else category_counts

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
        units, nodes, edges = passage.non_terminals, passage.nodes, passage.edges
        remote = sum(edge[3] for edge in edges)
        self.passages += 1
        self.tokens += len(passage.terminals)
        self.non_root_nodes += len(nodes) - 1
        self.non_terminals += len(units)
        self.discontinuous += sum(passage.is_discontinuous(unit.id) for unit in units)
        # The children of remote edges: the nodes Passage.is_reentrant answers True for.
        self.reentrant += len({edge[1] for edge in edges if edge[3]})
        self.edges += len(edges)
        self.remote += remote
        self.primary += len(edges) - remote
        self.category_counts.update(edge[2] for edge in edges)

    def merge(self, other: "StatsReport") -> "StatsReport":
        return StatsReport(*map(add, self._values(), other._values()))

    def to_dict(self) -> dict:
        payload = {key: _json_value(getattr(self, key)) for _, key in _ROWS}
        payload["by_category"] = {c: round(p, 2) for c, p in self.by_category.items()}
        return payload


#: The headline statistics in table order: (table label, attribute and JSON key).
_ROWS = [
    ("# passages", "passages"),
    ("# tokens", "tokens"),
    ("# non-terminals", "non_terminals"),
    ("% discontinuous", "pct_discontinuous"),
    ("% reentrant", "pct_reentrant"),
    ("# edges", "edges"),
    ("% primary", "pct_primary"),
    ("% remote", "pct_remote"),
]


def corpus_stats(passages: Iterable[Passage]) -> StatsReport:
    """Aggregate statistics over a stream of sealed passages."""
    report = StatsReport()
    for passage in passages:
        report.add_passage(passage)
    return report


def render_table(reports: StatsReport | Mapping[str, StatsReport]) -> str:
    """Aligned text table, one statistic per row.

    One report gives one column of values.  A mapping from corpus name to
    report gives one column per corpus, under a header row of the names.
    """
    named = not isinstance(reports, StatsReport)
    columns = list(reports.values()) if named else [reports]
    head = [("", list(reports))] if named else []
    head += [(label, [_cell(getattr(r, key)) for r in columns]) for label, key in _ROWS]
    shares = [r.by_category for r in columns]
    by_category = [
        (f"  % {ALL_CODES.get(code, code)}", [_cell(share.get(code, 0.0)) for share in shares])
        for code in report_order(set().union(*shares))
    ]
    rows = head + [("by category", [])] + by_category if by_category else head
    widths = [max(len(label) for label, _ in rows)]
    widths += [2 + max(10, *map(len, column)) for column in zip(*(cells for _, cells in rows if cells))]
    return render_rows(widths, rows)


def _cell(value: int | float) -> str:
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def _json_value(value: int | float) -> int | float:
    return round(value, 2) if isinstance(value, float) else value


def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0
