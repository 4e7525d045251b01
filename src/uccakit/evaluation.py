"""The official yield-based edge F1 metric.

An output graph is scored against a gold graph over the same token
sequence.  Two edges match when their children cover the same terminal
yield and, in labeled mode, carry the same category.  Matching is a
one-to-one multiset intersection, performed independently for primary and
remote edges; the "all" stratum sums the two count triples before
computing precision, recall and F1.  Edges whose child yield is empty
(implicit children) never enter a matching pool.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from operator import itemgetter

from .categories import ALL_CODES, PUNCT_CODE, report_order
from .errors import TokenMismatch
from .graph import Passage
from .records import Record

STRATA = ("all", "primary", "remote")


#: An edge's matching key: child yield, label (None in unlabeled mode), class.
EdgeSignature = namedtuple("EdgeSignature", "span category remote")


def _pooled(passage: Passage, include_punct: bool) -> Iterator[tuple[tuple[int, ...], str, bool]]:
    """(span, code, remote) of every edge that enters a matching pool."""
    for edge in passage.edges:
        span = passage.yield_of(edge.child)
        if span and (include_punct or edge.category.code != PUNCT_CODE):
            yield span, edge.category.code, edge.remote


def edge_signatures(
    passage: Passage, labeled: bool = True, include_punct: bool = True
) -> list[EdgeSignature]:
    """One signature per edge with a non-empty child yield."""
    return [
        EdgeSignature(span, code if labeled else None, remote)
        for span, code, remote in _pooled(passage, include_punct)
    ]


def match_count(out_sigs: Iterable[EdgeSignature], gold_sigs: Iterable[EdgeSignature]) -> int:
    """Size of the multiset intersection: each gold signature is consumed
    at most once."""
    common = Counter(out_sigs) & Counter(gold_sigs)
    return sum(common.values())


class Counts(namedtuple("Counts", "matched predicted gold", defaults=(0, 0, 0))):
    """One count triple; ``+`` adds field by field."""

    __slots__ = ()

    @property
    def precision(self) -> float:
        return self._ratio(self.predicted)

    @property
    def recall(self) -> float:
        return self._ratio(self.gold)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def _ratio(self, denominator: int) -> float:
        # Empty on both sides counts as a perfect score; an empty side
        # against a non-empty one scores 0.
        if denominator == 0:
            return 1.0 if self.predicted == self.gold == 0 else 0.0
        return self.matched / denominator

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.matched + other.matched, self.predicted + other.predicted,
                      self.gold + other.gold)

    def to_dict(self) -> dict:
        return {**self._asdict(), "precision": self.precision, "recall": self.recall, "f1": self.f1}


class EvalScores(Record):
    """Count triples per stratum: labeledness x edge class, plus per-category."""

    __slots__ = ("labeled", "unlabeled", "by_category")

    def __init__(self, labeled: dict | None = None, unlabeled: dict | None = None,
                 by_category: dict | None = None):
        self.labeled = {s: Counts() for s in STRATA} if labeled is None else labeled
        self.unlabeled = {s: Counts() for s in STRATA} if unlabeled is None else unlabeled
        self.by_category = {} if by_category is None else by_category

    def merge(self, other: "EvalScores") -> "EvalScores":
        def add(mine: dict[str, Counts], theirs: dict[str, Counts]) -> dict[str, Counts]:
            return {key: mine.get(key, Counts()) + theirs.get(key, Counts())
                    for key in {**mine, **theirs}}

        return EvalScores(add(self.labeled, other.labeled), add(self.unlabeled, other.unlabeled),
                          add(self.by_category, other.by_category))

    def to_dict(self) -> dict:
        return {
            "labeled": {s: c.to_dict() for s, c in self.labeled.items()},
            "unlabeled": {s: c.to_dict() for s, c in self.unlabeled.items()},
            "by_category": {c: n.to_dict() for c, n in sorted(self.by_category.items())},
        }


def score_passage(output: Passage, gold: Passage, include_punct: bool = True) -> EvalScores:
    """Score one output passage against its gold annotation."""
    if output.tokens != gold.tokens:
        raise TokenMismatch(
            f"passage {gold.passage_id}: output has {len(output.tokens)} tokens "
            f"vs {len(gold.tokens)} gold, or the texts differ"
        )
    # One multiset of (span, code, remote) keys per passage.  Matching is
    # per key, so strata and categories are sums over the matched keys; the
    # unlabeled keys (span, remote) merge labels, so they are matched anew.
    out = Counter(_pooled(output, include_punct))
    ref = Counter(_pooled(gold, include_punct))
    unlabeled, remote_of, code_of = itemgetter(0, 2), itemgetter(-1), itemgetter(1)
    scores = EvalScores()
    for target, o, r in (
        (scores.labeled, out, ref),
        (scores.unlabeled, _project(unlabeled, out), _project(unlabeled, ref)),
    ):
        matched, predicted, wanted = (_project(remote_of, c) for c in (o & r, o, r))
        for remote in (False, True):
            counts = Counts(matched[remote], predicted[remote], wanted[remote])
            target["remote" if remote else "primary"] += counts
            target["all"] += counts
    matched, predicted, wanted = (_project(code_of, c) for c in (out & ref, out, ref))
    for code in sorted(predicted.keys() | wanted.keys()):
        scores.by_category[code] = Counts(matched[code], predicted[code], wanted[code])
    return scores


def _project(field, keys: Counter) -> Counter:
    """The multiset of field(key) over the keys of `keys`, with multiplicity."""
    return Counter(map(field, keys.elements()))


def score_corpus(
    pairs: Iterable[tuple[Passage, Passage]], include_punct: bool = True
) -> EvalScores:
    """Micro-average over a stream of (output, gold) pairs: count triples
    are summed per stratum, ratios computed once at the end."""
    total = EvalScores()
    for output, gold in pairs:
        total = total.merge(score_passage(output, gold, include_punct))
    return total


def render_scores(
    scores: EvalScores, fine_grained: bool = False, unlabeled_only: bool = False
) -> str:
    """Aligned score table; one row per stratum, optionally per category."""
    header = f"{'stratum':<22}{'P':>8}{'R':>8}{'F1':>8}   matched/predicted/gold"
    lines = [header]

    def row(name: str, counts: Counts) -> str:
        return (
            f"{name:<22}{counts.precision:>8.3f}{counts.recall:>8.3f}{counts.f1:>8.3f}"
            f"   {counts.matched}/{counts.predicted}/{counts.gold}"
        )

    if not unlabeled_only:
        for stratum in STRATA:
            lines.append(row(f"labeled/{stratum}", scores.labeled[stratum]))
    for stratum in STRATA:
        lines.append(row(f"unlabeled/{stratum}", scores.unlabeled[stratum]))
    if fine_grained and not unlabeled_only:
        lines.append("")
        lines.append(f"{'category':<22}{'P':>8}{'R':>8}{'F1':>8}   matched/predicted/gold")
        for code in report_order(scores.by_category):
            lines.append(row(ALL_CODES.get(code, code), scores.by_category[code]))
    return "\n".join(lines)
