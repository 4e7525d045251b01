"""The official yield-based edge F1 metric.

An output graph is scored against a gold graph over the same token
sequence.  Two edges match when their children cover the same terminal
yield and, in labeled mode, carry the same category.  Matching is a
one-to-one multiset intersection, performed independently for primary and
remote edges; the "all" stratum sums the two count triples before
computing precision, recall and F1.  Edges whose child yield is empty
(implicit children) never enter a matching pool.

An edge's key is its child's yield key (see :meth:`Passage.yield_keys`),
its code and its class.  Each pair is scored from one tally of those keys;
yields are decoded to positions only for :func:`edge_signatures`.
"""
from __future__ import annotations

import os
from collections import Counter, defaultdict, namedtuple
from collections.abc import Iterable, Mapping

from .categories import ALL_CODES, PUNCT_CODE, report_order
from .errors import TokenMismatch, shown
from .graph import Passage
from .records import Record, render_rows

STRATA = ("all", "primary", "remote")


#: An edge's matching key: child yield, label (None in unlabeled mode), class.
EdgeSignature = namedtuple("EdgeSignature", "span category remote")


def _pooled(passage: Passage, include_punct: bool, yields: Mapping | None = None) -> list[tuple]:
    """(yields[child], code, remote) of each edge in a matching pool: none with an empty yield,
    no U edge unless include_punct.  The yields default to the passage's yield_keys()."""
    yields = passage.yield_keys() if yields is None else yields
    return [
        (span, category, remote)
        for _, child, category, remote in passage.edges
        if (span := yields[child]) and (include_punct or category != PUNCT_CODE)
    ]


def edge_signatures(
    passage: Passage, labeled: bool = True, include_punct: bool = True
) -> list[EdgeSignature]:
    """One signature per edge with a non-empty child yield."""
    positions = {nid: passage.yield_of(nid) for nid in passage.bottom_up()}
    return [
        EdgeSignature(span, code if labeled else None, remote)
        for span, code, remote in _pooled(passage, include_punct, positions)
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
        raise TokenMismatch(f"passage {shown(gold.passage_id)}: {_difference(output.tokens, gold.tokens)}")
    # One tally per pair: each (yield key, code, remote) key's count on both
    # sides.  Matching is per key, so the labeled strata and the categories
    # are sums by (code, remote); the unlabeled keys (yield key, remote) merge
    # labels, so their counts are summed before they are matched.
    out = Counter(_pooled(output, include_punct))
    ref = Counter(_pooled(gold, include_punct))
    labels = defaultdict(lambda: [0, 0, 0])  # (code, remote): matched, predicted, gold
    spans = defaultdict(lambda: [0, 0])  # (yield key, remote): predicted, gold
    for key in out.keys() | ref.keys():
        span, code, remote = key
        predicted, wanted = out.get(key, 0), ref.get(key, 0)
        counts = labels[code, remote]
        counts[0] += predicted if predicted < wanted else wanted
        counts[1] += predicted
        counts[2] += wanted
        counts = spans[span, remote]
        counts[0] += predicted
        counts[1] += wanted
    matched = [0, 0]  # unlabeled, primary and remote
    for (_, remote), (predicted, wanted) in spans.items():
        matched[remote] += predicted if predicted < wanted else wanted
    scores = EvalScores()
    for (code, remote), counts in labels.items():
        counts = Counts._make(counts)
        scores.labeled[STRATA[1 + remote]] += counts
        scores.by_category[code] = scores.by_category.get(code, Counts()) + counts
    for remote, stratum in enumerate(STRATA[1:]):
        labeled = scores.labeled[stratum]
        scores.unlabeled[stratum] = Counts(matched[remote], labeled.predicted, labeled.gold)
    for strata in (scores.labeled, scores.unlabeled):
        strata["all"] = strata["primary"] + strata["remote"]
    return scores


def _difference(output: tuple[str, ...], gold: tuple[str, ...]) -> str:
    """Where two different token sequences first part, long tokens shortened;
    if both shorten alike, also the first character where the two differ."""
    if len(output) != len(gold):
        return f"output has {len(output)} tokens, gold has {len(gold)}"
    k = next(k for k in range(len(gold)) if output[k] != gold[k])
    said, wanted = shown(output[k]), shown(gold[k])
    message = f"token {k + 1} is {said!r} in the output, {wanted!r} in the gold"
    if said == wanted:
        message += f"; they first differ at character {len(os.path.commonprefix((output[k], gold[k]))) + 1}"
    return message


def score_corpus(
    pairs: Iterable[tuple[Passage, Passage]], include_punct: bool = True
) -> EvalScores:
    """Micro-average over a stream of (output, gold) pairs: count triples
    are summed per stratum, ratios computed once at the end."""
    total = EvalScores()
    for output, gold in pairs:
        total = total.merge(score_passage(output, gold, include_punct))
    return total


def render_scores(payload: dict) -> str:
    """Aligned score table of the sections an EvalScores.to_dict() payload
    holds: its strata, then one row per category if it holds ``by_category``."""
    header = ["P", "R", "F1", "   matched/predicted/gold"]

    def row(name: str, c: dict) -> tuple[str, list[str]]:
        ratios = [f"{c[key]:.3f}" for key in ("precision", "recall", "f1")]
        return name, [*ratios, f"   {c['matched']}/{c['predicted']}/{c['gold']}"]

    rows = [("stratum", header)]
    for section in ("labeled", "unlabeled"):
        if section in payload:
            rows += [row(f"{section}/{s}", payload[section][s]) for s in STRATA]
    if "by_category" in payload:
        categories = payload["by_category"]
        rows += [("", []), ("category", header)]
        rows += [row(ALL_CODES.get(code, code), categories[code]) for code in report_order(categories)]
    return render_rows([22, 8, 8, 8, 0], rows)
