"""Well-formedness checks.

Validation checks annotation-guideline rules that go beyond the raw graph
invariants enforced at freeze time; violations are data, not errors, so
third-party outputs remain scorable.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .categories import PUNCT_CODE
from .graph import Passage, normalize  # noqa: F401 (perfbench/traced.py calls validation.normalize)
from .records import Record

RULES = {
    "V0": "no legacy T/Q labels remain",
    "V1": "a Scene has exactly one main relation (P or S child)",
    "V2": "a Scene has at least one Participant (A child, remote or implicit counted)",
    "V3": "punctuation terminals attach via U, and U attaches only punctuation",
    "V4": "all categories belong to the inventory",
}
# V4 holds of every sealed passage: Passage._link takes only a Category as a
# label, and only a code of the inventory makes one, so validate has no check for it.


class RuleSet(namedtuple("RuleSet", "enabled")):
    """The enabled validation rules as a frozenset; unknown ids are rejected."""

    __slots__ = ()

    def __new__(cls, enabled: Iterable[str] = RULES) -> "RuleSet":
        enabled = frozenset(enabled)
        unknown = enabled.difference(RULES)
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        return tuple.__new__(cls, (enabled,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self.enabled


#: One broken rule; ref is the offending node id or a "parent->child" edge.
Violation = namedtuple("Violation", "rule ref message")


class ValidationReport(Record):
    __slots__ = ("passage_id", "violations")

    def __init__(self, passage_id: str, violations: list[Violation] | None = None):
        self.passage_id = passage_id
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_lines(self) -> str:
        """One JSON object per violation: {passage, rule, ref, message}."""
        import json

        return "\n".join(
            json.dumps(
                {"passage": self.passage_id, "rule": v.rule, "ref": v.ref, "message": v.message}
            )
            for v in self.violations
        )


def validate(passage: Passage, rules: RuleSet | None = None) -> ValidationReport:
    """Check a sealed passage against the enabled rules."""
    rules = rules or RuleSet()
    passage.require_sealed()
    report = ValidationReport(passage.passage_id)

    def flag(rule: str, ref, message: str) -> None:
        if rule in rules:
            report.violations.append(Violation(rule, str(ref), message))

    for parent, child, category, _ in passage.edges:
        if category.normalized is not category:
            flag("V0", f"{parent}->{child}", f"legacy label {category}; run normalize first")

    for unit in passage.non_terminals:
        codes = [edge[2] for edge in passage.outgoing(unit.id)]
        main = [code for code in codes if code in ("P", "S")]
        if not main:
            continue
        if len(main) > 1:
            flag("V1", unit.id, f"multiple main relations ({''.join(main)}) in one Scene")
        if "A" not in codes:
            flag("V2", unit.id, "Scene without a Participant")

    punctuation = passage.punctuation
    for parent, child, category, _ in passage.edges:
        punct = child in punctuation
        if punct and category != PUNCT_CODE:
            flag("V3", f"{parent}->{child}", f"punctuation token attached as {category}, expected U")
        if not punct and category == PUNCT_CODE:
            flag("V3", f"{parent}->{child}", "U edge points at a non-punctuation node")

    return report
