"""Edge category inventory of the foundational layer, and Category, the edge label:
a str that is one of its codes and knows what normalization makes of it."""
from __future__ import annotations

from collections.abc import Iterable

from .errors import UnknownCategory, shown

#: The twelve foundational categories.
FOUNDATIONAL = {
    "P": "Process",
    "S": "State",
    "A": "Participant",
    "D": "Adverbial",
    "C": "Center",
    "E": "Elaborator",
    "N": "Connector",
    "R": "Relator",
    "H": "Parallel Scene",
    "L": "Linker",
    "G": "Ground",
    "F": "Function",
}

#: Punctuation attachment label.
PUNCT_CODE = "U"

#: Legacy labels accepted on input only; normalization rewrites them.
LEGACY = {"T": "Time", "Q": "Quantifier"}

#: Legacy code -> replacement applied by normalization.
LEGACY_REPLACEMENT = {"T": "D", "Q": "E"}

ALL_CODES: dict[str, str] = {**FOUNDATIONAL, PUNCT_CODE: "Punctuation", **LEGACY}

#: Fixed ordering used by fine-grained score and statistics reports.
REPORT_ORDER = [*FOUNDATIONAL, PUNCT_CODE]


def report_order(codes: Iterable[str]) -> list[str]:
    """`codes` in REPORT_ORDER, then any others (legacy T/Q) sorted."""
    codes = set(codes)
    return [c for c in REPORT_ORDER if c in codes] + sorted(codes.difference(REPORT_ORDER))


class Category(str):
    """An edge label: a str equal to its code, one of ALL_CODES.  ``code`` is the label
    itself, ``longname`` reads ALL_CODES and ``normalized`` is the category normalization puts in
    its place (T: D, Q: E, else itself); Category(code) and from_code return the registry's object."""

    __slots__ = ()

    def __new__(cls, code: str) -> "Category":
        try:
            return CATEGORIES[code]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise UnknownCategory(f"unknown category code: {shown(code)!r}") from None

    from_code = classmethod(__new__)
    code = property(lambda self: self)
    longname = property(ALL_CODES.__getitem__)


#: Every category by its code, and each category's normalized form.
CATEGORIES = {code: str.__new__(Category, code) for code in ALL_CODES}
_NORMALIZED = {c: CATEGORIES[LEGACY_REPLACEMENT.get(c, c)] for c in CATEGORIES.values()}
Category.normalized = property(_NORMALIZED.__getitem__)
