"""Edge category inventory of the foundational layer."""
from __future__ import annotations

from collections import namedtuple
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


class Category(namedtuple("Category", "code longname")):
    """An edge label: single-letter code plus its human-readable name."""

    __slots__ = ()

    @classmethod
    def from_code(cls, code: str) -> "Category":
        try:
            return CATEGORIES[code]
        except KeyError:
            raise UnknownCategory(f"unknown category code: {shown(code)!r}") from None

    def __str__(self) -> str:
        return self.code


#: Every category by its code.
CATEGORIES = {code: Category(code, longname) for code, longname in ALL_CODES.items()}
