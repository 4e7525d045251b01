"""The base of the ``__slots__`` record classes, and the aligned table both reports print."""


class Record:
    """Equality and repr over ``__slots__``, as a dataclass gives them; unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def render_rows(widths: list[int], rows: list[tuple[str, list[str]]]) -> str:
    """Rows of (label, cells) as lines: the label left-aligned in the first
    width, each cell right-aligned in the next; a row with no cells is its label alone."""
    label_width, *cell_widths = widths
    return "\n".join(
        f"{label:<{label_width}}" + "".join(f"{cell:>{w}}" for cell, w in zip(cells, cell_widths))
        if cells else label
        for label, cells in rows
    )
