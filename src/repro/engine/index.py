"""Precomputed line-interval index for enclosing-function lookups.

``enclosing_function_name`` used to scan every function of a unit per
lookup — O(functions) per finding, and the cast checker alone performs
one lookup per cast (Apollo has >1,400).  The index flattens the
function intervals into one per-line name array at first use, making
every subsequent lookup a list access.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["FunctionLineIndex", "function_line_index"]


class FunctionLineIndex:
    """Maps a 1-based source line to its innermost function's name.

    Matches the legacy scan's tie-breaking exactly: the function with
    the strictly smallest line span containing the line wins, earliest
    declaration first on equal spans (a later function only replaces a
    line's entry when its span is strictly smaller).
    """

    def __init__(self, functions: Sequence) -> None:
        top = 0
        for function in functions:
            if function.end_line > top:
                top = function.end_line
        unclaimed = top + 2  # wider than any real span
        names: List[str] = [""] * (top + 1)
        spans: List[int] = [unclaimed] * (top + 1)
        for function in functions:
            start = max(function.start_line, 0)
            span = function.end_line - function.start_line
            name = function.qualified_name
            for line in range(start, function.end_line + 1):
                if span < spans[line]:
                    names[line] = name
                    spans[line] = span
        self._names = names

    def lookup(self, line: int) -> str:
        """Qualified name of the function containing ``line``, or ``""``."""
        names = self._names
        if 0 <= line < len(names):
            return names[line]
        return ""


def function_line_index(unit) -> FunctionLineIndex:
    """The unit's line index, built once and memoized on the unit."""
    index = getattr(unit, "_function_line_index", None)
    if index is None:
        index = FunctionLineIndex(unit.functions)
        unit._function_line_index = index
    return index
