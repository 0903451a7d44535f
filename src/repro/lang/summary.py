"""Compact per-file summaries: what outlives the per-file stages.

A :class:`~repro.lang.cppmodel.TranslationUnit` carries the whole token
stream of its file (twice: all tokens and the code tokens), which only
the per-file checker sweep needs.  Everything after that sweep — module
metrics (Figure 3), the deviation lookup of project-level reports, unit
design's call-graph recursion pass, the architecture checker — reads a
handful of facts per file.  :func:`summarize_unit` copies exactly those
facts into a :class:`UnitSummary`, once per parsed file, right after
parsing.

The summary is what the result cache stores for a parsed file and what
the project-level stages consume; the full unit lives only between a
file's parse and its checker sweep.  A summary holds no ``tokens``, no
``code`` and no ``body_tokens``, so a stage that still reaches for the
token stream fails with an ``AttributeError`` instead of silently
re-walking it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Iterable, List, NamedTuple, Sequence, Tuple, TypeVar,
                    Union)

from ..rules.deviations import DeviationIndex
from .cppmodel import GlobalVariable, TranslationUnit
from .lines import LineCounts
from .preprocessor import Include

__all__ = ["ClassSummary", "FunctionSummary", "UnitSummary",
           "splice_files", "summarize_unit", "unit_summaries"]

#: A record carrying the ``filename`` of the file it belongs to.
Located = TypeVar("Located")


class FunctionSummary(NamedTuple):
    """The project-level facts of one function definition.

    Field names match :class:`~repro.lang.cppmodel.FunctionInfo`, so
    code reading these fields accepts either record.
    """

    name: str
    qualified_name: str
    start_line: int
    cyclomatic_complexity: int
    #: Called identifiers in body order, repeats kept (coupling and
    #: cohesion count call sites, not distinct callees).
    calls: Tuple[str, ...]


class ClassSummary(NamedTuple):
    """The project-level facts of one class definition (names match
    :class:`~repro.lang.cppmodel.ClassInfo`'s properties)."""

    qualified_name: str
    start_line: int
    interface_size: int


@dataclass
class UnitSummary:
    """The compact, picklable record of one parsed file."""

    filename: str
    functions: List[FunctionSummary]
    classes: List[ClassSummary]
    namespaces: List[str]
    globals: List[GlobalVariable]
    #: The preprocessor summary's quote-syntax includes (module coupling).
    local_includes: List[Include]
    line_count: int
    lines: LineCounts
    deviations: DeviationIndex

    @property
    def mutable_globals(self) -> List[GlobalVariable]:
        return [variable for variable in self.globals
                if variable.is_mutable_global]


def summarize_unit(unit: TranslationUnit) -> UnitSummary:
    """The :class:`UnitSummary` of a freshly parsed unit."""
    return UnitSummary(
        filename=unit.filename,
        functions=[FunctionSummary(function.name, function.qualified_name,
                                   function.start_line,
                                   function.cyclomatic_complexity,
                                   tuple(function.calls))
                   for function in unit.functions],
        classes=[ClassSummary(info.qualified_name, info.start_line,
                              info.interface_size)
                 for info in unit.classes],
        namespaces=list(unit.namespaces),
        globals=list(unit.globals),
        local_includes=unit.preprocessor.local_includes,
        line_count=unit.line_count,
        lines=unit.lines,
        deviations=unit.deviations,
    )


def unit_summaries(units: Iterable[Union[TranslationUnit, UnitSummary]]
                   ) -> List[UnitSummary]:
    """Summaries of ``units``: full units are summarized, summaries kept.

    Lets the project-level entry points keep accepting full units while
    reading nothing a summary does not hold.
    """
    return [summarize_unit(unit) if isinstance(unit, TranslationUnit)
            else unit for unit in units]


def splice_files(items: Sequence[Located], removed: Iterable[str],
                 added: Sequence[Tuple[str, Sequence[Located]]]
                 ) -> List[Located]:
    """``items`` — records grouped by ``filename``, files in path order
    — with each ``removed`` file's run cut out and each ``added`` file's
    run put in at its place.

    A project-level fold keeps its per-file records this way (module
    complexity records, architecture findings), so a changed file's run
    is found by bisection: the changed paths are visited in path order,
    the untouched stretches between them copied as slices.  Into no
    ``items``, ``added`` is concatenated in the order given.
    """
    new = dict(added)
    paths = [*new, *(path for path in removed if path not in new)]
    if items:
        paths.sort()
    out: List[Located] = []
    start = 0
    for path in paths:
        low, high = start, len(items)
        while low < high:
            middle = (low + high) // 2
            if items[middle].filename < path:
                low = middle + 1
            else:
                high = middle
        out += items[start:low]
        out += new.get(path, ())
        start = low
        while start < len(items) and items[start].filename == path:
            start += 1
    out += items[start:]
    return out
