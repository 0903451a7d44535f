"""Per-module metric aggregation — the data behind Figure 3.

A *module* here is what the paper plots on the X axis of Figure 3: one of
Apollo's top-level components (perception, prediction, planning, ...).  The
:class:`ModuleMetrics` record carries everything the figure shows: total
LOC (crosses), function count (diamonds), and the number of functions above
each complexity threshold (bars).

A module's metrics are a fold over its files: :func:`measure_module`
takes a previous :class:`ModuleMetrics`, cuts the removed files'
contributions out and puts the added files' in, reading only those
files.  Measuring a module from nothing is the same fold from the empty
module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..lang.cppmodel import TranslationUnit
from ..lang.lines import EMPTY_LINE_COUNTS, LineCounts
from ..lang.summary import UnitSummary, splice_files, unit_summaries
from ..obs import NULL_TRACER
from .bands import FIGURE3_THRESHOLDS
from .complexity import ComplexitySummary, summarize_unit

_complexity = attrgetter("complexity")


@dataclass
class ModuleMetrics:
    """Size and complexity metrics for one software module."""

    name: str
    lines: LineCounts = EMPTY_LINE_COUNTS
    file_count: int = 0
    complexity: ComplexitySummary = field(default_factory=ComplexitySummary)
    class_count: int = 0
    global_count: int = 0
    #: Functions with complexity > 10, and the highest complexity: kept
    #: beside the records, so readers (the evidence) need not re-list
    #: every function.  Computed from ``complexity`` when not given.
    moderate_or_higher: Optional[int] = None
    max_complexity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.moderate_or_higher is None:
            self.moderate_or_higher = self.complexity.moderate_or_higher
        if self.max_complexity is None:
            self.max_complexity = self.complexity.max_complexity

    @property
    def loc(self) -> int:
        """Total physical lines — the Figure 3 crosses."""
        return self.lines.total

    @property
    def function_count(self) -> int:
        """Number of function definitions — the Figure 3 diamonds."""
        return self.complexity.function_count

    def functions_over(self,
                       thresholds: Sequence[int] = tuple(FIGURE3_THRESHOLDS),
                       ) -> Dict[int, int]:
        """Functions above each complexity threshold — the Figure 3 bars."""
        return self.complexity.over_thresholds(thresholds)


def measure_module(name: str,
                   units: Iterable[Union[TranslationUnit, UnitSummary]],
                   tracer=None, *,
                   previous: Optional[ModuleMetrics] = None,
                   removed: Sequence[UnitSummary] = ()) -> ModuleMetrics:
    """Aggregate metrics for one module.

    Args:
        name: module name (e.g. ``"perception"``).
        units: the per-file summaries (:class:`~repro.lang.summary.
            UnitSummary`) of the module's files, or their full parsed
            models, which are summarized first — with ``previous``, of
            the files to put in.
        tracer: optional :class:`~repro.obs.Tracer`; measurement is
            wrapped in a ``measure_module`` span carrying file and LOC
            counts.
        previous: the module's metrics to fold from (the empty module
            by default).
        removed: the summaries of the files to take out of ``previous``
            (a changed file is taken out with its old summary and put in
            with its new one).

    The result equals a measurement from nothing of ``previous``'s
    files less ``removed`` plus ``units``, and only ``removed`` and
    ``units`` are read: complexity records are built for ``units``
    only, and a removed file's are cut out of ``previous``'s by path
    (:func:`~repro.lang.summary.splice_files`), so a fold into a module
    measured in path order takes ``units`` and ``removed`` each in path
    order.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    units = unit_summaries(units)
    base = previous if previous is not None else ModuleMetrics(name)
    with tracer.span("measure_module", module=name) as span:
        lines = base.lines
        for unit in removed:
            lines = lines - unit.lines
        for unit in units:
            lines = lines + unit.lines
        records = splice_files(
            base.complexity.records, [unit.filename for unit in removed],
            [(unit.filename, summarize_unit(unit).records)
             for unit in units])
        cut, put = _figures(removed), _figures(units)
        metrics = ModuleMetrics(
            name=name,
            lines=lines,
            file_count=base.file_count - len(removed) + len(units),
            complexity=ComplexitySummary(records),
            class_count=base.class_count - _sum_len(removed, "classes")
            + _sum_len(units, "classes"),
            global_count=base.global_count
            - _sum_len(removed, "mutable_globals")
            + _sum_len(units, "mutable_globals"),
            moderate_or_higher=base.moderate_or_higher - cut[0] + put[0],
            # a removed file may have held the maximum: re-read records
            max_complexity=(max(map(_complexity, records), default=0)
                            if removed and cut[1] >= base.max_complexity
                            else max(base.max_complexity, put[1])),
        )
        span.set("files", metrics.file_count)
        span.set("loc", metrics.loc)
    return metrics


def _figures(units: Sequence[UnitSummary]) -> Tuple[int, int]:
    """``(functions with complexity > 10, highest complexity)`` of
    ``units``."""
    values = [function.cyclomatic_complexity for unit in units
              for function in unit.functions]
    return sum(1 for value in values if value > 10), max(values, default=0)


def _sum_len(units: Sequence[UnitSummary], name: str) -> int:
    return sum(len(getattr(unit, name)) for unit in units)


def figure3_rows(modules: Iterable[ModuleMetrics],
                 thresholds: Sequence[int] = tuple(FIGURE3_THRESHOLDS),
                 ) -> List[Dict[str, object]]:
    """Render the Figure 3 data as a list of row dictionaries.

    Each row contains the module name, LOC, function count, and one
    ``cc>N`` entry per threshold, in the same spirit as the paper's plot.
    """
    rows: List[Dict[str, object]] = []
    for module in modules:
        row: Dict[str, object] = {
            "module": module.name,
            "loc": module.loc,
            "functions": module.function_count,
        }
        for threshold, count in module.functions_over(thresholds).items():
            row[f"cc>{threshold}"] = count
        rows.append(row)
    return rows


def total_moderate_or_higher(modules: Iterable[ModuleMetrics]) -> int:
    """Framework-wide count of functions with complexity > 10.

    The paper reports 554 for the whole of Apollo.
    """
    return sum(module.moderate_or_higher for module in modules)
