"""Per-module metric aggregation — the data behind Figure 3.

A *module* here is what the paper plots on the X axis of Figure 3: one of
Apollo's top-level components (perception, prediction, planning, ...).  The
:class:`ModuleMetrics` record carries everything the figure shows: total
LOC (crosses), function count (diamonds), and the number of functions above
each complexity threshold (bars).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Union

from ..lang.cppmodel import TranslationUnit
from ..lang.lines import EMPTY_LINE_COUNTS, LineCounts
from ..lang.summary import UnitSummary, unit_summaries
from ..obs import NULL_TRACER
from .bands import FIGURE3_THRESHOLDS
from .complexity import ComplexitySummary, summarize_units


@dataclass
class ModuleMetrics:
    """Size and complexity metrics for one software module."""

    name: str
    lines: LineCounts = EMPTY_LINE_COUNTS
    file_count: int = 0
    complexity: ComplexitySummary = field(default_factory=ComplexitySummary)
    class_count: int = 0
    global_count: int = 0

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
                   tracer=None) -> ModuleMetrics:
    """Aggregate metrics for one module.

    Args:
        name: module name (e.g. ``"perception"``).
        units: the per-file summaries (:class:`~repro.lang.summary.
            UnitSummary`) of the module's files, or their full parsed
            models, which are summarized first.
        tracer: optional :class:`~repro.obs.Tracer`; measurement is
            wrapped in a ``measure_module`` span carrying file and LOC
            counts.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    units = unit_summaries(units)
    with tracer.span("measure_module", module=name) as span:
        lines = EMPTY_LINE_COUNTS
        for unit in units:
            lines = lines + unit.lines
        metrics = ModuleMetrics(
            name=name,
            lines=lines,
            file_count=len(units),
            complexity=summarize_units(units),
            class_count=sum(len(unit.classes) for unit in units),
            global_count=sum(len(unit.mutable_globals) for unit in units),
        )
        span.set("files", metrics.file_count)
        span.set("loc", metrics.loc)
    return metrics


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
    return sum(module.complexity.moderate_or_higher for module in modules)
