"""Size and complexity metrics (the Lizard-equivalent layer)."""

from .bands import (
    FIGURE3_THRESHOLDS,
    ComplexityBand,
    band_histogram,
    count_over_thresholds,
)
from .halstead import (
    FunctionMaintainability,
    HalsteadMetrics,
    maintainability_index,
    measure_function,
    measure_tokens,
    unit_maintainability,
)
from .paths import (
    npath_function,
    npath_program,
    npath_statement,
    wcet_enumeration_cost,
)
from .complexity import (
    ComplexitySummary,
    FunctionComplexity,
    summarize_functions,
    summarize_unit,
    summarize_units,
)
from ..lang.lines import EMPTY_LINE_COUNTS, LineCounts, count_lines
from .report import (
    ModuleMetrics,
    figure3_rows,
    measure_module,
    total_moderate_or_higher,
)

__all__ = [
    "FunctionMaintainability",
    "HalsteadMetrics",
    "maintainability_index",
    "measure_function",
    "measure_tokens",
    "npath_function",
    "npath_program",
    "npath_statement",
    "unit_maintainability",
    "wcet_enumeration_cost",
    "EMPTY_LINE_COUNTS",
    "FIGURE3_THRESHOLDS",
    "ComplexityBand",
    "ComplexitySummary",
    "FunctionComplexity",
    "LineCounts",
    "ModuleMetrics",
    "band_histogram",
    "count_lines",
    "count_over_thresholds",
    "figure3_rows",
    "measure_module",
    "summarize_functions",
    "summarize_unit",
    "summarize_units",
    "total_moderate_or_higher",
]
