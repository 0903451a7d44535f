"""Structural-coverage engine: statement, branch, and MC/DC."""

from .annotate import (
    annotate_source,
    function_coverage_table,
    uncovered_summary,
)
from .branch import BranchCoverage, BranchRecord, measure_branch_coverage
from .mcdc import ConditionRecord, McdcCoverage, measure_mcdc_coverage
from .probes import CoverageCollector
from .report import (
    CoverageCampaign,
    FileCoverage,
    summarize_collector,
)
from .suggest import (
    IndependencePair,
    McdcSuggestion,
    evaluate_decision,
    independence_pairs,
    suggest_mcdc_vectors,
)
from .export import to_lcov, write_lcov
from .instrument import build_function_maps, exclusion_sets
from .runner import CoverageRunner, TestVector, VectorOutcome
from .statement import StatementCoverage, measure_statement_coverage

__all__ = [
    "IndependencePair",
    "McdcSuggestion",
    "annotate_source",
    "build_function_maps",
    "evaluate_decision",
    "exclusion_sets",
    "function_coverage_table",
    "independence_pairs",
    "suggest_mcdc_vectors",
    "to_lcov",
    "write_lcov",
    "uncovered_summary",
    "BranchCoverage",
    "BranchRecord",
    "ConditionRecord",
    "CoverageCampaign",
    "CoverageCollector",
    "CoverageRunner",
    "FileCoverage",
    "McdcCoverage",
    "StatementCoverage",
    "TestVector",
    "VectorOutcome",
    "measure_branch_coverage",
    "measure_mcdc_coverage",
    "measure_statement_coverage",
    "summarize_collector",
]
