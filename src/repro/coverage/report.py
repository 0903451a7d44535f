"""Coverage reports: per-file records and Figure 5-style tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .branch import BranchCoverage, measure_branch_coverage
from .mcdc import McdcCoverage, measure_mcdc_coverage
from .probes import CoverageCollector
from .statement import StatementCoverage, measure_statement_coverage


@dataclass(frozen=True)
class FileCoverage:
    """The three structural-coverage metrics for one source file.

    This is one X-axis entry of the paper's Figure 5 (CPU code) or
    Figure 6 (CUDA-on-CPU code, which reports statement and branch only).
    """

    filename: str
    statement: StatementCoverage
    branch: BranchCoverage
    mcdc: Optional[McdcCoverage] = None

    @property
    def statement_percent(self) -> float:
        return self.statement.percent

    @property
    def branch_percent(self) -> float:
        return self.branch.percent

    @property
    def mcdc_percent(self) -> Optional[float]:
        return self.mcdc.percent if self.mcdc is not None else None

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "file": self.filename,
            "statement": round(self.statement_percent, 1),
            "branch": round(self.branch_percent, 1),
        }
        if self.mcdc is not None:
            row["mcdc"] = round(self.mcdc.percent, 1)
        return row


def summarize_collector(collector: CoverageCollector, filename: str,
                        with_mcdc: bool = True,
                        mcdc_variant: str = "masking",
                        exclude_uncalled: bool = False) -> FileCoverage:
    """Compute all metrics for one collector.

    Args:
        collector: the probe observations.
        filename: report label.
        with_mcdc: also compute MC/DC (Figure 5 yes, Figure 6 no).
        mcdc_variant: ``"masking"`` or ``"unique-cause"``.
        exclude_uncalled: reproduce the paper's filtering — functions never
            entered do not count toward any metric.
    """
    include_statements = include_decisions = None
    if exclude_uncalled:
        from .instrument import exclusion_sets
        include_statements, include_decisions, _ = exclusion_sets(collector)
    return FileCoverage(
        filename=filename,
        statement=measure_statement_coverage(collector,
                                             include=include_statements),
        branch=measure_branch_coverage(
            collector, include_decisions=include_decisions,
            include_statements=include_statements),
        mcdc=(measure_mcdc_coverage(collector, mcdc_variant,
                                    include_decisions=include_decisions)
              if with_mcdc else None),
    )


@dataclass
class CoverageCampaign:
    """Coverage across several files — the full Figure 5 data set.

    ``files`` carries the per-file percentages.  A campaign that ran the
    files itself (:func:`~repro.dnn.minic_yolo.run_yolo_coverage`) also
    keeps each file's raw :class:`CoverageCollector` in ``collectors``
    (per-statement hit counts for line annotation and Cobertura export)
    and its text in ``sources``, keyed by filename.
    """

    files: List[FileCoverage]
    collectors: Dict[str, CoverageCollector] = field(
        default_factory=dict, compare=False, repr=False)
    sources: Dict[str, str] = field(
        default_factory=dict, compare=False, repr=False)

    def rows(self) -> List[Dict[str, object]]:
        return [record.as_row() for record in self.files]

    def _percents(self, metric: str) -> List[float]:
        values: List[float] = []
        for record in self.files:
            value = getattr(record, f"{metric}_percent")
            if value is not None:
                values.append(value)
        return values

    def average(self, metric: str) -> float:
        """Mean percentage over files, e.g. ``average("statement")``."""
        values = self._percents(metric)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def minimum(self, metric: str) -> float:
        values = self._percents(metric)
        return min(values) if values else 0.0

    def render(self) -> str:
        """Plain-text table, one line per file plus an average row."""
        has_mcdc = any(record.mcdc is not None for record in self.files)
        header = f"{'file':<32}{'stmt%':>8}{'branch%':>9}"
        if has_mcdc:
            header += f"{'mcdc%':>8}"
        lines = [header, "-" * len(header)]
        for record in self.files:
            line = (f"{record.filename:<32}"
                    f"{record.statement_percent:>8.1f}"
                    f"{record.branch_percent:>9.1f}")
            if has_mcdc:
                mcdc = record.mcdc_percent
                line += f"{mcdc:>8.1f}" if mcdc is not None else f"{'-':>8}"
            lines.append(line)
        footer = (f"{'AVERAGE':<32}{self.average('statement'):>8.1f}"
                  f"{self.average('branch'):>9.1f}")
        if has_mcdc:
            footer += f"{self.average('mcdc'):>8.1f}"
        lines.append("-" * len(header))
        lines.append(footer)
        return "\n".join(lines)

