"""The assessment result object and its renderers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..checkers.base import CheckerCrash, CheckerReport
from ..rules import BaselineComparison, RuleProfile
from ..iso26262.compliance import TableAssessment, Verdict
from ..iso26262.evidence import EvidenceSet
from ..iso26262.observations import Observation
from ..iso26262.report import (
    assessment_to_dict,
    observations_to_dict,
    render_observations,
    render_rationales,
    render_table,
)
from ..metrics.report import ModuleMetrics, figure3_rows, \
    total_moderate_or_higher


@dataclass
class AssessmentResult:
    """Everything one pipeline run produced."""

    modules: List[ModuleMetrics]
    reports: Dict[str, CheckerReport]
    evidence: EvidenceSet
    tables: Dict[str, TableAssessment]
    observations: List[Observation]
    unit_count: int = 0
    unparseable: List[str] = field(default_factory=list)
    #: The rule profile the run was configured with, if any.
    profile: Optional[RuleProfile] = None
    #: Comparison against a finding baseline, when one was supplied.
    baseline: Optional[BaselineComparison] = None
    #: Contained internal faults (checker crashes, parser-internal
    #: errors) in pipeline order; non-empty marks the run degraded.
    crashes: List[CheckerCrash] = field(default_factory=list)
    #: What the project-level stages (2–6) read, from a cache-backed
    #: run (a :class:`~repro.core.pipeline.ProjectSignature`); ``None``
    #: without a cache or when a file's parse or sweep crashed.  A
    #: later run with an equal signature may share this result's
    #: modules, reports, evidence, tables and observations, so those
    #: are never mutated.
    signature: Optional[Any] = field(default=None, repr=False,
                                     compare=False)
    #: True when stages 2–6 were shared from a previous result rather
    #: than recomputed.
    project_reused: bool = field(default=False, compare=False)
    #: Private to the pipeline and the serve layer: the per-file inputs
    #: stages 2–6 consumed (a :class:`~repro.core.pipeline.
    #: ProjectParts`), which a later run folds from; set exactly when
    #: :attr:`signature` is.
    parts: Optional[Any] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when the run completed but lost some analysis to a
        contained fault — its findings are a lower bound, not the full
        picture.  Degraded CLI runs exit with code 3."""
        return bool(self.crashes)

    @property
    def total_loc(self) -> int:
        return sum(module.loc for module in self.modules)

    @property
    def total_functions(self) -> int:
        return sum(module.function_count for module in self.modules)

    @property
    def moderate_or_higher(self) -> int:
        """Framework-wide CC>10 count (the paper's 554)."""
        return total_moderate_or_higher(self.modules)

    def figure3(self) -> List[Dict[str, object]]:
        return figure3_rows(self.modules)

    def verdict_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {verdict.value: 0 for verdict in Verdict}
        for table in self.tables.values():
            for entry in table.assessments:
                counts[entry.verdict.value] += 1
        return counts

    def suppressed_counts(self) -> Dict[str, int]:
        """Per-checker counts of deviation-suppressed findings."""
        return {name: len(report.suppressed)
                for name, report in self.reports.items()
                if report.suppressed}

    @property
    def total_suppressed(self) -> int:
        return sum(len(report.suppressed)
                   for report in self.reports.values())

    # ------------------------------------------------------------------

    def render_summary(self) -> str:
        lines = [
            "ISO 26262-6 adherence assessment",
            "=" * 60,
            f"translation units analyzed : {self.unit_count}",
            f"total lines of code        : {self.total_loc}",
            f"functions                  : {self.total_functions}",
            f"functions with CC > 10     : {self.moderate_or_higher}",
            "",
        ]
        if self.unparseable:
            lines.append(f"unparseable files          : "
                         f"{len(self.unparseable)}")
            lines.append("")
        if self.degraded:
            lines.append(f"DEGRADED RUN: {len(self.crashes)} contained "
                         f"fault(s); findings are a lower bound")
            for crash in self.crashes:
                lines.append(f"  - {crash.describe()}")
            lines.append("")
        if self.total_suppressed:
            lines.append(f"deviation-suppressed       : "
                         f"{self.total_suppressed}")
            lines.append("")
        if self.baseline is not None:
            lines.append(f"baseline: {self.baseline.known} known finding(s)"
                         f", {self.baseline.total_new} new")
            for rule, count in sorted(self.baseline.new_by_rule().items()):
                lines.append(f"  new [{rule}]: {count}")
            lines.append("")
        lines.append(f"{'module':<16}{'LOC':>8}{'functions':>11}"
                     f"{'cc>10':>7}{'cc>20':>7}{'cc>50':>7}")
        lines.append("-" * 56)
        for row in self.figure3():
            lines.append(f"{row['module']:<16}{row['loc']:>8}"
                         f"{row['functions']:>11}{row['cc>10']:>7}"
                         f"{row['cc>20']:>7}{row['cc>50']:>7}")
        lines.append("")
        for key in ("modeling_coding", "architectural_design",
                    "unit_design"):
            lines.append(render_table(self.tables[key]))
            lines.append("")
            lines.append(render_rationales(self.tables[key]))
            lines.append("")
        lines.append("Observations")
        lines.append("-" * 60)
        lines.append(render_observations(self.observations))
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        result = {
            "unit_count": self.unit_count,
            "total_loc": self.total_loc,
            "total_functions": self.total_functions,
            "moderate_or_higher": self.moderate_or_higher,
            "figure3": self.figure3(),
            "tables": {key: assessment_to_dict(table)
                       for key, table in self.tables.items()},
            "observations": observations_to_dict(self.observations),
            "verdicts": self.verdict_counts(),
            "checker_findings": {name: report.finding_count
                                 for name, report in self.reports.items()},
        }
        # Rules-layer keys appear only when the feature was active, so a
        # default run's JSON stays byte-identical to earlier releases.
        if self.total_suppressed:
            result["suppressed_findings"] = self.suppressed_counts()
        if self.baseline is not None:
            result["baseline"] = {
                "known": self.baseline.known,
                "new": self.baseline.total_new,
                "new_by_rule": self.baseline.new_by_rule(),
            }
        # Degradation keys appear only on degraded runs, so a fault-free
        # run's JSON stays byte-identical to earlier releases.
        if self.degraded:
            result["degraded"] = True
            result["degradations"] = [
                {
                    "checker": crash.checker,
                    "stage": crash.stage,
                    "path": crash.path,
                    "exception": crash.exc_type,
                    "message": crash.message,
                }
                for crash in self.crashes
            ]
        return result
