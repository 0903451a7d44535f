"""The report model: everything any reporter renders, assembled once.

Reporters never reach back into the pipeline; they consume a
:class:`ReportModel` built by :func:`build_report_model` from

* the :class:`~repro.core.assessment.AssessmentResult` (findings,
  verdict tables, observations, degradations, baseline comparison),
* the rules registry (per-rule / per-ISO-topic aggregation — the
  paper's findings-per-guideline-topic figure),
* the module metrics joined with per-module finding counts (the
  violation-density figure),
* the optional coverage campaign (Figure 5/6: per-file statement /
  branch / MC-DC percentages plus raw collectors for line annotation
  and Cobertura export),
* optional profile hotspots from the run's tracer, and
* optional trend series read back from the run history (per-rule
  finding counts over the trailing comparable-configuration window).

Keeping the aggregation here means the HTML dashboard, SARIF and
Cobertura exporters, and the legacy JSON/Markdown writers all agree on
the numbers by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from .. import __version__
from ..checkers.architecture import module_from_path
from ..core.assessment import AssessmentResult
from ..coverage.report import CoverageCampaign
from ..obs.profile import hotspots as profile_hotspots
from ..obs.trends import comparable_window
from ..rules import RuleActivity, RuleRegistry, rule_activity

#: Severity display order: most blocking first.
SEVERITY_ORDER = ("CRITICAL", "MAJOR", "MINOR", "INFO")


@dataclass(frozen=True)
class TopicActivity:
    """Findings aggregated onto one ISO 26262-6 table/topic.

    Process rules (deviation bookkeeping, contained crashes) carry no
    table; they aggregate under ``table == "process"``.
    """

    table: str
    topic: str
    findings: int
    suppressed: int
    rules: tuple

    @property
    def label(self) -> str:
        return f"{self.table}/{self.topic}" if self.topic else self.table


@dataclass(frozen=True)
class ModuleRollup:
    """One module's metrics joined with its finding counts."""

    name: str
    loc: int
    functions: int
    cc_over_10: int
    findings: int
    suppressed: int
    files: tuple

    @property
    def density(self) -> float:
        """Findings per thousand lines — the violation-density figure."""
        if not self.loc:
            return 0.0
        return 1000.0 * self.findings / self.loc


@dataclass(frozen=True)
class TrendData:
    """Per-rule finding series over the history's comparable window.

    Attributes:
        run_ids: the window's run ids, oldest first.
        series: ``{rule id: [count per run, oldest first]}``.
        window_size: records read from the history (the look-back).
        matched_runs: records sharing the latest run's config + rules
            fingerprints — the only ones the series cover.
        config_fingerprint / rules_fingerprint: the latest run's pair,
            so a dashboard can say *which* configuration the window is.
    """

    run_ids: tuple
    series: Dict[str, List[int]]
    window_size: int
    matched_runs: int
    config_fingerprint: str = ""
    rules_fingerprint: str = ""


@dataclass
class ReportModel:
    """The assembled, reporter-independent view of one assessment."""

    result: AssessmentResult
    sources: Mapping[str, str]
    rules: List[RuleActivity]
    topics: List[TopicActivity]
    modules: List[ModuleRollup]
    severity_mix: Dict[str, int]
    module_of: Callable[[str], str] = module_from_path
    coverage: Optional[CoverageCampaign] = None
    hotspots: Dict[str, List[Dict]] = field(default_factory=dict)
    trends: Optional[TrendData] = None
    tool_version: str = ""

    # ------------------------------------------------------------------

    def findings_for(self, path: str):
        """Active findings located in ``path``, line order."""
        located = []
        for report in self.result.reports.values():
            located.extend(finding for finding in report.findings
                           if finding.filename == path)
        return sorted(located, key=lambda finding: (finding.line,
                                                    finding.rule))

    def suppressed_for(self, path: str):
        """Deviation-suppressed findings located in ``path``."""
        located = []
        for report in self.result.reports.values():
            located.extend(finding for finding in report.suppressed
                           if finding.filename == path)
        return sorted(located, key=lambda finding: (finding.line,
                                                    finding.rule))

    def module_files(self, module: str) -> List[str]:
        """The assessed source paths belonging to ``module``, sorted."""
        return sorted(path for path in self.sources
                      if self.module_of(path) == module)

    @property
    def total_findings(self) -> int:
        return sum(report.finding_count
                   for report in self.result.reports.values())


# ----------------------------------------------------------------------
# assembly


def _topic_activity(rules: List[RuleActivity]) -> List[TopicActivity]:
    grouped: Dict[tuple, Dict[str, object]] = {}
    for activity in rules:
        rule = activity.rule
        key = (rule.table or "process", rule.topic)
        entry = grouped.setdefault(key, {"findings": 0, "suppressed": 0,
                                         "rules": []})
        entry["findings"] += activity.findings
        entry["suppressed"] += activity.suppressed
        if activity.findings or activity.suppressed:
            entry["rules"].append(rule.id)
    topics = [TopicActivity(table=table, topic=topic,
                            findings=entry["findings"],
                            suppressed=entry["suppressed"],
                            rules=tuple(entry["rules"]))
              for (table, topic), entry in grouped.items()]
    # Busiest topics first; empty ones dropped (nothing to plot).
    return sorted((topic for topic in topics
                   if topic.findings or topic.suppressed),
                  key=lambda topic: (-topic.findings, topic.label))


def _severity_mix(result) -> Dict[str, int]:
    counts = {name: 0 for name in SEVERITY_ORDER}
    for report in result.reports.values():
        for finding in report.findings:
            counts[finding.severity.name] = \
                counts.get(finding.severity.name, 0) + 1
    return counts


def _module_rollups(result, sources: Mapping[str, str],
                    module_of: Callable[[str], str]) -> List[ModuleRollup]:
    findings: Dict[str, int] = {}
    suppressed: Dict[str, int] = {}
    for report in result.reports.values():
        for finding in report.findings:
            module = module_of(finding.filename)
            findings[module] = findings.get(module, 0) + 1
        for finding in report.suppressed:
            module = module_of(finding.filename)
            suppressed[module] = suppressed.get(module, 0) + 1
    files: Dict[str, List[str]] = {}
    for path in sorted(sources):
        files.setdefault(module_of(path), []).append(path)
    rollups = []
    for metrics in result.modules:
        over = metrics.functions_over((10,))
        rollups.append(ModuleRollup(
            name=metrics.name,
            loc=metrics.loc,
            functions=metrics.function_count,
            cc_over_10=over.get(10, 0),
            findings=findings.get(metrics.name, 0),
            suppressed=suppressed.get(metrics.name, 0),
            files=tuple(files.get(metrics.name, ())),
        ))
    return rollups


def _trend_data(history, last: int) -> Optional[TrendData]:
    """Per-rule series over the history, or ``None`` when unreadable."""
    if history is None:
        return None
    try:
        records = history.tail(last)
    except OSError:
        return None
    if not records:
        return None
    window = comparable_window(records)
    rules = sorted({rule for record in window
                    for rule in record.findings_by_rule})
    series = {rule: [record.findings_by_rule.get(rule, 0)
                     for record in window]
              for rule in rules}
    latest = records[-1]
    return TrendData(
        run_ids=tuple(record.run_id for record in window),
        series=series,
        window_size=len(records),
        matched_runs=len(window),
        config_fingerprint=latest.config_fingerprint,
        rules_fingerprint=latest.rules_fingerprint,
    )


def build_report_model(result, sources: Mapping[str, str], *,
                       registry: Optional[RuleRegistry] = None,
                       module_of: Callable[[str], str] = module_from_path,
                       coverage: Optional[CoverageCampaign] = None,
                       tracer=None,
                       history=None,
                       trend_last: int = 20) -> ReportModel:
    """Assemble the :class:`ReportModel` every reporter consumes.

    Args:
        result: the finished assessment.
        sources: the assessed ``{path: text}`` mapping (annotated
            sources on the drilldown pages render from it).
        registry: rule registry (defaults to the process-wide one).
        module_of: path -> module mapper; must match the pipeline's.
        coverage: optional :class:`~repro.coverage.report.
            CoverageCampaign` from :func:`~repro.dnn.minic_yolo.
            run_yolo_coverage` (collectors and sources included) for the
            coverage charts, annotated pages and Cobertura export.
        tracer: the run's tracer, for profile hotspots (skipped when
            absent or disabled).
        history: optional :class:`~repro.store.history.RunHistory` to
            read trend series from; an unreadable or empty history
            simply yields no trends.
        trend_last: trend look-back window, in runs.
    """
    rules = rule_activity(result.reports, result.baseline, registry)
    hotspots: Dict[str, List[Dict]] = {}
    if tracer is not None and getattr(tracer, "enabled", False):
        hotspots = profile_hotspots(tracer, limit=10)
    return ReportModel(
        result=result,
        sources=sources,
        rules=rules,
        topics=_topic_activity(rules),
        modules=_module_rollups(result, sources, module_of),
        severity_mix=_severity_mix(result),
        module_of=module_of,
        coverage=coverage,
        hotspots=hotspots,
        trends=_trend_data(history, trend_last),
        tool_version=__version__,
    )
