"""The reporter bridge: one data model, many output surfaces.

Findings, verdicts, coverage, and trend history used to be rendered by
ad-hoc writers scattered through the CLI.  This package separates the
*what* from the *how* (mini-coverage's Bridge pattern): a single
:class:`~repro.report.model.ReportModel` is assembled once from the
assessment result, the rules registry, the coverage campaign, profile
hotspots, and the run history — and every reporter renders that model:

* :class:`~repro.report.base.JsonReporter` /
  :class:`~repro.report.base.MarkdownReporter` — the pre-bridge
  ``--json`` / ``--markdown`` outputs, byte-identical;
* :class:`~repro.report.html.HtmlReporter` — a self-contained static
  dashboard (paper Figures 3-6 as charts, per-module drilldowns with
  annotated sources, degradations, trend sparklines);
* :class:`~repro.report.sarif.SarifReporter` — SARIF 2.1.0 for
  code-review/CI ingestion, deviations as suppressions;
* :class:`~repro.report.cobertura.CoberturaReporter` — Cobertura XML
  for the coverage side.
"""

from .base import (
    JsonReporter,
    MarkdownReporter,
    Reporter,
    ReportTargets,
    configured_reporters,
)
from .cobertura import CoberturaReporter, cobertura_xml
from .html import HtmlReporter, write_dashboard
from .model import (
    ModuleRollup,
    ReportModel,
    RuleActivity,
    TopicActivity,
    TrendData,
    build_report_model,
)
from .sarif import SarifReporter, sarif_document

__all__ = [
    "CoberturaReporter",
    "HtmlReporter",
    "JsonReporter",
    "MarkdownReporter",
    "ModuleRollup",
    "ReportModel",
    "ReportTargets",
    "Reporter",
    "RuleActivity",
    "SarifReporter",
    "TopicActivity",
    "TrendData",
    "build_report_model",
    "cobertura_xml",
    "configured_reporters",
    "sarif_document",
    "write_dashboard",
]
