"""The static HTML dashboard: the assessment as a browsable site.

``write_dashboard`` renders one :class:`~repro.report.model.ReportModel`
into a directory:

* ``index.html`` — overview recreating the paper's figures as charts
  (findings per ISO 26262-6 table/topic, severity mix, per-module
  violation density, coverage by type), the requirement-table verdicts,
  a degradations panel on degraded runs, per-rule trend sparklines from
  the run history, profile hotspots, and the full rule index;
* ``modules/<module>.html`` — per-module drilldown with every source
  file annotated line by line (findings, deviation suppressions);
* ``coverage/<file>.html`` — per-covered-file drilldown with hit
  counts and branch-gap marks on each line.

Every page is fully self-contained: one inline ``<style>`` block, no
script tags, no external asset references — charts are inline SVG — so
the directory works from ``file://``, an artifact store, or any static
host.  Light and dark themes come from the same CSS custom properties
(the validated default palette) via ``prefers-color-scheme``.
"""

from __future__ import annotations

import html as html_module
import os
import re
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..coverage.annotate import line_coverage_index
from ..errors import ReportError
from .base import Reporter
from .charts import (
    SERIES_VARS,
    grouped_hbar_chart,
    hbar_chart,
    severity_stack,
    sparkline,
)
from .model import SEVERITY_ORDER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model import ModuleRollup, ReportModel

#: Shared inline stylesheet — the only chrome every page carries.
#: Light values are the validated default palette; the dark block
#: re-steps the same hues for the dark surface (selected, not flipped).
STYLE = """
:root {
  color-scheme: light dark;
  --surface: #fcfcfb; --panel: #f4f3f0; --grid: #e4e3df;
  --ink: #0b0b0b; --ink-muted: #52514e;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a;
  --critical: #d03b3b; --serious: #ec835a; --warning: #fab219;
  --good: #0ca30c;
  --cov-hit: #d9efdc; --cov-miss: #f7dcdc;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --panel: #242423; --grid: #383835;
    --ink: #ffffff; --ink-muted: #c3c2b7;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70;
    --cov-hit: #1e3323; --cov-miss: #3c2222;
  }
}
* { box-sizing: border-box; }
body { margin: 0 auto; padding: 24px 32px 64px; max-width: 1080px;
  background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 10px; }
h3 { font-size: 14px; margin: 18px 0 6px; }
a { color: var(--s1); text-decoration: none; }
a:hover { text-decoration: underline; }
.sub { color: var(--ink-muted); margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 16px 0; }
.tile { background: var(--panel); border-radius: 8px;
  padding: 10px 16px; min-width: 110px; }
.tile .v { font-size: 20px; font-weight: 600; }
.tile .k { font-size: 12px; color: var(--ink-muted); }
.tile.bad .v { color: var(--critical); }
table { border-collapse: collapse; width: 100%; margin: 8px 0; }
th { text-align: left; font-size: 12px; color: var(--ink-muted);
  border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0; }
td.n, th.n { text-align: right; font-variant-numeric: tabular-nums; }
svg.chart { display: block; margin: 6px 0; }
svg.chart text { font: 12px system-ui, sans-serif; fill: var(--ink); }
svg.chart text.label { fill: var(--ink-muted); }
svg.chart text.value { fill: var(--ink); }
svg.spark { vertical-align: middle; }
.legend { display: flex; flex-wrap: wrap; gap: 12px; margin: 4px 0;
  font-size: 12px; color: var(--ink-muted); }
.chip { display: inline-flex; align-items: center; gap: 5px; }
.swatch { width: 10px; height: 10px; border-radius: 2px;
  display: inline-block; }
.badge { display: inline-block; border-radius: 4px; padding: 0 6px;
  font-size: 11px; font-weight: 600; color: #fff; }
.badge.CRITICAL { background: var(--critical); }
.badge.MAJOR { background: var(--serious); }
.badge.MINOR { background: var(--warning); color: #0b0b0b; }
.badge.INFO { background: var(--ink-muted); }
.verdict { font-size: 12px; font-weight: 600; }
.verdict.compliant { color: var(--good); }
.verdict.partial { color: var(--warning); }
.verdict.non-compliant { color: var(--critical); }
.verdict.unknown, .verdict.not-applicable { color: var(--ink-muted); }
.panel { background: var(--panel); border-radius: 8px;
  padding: 12px 16px; margin: 10px 0; }
.panel.degraded { border-left: 4px solid var(--critical); }
.src { background: var(--panel); border-radius: 8px; padding: 8px 0;
  margin: 10px 0; overflow-x: auto;
  font: 12px/1.45 ui-monospace, "SF Mono", Menlo, Consolas, monospace; }
.ln { display: flex; white-space: pre; }
.ln .no { width: 46px; flex: none; text-align: right; padding-right: 10px;
  color: var(--ink-muted); user-select: none; }
.ln .m { width: 58px; flex: none; text-align: right; padding-right: 10px;
  color: var(--ink-muted); }
.ln.hit { background: var(--cov-hit); }
.ln.miss { background: var(--cov-miss); }
.ln.finding { background: color-mix(in srgb, var(--critical) 14%,
  transparent); }
.ln.deviation { background: color-mix(in srgb, var(--warning) 18%,
  transparent); }
.ann { padding-left: 56px; font-size: 12px; }
.ann.f { color: var(--critical); }
.ann.d { color: var(--ink-muted); }
.empty { color: var(--ink-muted); font-style: italic; }
footer { margin-top: 48px; font-size: 12px; color: var(--ink-muted); }
"""


def _escape(text: str) -> str:
    return html_module.escape(str(text), quote=True)


def _slug(name: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-")
    return cleaned or "unnamed"


def _page(title: str, body: str, *, crumb: str = "") -> str:
    nav = f"<p class=\"sub\">{crumb}</p>" if crumb else ""
    return (f"<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            f"<meta charset=\"utf-8\">\n"
            f"<meta name=\"viewport\" "
            f"content=\"width=device-width, initial-scale=1\">\n"
            f"<title>{_escape(title)}</title>\n"
            f"<style>{STYLE}</style>\n</head>\n<body>\n"
            f"<h1>{_escape(title)}</h1>\n{nav}{body}\n"
            f"</body>\n</html>\n")


def _footer(model: "ReportModel") -> str:
    return (f"<footer>generated by repro-assess "
            f"{_escape(model.tool_version)} — reporter bridge</footer>")


# ----------------------------------------------------------------------
# overview page


def _tiles(model: "ReportModel") -> str:
    result = model.result
    tiles = [
        (str(result.unit_count), "translation units"),
        (str(result.total_loc), "lines of code"),
        (str(result.total_functions), "functions"),
        (str(result.moderate_or_higher), "functions cc&gt;10"),
        (str(model.total_findings), "findings"),
    ]
    if result.total_suppressed:
        tiles.append((str(result.total_suppressed), "suppressed"))
    rendered = "".join(
        f"<div class=\"tile\"><div class=\"v\">{value}</div>"
        f"<div class=\"k\">{key}</div></div>"
        for value, key in tiles)
    if result.degraded:
        rendered += (f"<div class=\"tile bad\"><div class=\"v\">"
                     f"{len(result.crashes)}</div>"
                     f"<div class=\"k\">contained faults</div></div>")
    return f"<div class=\"tiles\">{rendered}</div>"


def _degradations_panel(model: "ReportModel") -> str:
    result = model.result
    if not result.degraded:
        return ""
    rows = "".join(
        f"<tr><td>{_escape(crash.checker)}</td>"
        f"<td>{_escape(crash.stage)}</td>"
        f"<td>{_escape(crash.path or '-')}</td>"
        f"<td>{_escape(crash.exc_type)}: {_escape(crash.message)}</td>"
        f"</tr>"
        for crash in result.crashes)
    return (f"<h2>Degradations</h2><div class=\"panel degraded\">"
            f"<p>This run completed <strong>degraded</strong>: "
            f"{len(result.crashes)} internal fault(s) were contained; "
            f"findings are a lower bound.</p>"
            f"<table><tr><th>checker</th><th>stage</th><th>file</th>"
            f"<th>exception</th></tr>{rows}</table></div>")


def _topics_section(model: "ReportModel") -> str:
    rows = [(topic.label, float(topic.findings))
            for topic in model.topics]
    return ("<h2>Findings per ISO 26262-6 table / topic</h2>"
            + hbar_chart(rows))


def _severity_section(model: "ReportModel") -> str:
    ordered = {name: model.severity_mix.get(name, 0)
               for name in SEVERITY_ORDER}
    return "<h2>Severity mix</h2>" + severity_stack(ordered)


def _modules_section(model: "ReportModel") -> str:
    density_rows = [(rollup.name, rollup.density)
                    for rollup in sorted(model.modules,
                                         key=lambda r: -r.density)]
    chart = hbar_chart(density_rows, unit="", fraction_digits=1)
    table_rows = "".join(
        f"<tr><td><a href=\"modules/{_slug(rollup.name)}.html\">"
        f"{_escape(rollup.name)}</a></td>"
        f"<td class=\"n\">{rollup.loc}</td>"
        f"<td class=\"n\">{rollup.functions}</td>"
        f"<td class=\"n\">{rollup.cc_over_10}</td>"
        f"<td class=\"n\">{rollup.findings}</td>"
        f"<td class=\"n\">{rollup.suppressed}</td>"
        f"<td class=\"n\">{rollup.density:.1f}</td></tr>"
        for rollup in model.modules)
    return (f"<h2>Violation density per module "
            f"(findings / KLOC)</h2>{chart}"
            f"<h3>Module metrics (Figure 3)</h3>"
            f"<table><tr><th>module</th><th class=\"n\">LOC</th>"
            f"<th class=\"n\">functions</th><th class=\"n\">cc&gt;10</th>"
            f"<th class=\"n\">findings</th><th class=\"n\">suppressed"
            f"</th><th class=\"n\">per KLOC</th></tr>{table_rows}"
            f"</table>")


def _coverage_section(model: "ReportModel") -> str:
    campaign = model.coverage
    if campaign is None or not campaign.files:
        return ("<h2>Coverage by type</h2><p class=\"empty\">no "
                "coverage data collected for this run</p>")
    labels = [record.filename for record in campaign.files]
    has_mcdc = any(record.mcdc is not None for record in campaign.files)
    series = [
        ("statement", SERIES_VARS[0],
         [record.statement_percent for record in campaign.files]),
        ("branch", SERIES_VARS[1],
         [record.branch_percent for record in campaign.files]),
    ]
    if has_mcdc:
        series.append(("MC/DC", SERIES_VARS[2],
                       [record.mcdc_percent
                        for record in campaign.files]))
    chart = grouped_hbar_chart(labels, series)
    averages = (f"averages: statement "
                f"{campaign.average('statement'):.1f}%, branch "
                f"{campaign.average('branch'):.1f}%")
    if has_mcdc:
        averages += f", MC/DC {campaign.average('mcdc'):.1f}%"
    links = " · ".join(
        f"<a href=\"coverage/{_slug(record.filename)}.html\">"
        f"{_escape(record.filename)}</a>"
        for record in campaign.files)
    return (f"<h2>Coverage by type (Figure 5)</h2>{chart}"
            f"<p class=\"sub\">{averages}</p>"
            f"<p class=\"sub\">annotated sources: {links}</p>")


def _verdicts_section(model: "ReportModel") -> str:
    sections = []
    for key in ("modeling_coding", "architectural_design", "unit_design"):
        assessment = model.result.tables.get(key)
        if assessment is None:
            continue
        rows = "".join(
            f"<tr><td class=\"n\">{entry.technique.index}</td>"
            f"<td>{_escape(entry.technique.title)}</td>"
            f"<td><span class=\"verdict "
            f"{_slug(entry.verdict.value)}\">"
            f"{_escape(entry.verdict.value)}</span></td>"
            f"<td>{_escape(entry.rationale)}</td></tr>"
            for entry in assessment.assessments)
        sections.append(
            f"<h3>Table {assessment.table.paper_number}: "
            f"{_escape(assessment.table.caption)}</h3>"
            f"<table><tr><th>#</th><th>technique</th><th>verdict</th>"
            f"<th>rationale</th></tr>{rows}</table>")
    return "<h2>Requirement-table verdicts</h2>" + "".join(sections)


def _trends_section(model: "ReportModel") -> str:
    trends = model.trends
    if trends is None or not trends.series:
        return ""
    ranked = sorted(trends.series.items(),
                    key=lambda item: (-item[1][-1], item[0]))[:12]
    rows = "".join(
        f"<tr><td>{_escape(rule)}</td>"
        f"<td>{sparkline(counts, label=rule)}</td>"
        f"<td class=\"n\">{counts[-1]}</td></tr>"
        for rule, counts in ranked)
    profile = (trends.rules_fingerprint or "defaults")
    caption = (f"{trends.matched_runs} of {trends.window_size} recorded "
               f"run(s) share the latest configuration (config "
               f"{_escape(trends.config_fingerprint or 'unknown')}, "
               f"rules {_escape(profile)})")
    return (f"<h2>Finding trends (run ledger)</h2>"
            f"<p class=\"sub\">{caption}</p>"
            f"<table><tr><th>rule</th><th>trend "
            f"(oldest → newest)</th><th class=\"n\">latest</th></tr>"
            f"{rows}</table>")


def _hotspots_section(model: "ReportModel") -> str:
    hotspots = model.hotspots
    if not hotspots.get("files") and not hotspots.get("checkers"):
        return ""
    files = "".join(
        f"<tr><td>{_escape(row['path'])}</td>"
        f"<td class=\"n\">{row['seconds']:.3f}s</td></tr>"
        for row in hotspots.get("files", []))
    checkers = "".join(
        f"<tr><td>{_escape(row['checker'])}</td>"
        f"<td class=\"n\">{row['seconds']:.3f}s</td></tr>"
        for row in hotspots.get("checkers", []))
    return (f"<h2>Profile hotspots</h2>"
            f"<table><tr><th>slowest files</th><th class=\"n\">time"
            f"</th></tr>{files}</table>"
            f"<table><tr><th>slowest checkers</th><th class=\"n\">time"
            f"</th></tr>{checkers}</table>")


def _rule_index_section(model: "ReportModel") -> str:
    has_baseline = model.result.baseline is not None
    new_header = "<th class=\"n\">new</th>" if has_baseline else ""
    rows = []
    for activity in model.rules:
        rule = activity.rule
        topic = f"{rule.table}/{rule.topic}" if rule.table else "-"
        new_cell = (f"<td class=\"n\">{activity.new}</td>"
                    if has_baseline else "")
        rows.append(
            f"<tr><td>{_escape(rule.id)}</td>"
            f"<td>{_escape(rule.checker)}</td>"
            f"<td><span class=\"badge {rule.severity.name}\">"
            f"{rule.severity.name}</span></td>"
            f"<td>{_escape(topic)}</td>"
            f"<td class=\"n\">{activity.findings}</td>"
            f"<td class=\"n\">{activity.suppressed}</td>{new_cell}</tr>")
    return (f"<h2>Rule index</h2>"
            f"<table><tr><th>rule</th><th>checker</th><th>severity</th>"
            f"<th>ISO topic</th><th class=\"n\">findings</th>"
            f"<th class=\"n\">suppressed</th>{new_header}</tr>"
            f"{''.join(rows)}</table>")


def render_index(model: "ReportModel") -> str:
    body = "".join([
        _tiles(model),
        _degradations_panel(model),
        _topics_section(model),
        _severity_section(model),
        _modules_section(model),
        _coverage_section(model),
        _verdicts_section(model),
        _trends_section(model),
        _hotspots_section(model),
        _rule_index_section(model),
        _footer(model),
    ])
    return _page("ISO 26262-6 adherence assessment", body)


# ----------------------------------------------------------------------
# module drilldown pages


def _annotated_source(text: str, findings, suppressed,
                      coverage=None) -> str:
    """One source file as highlighted, annotated rows."""
    by_line: Dict[int, List] = {}
    for finding in findings:
        by_line.setdefault(finding.line, []).append(("f", finding))
    for finding in suppressed:
        by_line.setdefault(finding.line, []).append(("d", finding))
    hits_by_line: Dict[int, int] = {}
    instrumented = partial = frozenset()
    if coverage is not None:
        hits_by_line, instrumented, partial = \
            line_coverage_index(coverage)

    rows: List[str] = []
    for number, line in enumerate(text.split("\n"), start=1):
        classes = ["ln"]
        margin = ""
        if coverage is not None:
            if number in instrumented:
                hits = hits_by_line.get(number, 0)
                classes.append("hit" if hits > 0 else "miss")
                margin = str(hits) if hits > 0 else "####"
        marks = by_line.get(number, ())
        if any(kind == "f" for kind, _ in marks):
            classes.append("finding")
        elif any(kind == "d" for kind, _ in marks):
            classes.append("deviation")
        margin_cell = (f"<span class=\"m\">{_escape(margin)}</span>"
                       if coverage is not None else "")
        rows.append(
            f"<div class=\"{' '.join(classes)}\" id=\"L{number}\">"
            f"<span class=\"no\">{number}</span>{margin_cell}"
            f"<span class=\"code\">{_escape(line) or ' '}</span></div>")
        for kind, finding in marks:
            css = "f" if kind == "f" else "d"
            prefix = ("suppressed by deviation — "
                      if kind == "d" else "")
            rows.append(
                f"<div class=\"ann {css}\">[{_escape(finding.rule)}] "
                f"{prefix}{_escape(finding.message)}</div>")
        if coverage is not None and number in partial:
            rows.append("<div class=\"ann d\">branch not fully "
                        "covered</div>")
    return f"<div class=\"src\">{''.join(rows)}</div>"


def render_module_page(model: "ReportModel",
                       rollup: "ModuleRollup") -> str:
    parts: List[str] = [
        f"<div class=\"tiles\">"
        f"<div class=\"tile\"><div class=\"v\">{rollup.loc}</div>"
        f"<div class=\"k\">LOC</div></div>"
        f"<div class=\"tile\"><div class=\"v\">{rollup.functions}</div>"
        f"<div class=\"k\">functions</div></div>"
        f"<div class=\"tile\"><div class=\"v\">{rollup.findings}</div>"
        f"<div class=\"k\">findings</div></div>"
        f"<div class=\"tile\"><div class=\"v\">{rollup.density:.1f}"
        f"</div><div class=\"k\">per KLOC</div></div></div>"]
    for path in rollup.files:
        findings = model.findings_for(path)
        suppressed = model.suppressed_for(path)
        file_level = [finding for finding in findings
                      if finding.line == 0]
        located = [finding for finding in findings if finding.line > 0]
        parts.append(f"<h2 id=\"{_slug(path)}\">{_escape(path)} "
                     f"<span class=\"sub\">({len(findings)} finding(s), "
                     f"{len(suppressed)} suppressed)</span></h2>")
        if file_level:
            items = "".join(
                f"<li><span class=\"badge {f.severity.name}\">"
                f"{f.severity.name}</span> [{_escape(f.rule)}] "
                f"{_escape(f.message)}</li>"
                for f in file_level)
            parts.append(f"<ul>{items}</ul>")
        source = model.sources.get(path)
        if source is None:
            parts.append("<p class=\"empty\">source unavailable</p>")
            continue
        parts.append(_annotated_source(source, located, suppressed))
    parts.append(_footer(model))
    return _page(f"module {rollup.name}", "".join(parts),
                 crumb="<a href=\"../index.html\">← overview</a>")


def render_coverage_page(model: "ReportModel", filename: str) -> str:
    coverage = model.coverage
    record = next((entry for entry in coverage.files
                   if entry.filename == filename), None)
    collector = coverage.collectors.get(filename)
    source = coverage.sources.get(filename, "")
    tiles = ""
    if record is not None:
        cells = [(f"{record.statement_percent:.1f}%", "statement"),
                 (f"{record.branch_percent:.1f}%", "branch")]
        if record.mcdc_percent is not None:
            cells.append((f"{record.mcdc_percent:.1f}%", "MC/DC"))
        tiles = "<div class=\"tiles\">" + "".join(
            f"<div class=\"tile\"><div class=\"v\">{value}</div>"
            f"<div class=\"k\">{key}</div></div>"
            for value, key in cells) + "</div>"
    body = tiles + _annotated_source(source, (), (),
                                     coverage=collector)
    return _page(f"coverage — {filename}", body + _footer(model),
                 crumb="<a href=\"../index.html\">← overview</a>")


# ----------------------------------------------------------------------
# writer


def write_dashboard(model: "ReportModel", directory: str) -> List[str]:
    """Write the full dashboard into ``directory``; returns the paths.

    Raises :class:`OSError` when the directory tree cannot be created
    or a page cannot be written (the CLI maps that to exit 2).
    """
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []

    def emit(relative: str, content: str) -> None:
        path = os.path.join(directory, relative)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        written.append(path)

    emit("index.html", render_index(model))
    for rollup in model.modules:
        emit(os.path.join("modules", f"{_slug(rollup.name)}.html"),
             render_module_page(model, rollup))
    if model.coverage is not None:
        for record in model.coverage.files:
            emit(os.path.join("coverage",
                              f"{_slug(record.filename)}.html"),
                 render_coverage_page(model, record.filename))
    return written


class HtmlReporter(Reporter):
    """Writes the dashboard directory (destination is a directory)."""

    format = "html"
    error_label = "HTML dashboard"

    def render(self, model: "ReportModel") -> str:
        return render_index(model)

    def write(self, model: "ReportModel", destination: str) -> str:
        try:
            pages = write_dashboard(model, destination)
        except OSError as error:
            raise ReportError(
                f"cannot write {self.error_label}: {error}") from error
        return (f"HTML dashboard written to {destination} "
                f"({len(pages)} page(s))")
