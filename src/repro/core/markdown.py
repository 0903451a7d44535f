"""Markdown rendering of a complete assessment — the shareable report.

The CLI writes this document through the reporter bridge
(:class:`~repro.report.base.MarkdownReporter` calls
:func:`render_markdown`), alongside the JSON, SARIF, Cobertura, and
HTML-dashboard surfaces; the rendered bytes are pinned identical to the
pre-bridge ad-hoc writer.
"""

from __future__ import annotations

from typing import List, Optional

from ..iso26262.asil import TABLE_COLUMNS
from ..iso26262.compliance import TableAssessment
from ..rules import RuleActivity, rule_activity
from .assessment import AssessmentResult
from .remediation import plan_remediation, render_plan


def _table_markdown(assessment: TableAssessment) -> List[str]:
    lines = [
        f"### Table {assessment.table.paper_number}: "
        f"{assessment.table.caption}",
        "",
        "| # | technique | " + " | ".join(asil.name
                                          for asil in TABLE_COLUMNS)
        + " | verdict | rationale |",
        "|---|---|" + "---|" * len(TABLE_COLUMNS) + "---|---|",
    ]
    for entry in assessment.assessments:
        grades = " | ".join(entry.technique.grades[asil].symbol
                            for asil in TABLE_COLUMNS)
        lines.append(
            f"| {entry.technique.index} | {entry.technique.title} | "
            f"{grades} | **{entry.verdict.value}** | "
            f"{entry.rationale} |")
    lines.append("")
    return lines


def _rule_index_markdown(result: AssessmentResult,
                         rules: List[RuleActivity]) -> List[str]:
    """The per-rule activity table, shown when the rules layer was used.

    One row per :class:`~repro.rules.RuleActivity`: the rule's effective
    severity under the run's profile (``off`` when disabled), its ISO
    26262 topic, and how many findings it produced / had suppressed by
    deviations (plus how many are new against the baseline, when one
    was compared).
    """
    header = "| rule | checker | severity | topic | findings | suppressed |"
    divider = "|---|---|---|---|---|---|"
    if result.baseline is not None:
        header += " new |"
        divider += "---|"
    lines = ["## Rule index", "", header, divider]
    for activity in rules:
        rule = activity.rule
        if result.profile is not None \
                and not result.profile.enabled(rule.id):
            severity = "off"
        elif result.profile is not None:
            severity = result.profile.severity_for(
                rule.id, rule.severity).name
        else:
            severity = rule.severity.name
        topic = f"{rule.table}/{rule.topic}" if rule.table else "-"
        row = (f"| {rule.id} | {rule.checker} | {severity} | {topic} | "
               f"{activity.findings} | {activity.suppressed} |")
        if activity.new is not None:
            row += f" {activity.new} |"
        lines.append(row)
    lines.append("")
    return lines


def _degradations_markdown(result: AssessmentResult) -> List[str]:
    """The contained-fault report, shown only on degraded runs.

    One row per :class:`~repro.checkers.base.CheckerCrash`, so a reader
    knows exactly which checker's evidence is incomplete (and where),
    without digging through logs.
    """
    lines = [
        "## Degradations",
        "",
        f"This run completed **degraded**: {len(result.crashes)} "
        f"internal fault(s) were contained. Findings from the named "
        f"checkers are a lower bound; every other checker ran in full.",
        "",
        "| checker | stage | file | exception |",
        "|---|---|---|---|",
    ]
    for crash in result.crashes:
        lines.append(f"| {crash.checker} | {crash.stage} | "
                     f"{crash.path or '-'} | {crash.exc_type}: "
                     f"{crash.message} |")
    lines.append("")
    return lines


def render_markdown(result: AssessmentResult,
                    title: str = "ISO 26262-6 adherence assessment",
                    rules: Optional[List[RuleActivity]] = None) -> str:
    """Render the whole assessment as a Markdown document.

    ``rules`` are the rule-index rows; the report model passes its own
    (:attr:`~repro.report.model.ReportModel.rules`), and without them
    they are tallied from ``result`` by :func:`~repro.rules.
    rule_activity`.
    """
    lines: List[str] = [
        f"# {title}",
        "",
        "## Summary",
        "",
        f"- translation units analyzed: **{result.unit_count}**",
        f"- total lines of code: **{result.total_loc}**",
        f"- functions: **{result.total_functions}**",
        f"- functions with cyclomatic complexity > 10: "
        f"**{result.moderate_or_higher}**",
        "",
    ]
    if result.degraded:
        lines.extend(_degradations_markdown(result))
    lines += [
        "## Module metrics (Figure 3)",
        "",
        "| module | LOC | functions | cc>5 | cc>10 | cc>20 | cc>50 |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in result.figure3():
        lines.append(f"| {row['module']} | {row['loc']} | "
                     f"{row['functions']} | {row['cc>5']} | "
                     f"{row['cc>10']} | {row['cc>20']} | {row['cc>50']} |")
    lines += ["", "## Requirement tables", ""]
    for key in ("modeling_coding", "architectural_design", "unit_design"):
        lines.extend(_table_markdown(result.tables[key]))

    if result.profile is not None or result.total_suppressed \
            or result.baseline is not None:
        lines.extend(_rule_index_markdown(
            result, rules if rules is not None
            else rule_activity(result.reports, result.baseline)))

    lines += ["## Observations", ""]
    for observation in sorted(result.observations,
                              key=lambda entry: entry.number):
        badge = "✔" if observation.supported else "✘"
        lines.append(f"- **Observation {observation.number}** {badge} "
                     f"*{observation.title}* — {observation.statement}")
    lines += ["", "## Remediation", "", "```",
              render_plan(plan_remediation(result.tables)), "```", ""]
    return "\n".join(lines)
