"""Rule records and the registry every checker publishes into.

The paper's methodology is rule-driven — MISRA subsets (Table 1 item 2),
style and naming conventions (items 7/8), the ten Table 8 unit-design
principles — and both MISRA and ISO 26262 operate in practice through
per-project rule *profiles* and documented *deviations*.  That requires
rules to be data, not string literals buried in checkers: one
:class:`Rule` record per stable identifier, collected in the process-wide
:data:`REGISTRY` at checker-module import time.

The profile (:mod:`repro.rules.profile`), deviation
(:mod:`repro.rules.deviations`) and baseline (:mod:`repro.rules.baseline`)
layers all resolve against these records; ``repro-assess --list-rules``
renders them via :func:`render_rules`, and :func:`rule_activity`
tallies one run's findings per rule for the report surfaces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, \
    Optional

from ..errors import RuleError
from .baseline import BaselineComparison

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..checkers.base import CheckerReport


class Severity(enum.IntEnum):
    """How strongly a finding blocks ISO 26262 compliance."""

    INFO = 0
    MINOR = 1
    MAJOR = 2
    CRITICAL = 3


@dataclass(frozen=True)
class Rule:
    """One registered rule: identity, default severity, ISO mapping.

    Attributes:
        id: stable rule identifier, e.g. ``"M15.1"`` or ``"UD9.goto"``.
        title: one-line statement of the rule.
        severity: default blocking strength of its findings.
        checker: name of the checker that emits it (filled in by
            :meth:`RuleRegistry.register_many`).
        table: ISO 26262-6 table key the rule feeds
            (``"modeling_coding"``, ``"architectural_design"``,
            ``"unit_design"``), or ``""`` for process rules.
        topic: technique key inside that table, e.g.
            ``"language_subsets"``.
    """

    id: str
    title: str
    severity: Severity = Severity.MINOR
    checker: str = ""
    table: str = ""
    topic: str = ""


class RuleRegistry:
    """All known rules, keyed by id.

    Registration is idempotent for identical records (modules may be
    re-imported) but two *different* records under one id is a
    :class:`~repro.errors.RuleError` — silently shadowing a rule would
    corrupt profiles and deviations referring to it.
    """

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        existing = self._rules.get(rule.id)
        if existing is not None:
            if existing == rule:
                return existing
            raise RuleError(
                f"conflicting registration for rule {rule.id!r}: "
                f"{existing} vs {rule}")
        self._rules[rule.id] = rule
        return rule

    def register_many(self, checker: str,
                      rules: Iterable[Rule]) -> List[Rule]:
        """Register ``rules`` as belonging to ``checker``."""
        return [self.register(replace(rule, checker=checker))
                for rule in rules]

    def get(self, rule_id: str) -> Optional[Rule]:
        return self._rules.get(rule_id)

    def checker_of(self, rule_id: str) -> str:
        """Name of the checker owning ``rule_id``, or ``""`` if unknown."""
        rule = self._rules.get(rule_id)
        return rule.checker if rule is not None else ""

    def rules_for(self, checker: str) -> List[Rule]:
        """The rules ``checker`` emits, sorted by id."""
        return sorted((rule for rule in self._rules.values()
                       if rule.checker == checker),
                      key=lambda rule: rule.id)

    def ids(self) -> List[str]:
        return sorted(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        """Rules in deterministic (checker, id) order."""
        return iter(sorted(self._rules.values(),
                           key=lambda rule: (rule.checker, rule.id)))


#: The process-wide registry.  Checker modules register their rules here
#: at import time, so importing :mod:`repro.checkers` populates it.
REGISTRY = RuleRegistry()


#: Process rules for the deviation mechanism itself (MISRA compliance
#: documents require every deviation to be justified).
MISSING_RATIONALE = "DV.missing_rationale"
UNKNOWN_RULE = "DV.unknown_rule"

DEVIATION_RULES = REGISTRY.register_many("deviation", (
    Rule(MISSING_RATIONALE,
         "A DEVIATION comment shall state a rationale",
         Severity.MAJOR),
    Rule(UNKNOWN_RULE,
         "A DEVIATION comment shall name a registered rule",
         Severity.MINOR),
))


#: Process rule for the fault-isolation layer: when a checker raises a
#: non-:class:`~repro.errors.ReproError`, the crash is contained and
#: surfaced as a finding under this id, so a degraded run still carries
#: machine-readable evidence of what it could not analyze.
CHECKER_CRASH = "internal.checker_crash"

INTERNAL_RULES = REGISTRY.register_many("internal", (
    Rule(CHECKER_CRASH,
         "A checker crashed; its findings for the run are incomplete",
         Severity.CRITICAL),
))


@dataclass(frozen=True)
class RuleActivity:
    """One registered rule's activity in one run."""

    rule: Rule
    findings: int = 0
    suppressed: int = 0
    #: New findings vs the baseline; ``None`` when no baseline was given.
    new: Optional[int] = None


def rule_activity(reports: Mapping[str, "CheckerReport"],
                  baseline: Optional[BaselineComparison] = None,
                  registry: Optional[RuleRegistry] = None
                  ) -> List[RuleActivity]:
    """Per-rule active, suppressed and (with ``baseline``) new finding
    counts over a run's ``{checker: report}`` mapping: one row per rule
    of ``registry``, in registry order."""
    registry = registry if registry is not None else REGISTRY
    findings: Dict[str, int] = {}
    suppressed: Dict[str, int] = {}
    for report in reports.values():
        for rule, count in report.count_by_rule().items():
            findings[rule] = findings.get(rule, 0) + count
        for finding in report.suppressed:
            suppressed[finding.rule] = suppressed.get(finding.rule, 0) + 1
    new_by_rule = baseline.new_by_rule() if baseline is not None else None
    return [RuleActivity(rule=rule,
                         findings=findings.get(rule.id, 0),
                         suppressed=suppressed.get(rule.id, 0),
                         new=(new_by_rule.get(rule.id, 0)
                              if new_by_rule is not None else None))
            for rule in registry]


def render_rules(registry: Optional[RuleRegistry] = None) -> str:
    """A fixed-width rule index for ``repro-assess --list-rules``."""
    registry = registry if registry is not None else REGISTRY
    rows = []
    for rule in registry:
        topic = f"{rule.table}/{rule.topic}" if rule.table else "-"
        rows.append((rule.id, rule.checker, rule.severity.name, topic,
                     rule.title))
    header = ("rule", "checker", "severity", "ISO 26262 topic", "title")
    widths = [max(len(header[column]),
                  max((len(row[column]) for row in rows), default=0)) + 2
              for column in range(4)]
    def line(row):
        return "".join(cell.ljust(width)
                       for cell, width in zip(row[:4], widths)) + row[4]
    lines = [line(header), "-" * (sum(widths) + len("title"))]
    lines.extend(line(row) for row in rows)
    lines.append(f"\n{len(registry)} rules registered")
    return "\n".join(lines)
