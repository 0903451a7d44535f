"""First-class rules: registry, profiles, deviations, and baselines.

This package is the bottom layer of the checker stack (it imports
nothing from :mod:`repro.checkers` or :mod:`repro.core`).  Checkers
register their :class:`Rule` records in :data:`REGISTRY` at import time
and route findings through it; the pipeline layers profiles
(:class:`RuleProfile`), inline deviations (:func:`scan_deviations`), and
finding baselines (:class:`Baseline`) on top.
"""

from .baseline import (
    BASELINE_VERSION,
    Baseline,
    BaselineComparison,
    finding_key,
)
from .deviations import (
    DEVIATION_PATTERN,
    Deviation,
    DeviationIndex,
    scan_deviations,
)
from .profile import RuleProfile, profile_from_globs
from .registry import (
    CHECKER_CRASH,
    DEVIATION_RULES,
    INTERNAL_RULES,
    MISSING_RATIONALE,
    REGISTRY,
    Rule,
    RuleActivity,
    RuleRegistry,
    Severity,
    UNKNOWN_RULE,
    render_rules,
    rule_activity,
)

__all__ = [
    "BASELINE_VERSION",
    "Baseline",
    "BaselineComparison",
    "CHECKER_CRASH",
    "DEVIATION_PATTERN",
    "DEVIATION_RULES",
    "Deviation",
    "DeviationIndex",
    "INTERNAL_RULES",
    "MISSING_RATIONALE",
    "REGISTRY",
    "Rule",
    "RuleActivity",
    "RuleProfile",
    "RuleRegistry",
    "Severity",
    "UNKNOWN_RULE",
    "finding_key",
    "profile_from_globs",
    "render_rules",
    "rule_activity",
    "scan_deviations",
]
