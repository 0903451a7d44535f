"""Global-variable usage — evidence for Table 1 item 5 and Table 8 item 5.

Observation 7: "AD software uses global variables"; Section 3.5 item 5:
"We identified the use of global variables (e.g. ~900 in the perception
module)."  Mutable file- and namespace-scope variables count; ``const`` and
``constexpr`` objects do not (they are compile-time constants, which the
Google style guide the paper cites explicitly permits).
"""

from __future__ import annotations

from ..lang.cppmodel import TranslationUnit
from ..rules import REGISTRY, Rule
from .base import Checker, CheckerReport, Finding, Severity

RULES = REGISTRY.register_many("globals", (
    Rule("GV.mutable_global", "Mutable global variables shall not be used",
         Severity.MAJOR, table="unit_design", topic="avoid_globals"),
))


class GlobalVariableChecker(Checker):
    """Flags mutable globals and summarizes their density."""

    name = "globals"

    def unit_visitor(self, unit: TranslationUnit, report: CheckerReport,
                     sweep) -> None:
        """Global-variable evidence comes from the parsed model alone,
        so the check runs whole from the end hook."""
        sweep.at_end(lambda: self._check_into(unit, report))

    def _check_into(self, unit: TranslationUnit,
                    report: CheckerReport) -> None:
        mutable = 0
        extern = 0
        static = 0
        for variable in unit.globals:
            if not variable.is_mutable_global:
                continue
            scope = variable.namespace or "file scope"
            if not report.emit(Finding(
                    rule="GV.mutable_global",
                    message=(f"mutable global variable {variable.name!r} "
                             f"({variable.type_text or 'unknown type'}) "
                             f"at {scope}"),
                    filename=unit.filename,
                    line=variable.line,
                    severity=Severity.MAJOR,
            )):
                continue
            mutable += 1
            if variable.is_extern:
                extern += 1
            if variable.is_static:
                static += 1
        report.stats.update({
            "mutable_globals": mutable,
            "extern_globals": extern,
            "static_globals": static,
            "const_globals": sum(1 for variable in unit.globals
                                 if not variable.is_mutable_global),
        })
