"""Naming-convention conformance — Table 1 item 8, Observation 9.

The paper reports that Apollo follows the Google C++ naming rules: "the
names of all types, classes, structs, type aliases, enums, and type
template parameters should have the same naming convention".  This checker
implements the verifiable core of those rules:

* type names are ``CamelCase`` (initial capital, no underscores);
* constants (``const``/``constexpr`` globals) are ``kCamelCase``;
* mutable globals carry a ``g_`` or ``FLAGS_`` prefix;
* function names are either ``CamelCase`` or ``snake_case``, and one file
  does not mix the two styles (CUDA kernels, written darknet-style, are
  exempted from the mixing rule because they interface with C code).
"""

from __future__ import annotations

import re

from ..lang.cppmodel import TranslationUnit
from ..rules import REGISTRY, Rule
from .base import Checker, CheckerReport, Finding, Severity

RULES = REGISTRY.register_many("naming", (
    Rule("NC.type_name", "Type names shall be CamelCase",
         Severity.MINOR, table="modeling_coding",
         topic="naming_conventions"),
    Rule("NC.constant_name", "Constants shall be kCamelCase or UPPER_CASE",
         Severity.INFO, table="modeling_coding",
         topic="naming_conventions"),
    Rule("NC.global_name", "Mutable globals shall carry a scope prefix",
         Severity.MINOR, table="modeling_coding",
         topic="naming_conventions"),
    Rule("NC.function_name", "Function names shall be CamelCase or "
         "snake_case",
         Severity.MINOR, table="modeling_coding",
         topic="naming_conventions"),
    Rule("NC.mixed_styles", "One file shall not mix function-name styles",
         Severity.INFO, table="modeling_coding",
         topic="naming_conventions"),
))

CAMEL_CASE = re.compile(r"^[A-Z][A-Za-z0-9]*$")
SNAKE_CASE = re.compile(r"^[a-z][a-z0-9_]*$")
CONSTANT_NAME = re.compile(r"^(k[A-Z][A-Za-z0-9]*|[A-Z][A-Z0-9_]*)$")
GLOBAL_PREFIXES = ("g_", "FLAGS_", "s_")

#: Method names exempt from style classification (special members and
#: common STL-compatible spellings).
_EXEMPT_FUNCTIONS = frozenset({"main", "begin", "end", "size", "empty",
                               "swap", "at", "get", "set", "clear"})


class NamingChecker(Checker):
    """Verifies Google-style naming of types, functions and globals."""

    name = "naming"

    def unit_visitor(self, unit: TranslationUnit, report: CheckerReport,
                     sweep) -> None:
        """Naming checks read only the parsed model (classes, globals,
        functions), so the whole battery runs from the end hook."""
        sweep.at_end(lambda: self._check_into(unit, report))

    def _check_into(self, unit: TranslationUnit,
                    report: CheckerReport) -> None:
        checked = 0
        violations = 0

        for class_info in unit.classes:
            if class_info.name == "<anonymous>":
                continue
            checked += 1
            if not CAMEL_CASE.match(class_info.name):
                if report.emit(Finding(
                        rule="NC.type_name",
                        message=(f"{class_info.kind} name "
                                 f"{class_info.name!r} is not CamelCase"),
                        filename=unit.filename,
                        line=class_info.start_line,
                        severity=Severity.MINOR,
                )):
                    violations += 1

        for variable in unit.globals:
            checked += 1
            if not variable.is_mutable_global:
                if not CONSTANT_NAME.match(variable.name):
                    if report.emit(Finding(
                            rule="NC.constant_name",
                            message=(f"constant {variable.name!r} should "
                                     f"be kCamelCase or UPPER_CASE"),
                            filename=unit.filename,
                            line=variable.line,
                            severity=Severity.INFO,
                    )):
                        violations += 1
            elif not variable.name.startswith(GLOBAL_PREFIXES):
                if report.emit(Finding(
                        rule="NC.global_name",
                        message=(f"mutable global {variable.name!r} lacks "
                                 f"a 'g_' or 'FLAGS_' prefix"),
                        filename=unit.filename,
                        line=variable.line,
                        severity=Severity.MINOR,
                )):
                    violations += 1

        violations += self._check_function_styles(unit, report)
        checked += sum(1 for function in unit.functions
                       if not function.name.startswith(("~", "operator")))

        report.stats.update({
            "checked_names": checked,
            "naming_violations": violations,
        })
        self.finalize(report)

    def finalize(self, report: CheckerReport) -> None:
        checked = report.stats.get("checked_names", 0)
        violations = report.stats.get("naming_violations", 0)
        report.stats["conformance_ratio"] = (
            1.0 if checked == 0 else max(0.0, 1.0 - violations / checked))

    # ------------------------------------------------------------------

    def _check_function_styles(self, unit: TranslationUnit,
                               report: CheckerReport) -> int:
        violations = 0
        cpu_styles = set()
        class_names = {class_info.name for class_info in unit.classes}
        for function in unit.functions:
            name = function.name
            if name.startswith(("~", "operator")) or name in class_names \
                    or name in _EXEMPT_FUNCTIONS:
                continue
            if CAMEL_CASE.match(name):
                style = "camel"
            elif SNAKE_CASE.match(name):
                style = "snake"
            else:
                if report.emit(Finding(
                        rule="NC.function_name",
                        message=(f"function name {name!r} matches neither "
                                 f"CamelCase nor snake_case"),
                        filename=unit.filename,
                        line=function.start_line,
                        severity=Severity.MINOR,
                        function=function.qualified_name,
                )):
                    violations += 1
                continue
            if not function.is_gpu_code:
                cpu_styles.add(style)
        if len(cpu_styles) > 1:
            if report.emit(Finding(
                    rule="NC.mixed_styles",
                    message="file mixes CamelCase and snake_case CPU "
                            "function names",
                    filename=unit.filename,
                    severity=Severity.INFO,
            )):
                violations += 1
        return violations
