"""Defensive-implementation evidence — Table 1 item 4, Observation 6.

Section 3.1.4: defensive code "must behave predictably despite unexpected
inputs", which requires that (a) functions validate their input parameters
before using them, and (b) callers handle the return values of the
functions they call.  Both properties are approximated statically:

* *parameter validation*: a function with pointer/reference/arithmetic
  parameters is considered defensive when its body's leading region
  mentions a parameter inside a validation construct (``if``, ``assert``,
  ``CHECK*``-style macro, or an early ``return``/``throw`` guard);
* *return-value handling*: a call whose result is discarded (a bare
  call-statement) to a function that is known, from the same analysis run,
  to return non-void, counts as an unchecked return.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..lang.cppmodel import FunctionInfo, TranslationUnit
from ..lang.tokens import Token, TokenKind
from ..rules import REGISTRY, Rule
from .base import Checker, CheckerReport, Finding, Severity

RULES = REGISTRY.register_many("defensive", (
    Rule("DF.unvalidated_params", "Functions shall validate their "
         "parameters before use",
         Severity.MAJOR, table="modeling_coding",
         topic="defensive_implementation"),
    Rule("DF.unchecked_return", "Return values shall not be discarded",
         Severity.MINOR, table="modeling_coding",
         topic="defensive_implementation"),
))

#: Macro/function names that perform validation in industrial C++.
VALIDATION_CALLS = frozenset({
    "assert", "CHECK", "CHECK_NOTNULL", "CHECK_GT", "CHECK_GE", "CHECK_LT",
    "CHECK_LE", "CHECK_EQ", "CHECK_NE", "DCHECK", "ACHECK", "CHECK_NULL",
    "ASSERT", "VALIDATE", "EXPECT", "REQUIRE",
})

#: How many leading statements of a body count as the "validation region".
GUARD_WINDOW_STATEMENTS = 6


class DefensiveChecker(Checker):
    """Measures parameter-validation and return-value-handling discipline."""

    name = "defensive"

    def finalize(self, report: CheckerReport) -> None:
        report.stats["validation_ratio"] = self.ratio(
            report.stats.get("guarded_functions", 0),
            report.stats.get("guardable_functions", 0))

    def unit_visitor(self, unit: TranslationUnit, report: CheckerReport,
                     sweep) -> None:
        """Parameter validation per function; unchecked returns on
        ``(`` events.

        Parameter validation rides the shared per-function phase (the
        body slice is handed in, so ``body_tokens`` is not re-cut).
        Unchecked-return candidates are recognized on ``(`` events
        during the token sweep but buffered and flushed from the end
        hook, so every ``DF.unchecked_return`` finding follows every
        ``DF.unvalidated_params`` finding of the unit.  Only functions
        defined in the same unit are classified as returning a value
        (their return type is known from the definition), which is
        what a file-local static analysis can prove.
        """
        code = unit.code
        counts = {"guardable": 0, "guarded": 0}
        unchecked_pending: List[Finding] = []
        returning: Set[str] = set()
        for function in unit.functions:
            if function.return_count > 0 and self._returns_value(unit,
                                                                 function):
                returning.add(function.name)

        if returning:
            def on_open_paren(index, token):
                if index < 2:
                    return
                name = code[index - 1]
                if name.kind is not TokenKind.IDENTIFIER \
                        or name.text not in returning:
                    return
                previous = code[index - 2]
                if previous.kind is TokenKind.PUNCT \
                        and previous.text in (";", "{", "}"):
                    unchecked_pending.append(Finding(
                        rule="DF.unchecked_return",
                        message=(f"return value of {name.text!r} is "
                                 f"discarded"),
                        filename=unit.filename,
                        line=name.line,
                        severity=Severity.MINOR,
                    ))
            sweep.on_text("(", on_open_paren)

        def on_function(function, body):
            riskful = [parameter for parameter in function.parameters
                       if parameter.name]
            if not riskful:
                return
            counts["guardable"] += 1
            if self._validates_parameters(function, body):
                counts["guarded"] += 1
            else:
                report.emit(Finding(
                    rule="DF.unvalidated_params",
                    message=(f"function {function.name!r} uses its "
                             f"{len(riskful)} parameter(s) without a "
                             f"leading validity check"),
                    filename=unit.filename,
                    line=function.start_line,
                    severity=Severity.MAJOR,
                    function=function.qualified_name,
                ))
        sweep.on_function(on_function)

        def finish():
            unchecked = 0
            for finding in unchecked_pending:
                if report.emit(finding):
                    unchecked += 1
            report.stats.update({
                "guardable_functions": counts["guardable"],
                "guarded_functions": counts["guarded"],
                "unchecked_return_calls": unchecked,
            })
            self.finalize(report)
        sweep.at_end(finish)

    # ------------------------------------------------------------------

    def _validates_parameters(self, function: FunctionInfo,
                              body: List[Token]) -> bool:
        """True when the body's leading region checks any parameter."""
        parameter_names: Set[str] = {parameter.name
                                     for parameter in function.parameters
                                     if parameter.name}
        if not parameter_names:
            return True
        statements = self._leading_statements(body)
        for statement in statements:
            if self._is_validation_statement(statement, parameter_names):
                return True
        return False

    @staticmethod
    def _leading_statements(body: List[Token]) -> List[List[Token]]:
        """Split the leading region of a body into statements.

        Statements are token runs separated by ``;`` at nesting depth zero
        relative to the body braces; an ``if (...) { ... }`` guard counts
        as one statement including its condition.
        """
        statements: List[List[Token]] = []
        current: List[Token] = []
        depth = 0
        for token in body[1:-1]:  # strip outer braces
            current.append(token)
            if token.kind is TokenKind.PUNCT:
                if token.text in ("{", "(", "["):
                    depth += 1
                elif token.text in ("}", ")", "]"):
                    depth -= 1
                    if token.text == "}" and depth == 0:
                        statements.append(current)
                        current = []
                elif token.text == ";" and depth == 0:
                    statements.append(current)
                    current = []
            if len(statements) >= GUARD_WINDOW_STATEMENTS:
                break
        if current:
            statements.append(current)
        return statements[:GUARD_WINDOW_STATEMENTS]

    @staticmethod
    def _is_validation_statement(statement: List[Token],
                                 parameter_names: Set[str]) -> bool:
        mentions_parameter = any(
            token.kind is TokenKind.IDENTIFIER
            and token.text in parameter_names
            for token in statement)
        if not mentions_parameter:
            return False
        for token in statement:
            if token.is_keyword("if"):
                return True
            if (token.kind is TokenKind.IDENTIFIER
                    and (token.text in VALIDATION_CALLS
                         or token.text.startswith("CHECK"))):
                return True
        return False

    # ------------------------------------------------------------------

    @staticmethod
    def _returns_value(unit: TranslationUnit,
                       function: FunctionInfo) -> bool:
        """True when any `return` in the body carries an expression."""
        body = unit.body_tokens(function)
        for index, token in enumerate(body):
            if token.is_keyword("return"):
                if index + 1 < len(body) and not body[index + 1].is_punct(";"):
                    return True
        return False


def project_validation_ratio(reports: Iterable[CheckerReport]) -> float:
    """Combined validation ratio over several per-module reports."""
    guarded = sum(report.stats.get("guarded_functions", 0)
                  for report in reports)
    guardable = sum(report.stats.get("guardable_functions", 0)
                    for report in reports)
    if guardable == 0:
        return 0.0
    return guarded / guardable
