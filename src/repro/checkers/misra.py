"""MISRA C:2012-inspired language-subset checker — Table 1 item 2.

Section 3.1.2 of the paper: "we focus on MISRA, the guideline for the use
of the C language in vehicle-based software, which stipulates 143 rules
(MISRA C:2012).  Since AD applications are not programmed targeting any
critical market in particular, they naturally do not adhere to MISRA C"
(Observation 2), and no equivalent subset exists for CUDA (Observation 3),
whose idiom intrinsically violates the pointer and dynamic-memory rules
(Observation 4).

This module implements the statically decidable MISRA rules that the
paper's analysis rests on.  Each rule is a small method so the rule set is
easy to audit and extend; rule identifiers follow the MISRA C:2012
numbering where a direct counterpart exists.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..lang.cppmodel import FunctionInfo, TranslationUnit
from ..lang.tokens import Token, TokenKind
from ..rules import REGISTRY, Rule
from .base import Checker, CheckerReport, Finding, Severity

RULES = REGISTRY.register_many("language_subset", (
    Rule("M2.7", "There should be no unused parameters in functions",
         Severity.MINOR, table="modeling_coding", topic="language_subsets"),
    Rule("M7.1", "Octal constants shall not be used",
         Severity.MINOR, table="modeling_coding", topic="language_subsets"),
    Rule("M8.2", "Function parameters shall be named",
         Severity.MINOR, table="modeling_coding", topic="language_subsets"),
    Rule("M12.3", "The comma operator should not be used",
         Severity.MINOR, table="modeling_coding", topic="language_subsets"),
    Rule("M13.4", "The result of an assignment shall not be used",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
    Rule("M15.1", "The goto statement should not be used",
         Severity.MAJOR, table="unit_design", topic="no_unconditional_jumps"),
    Rule("M15.5", "A function should have a single point of exit",
         Severity.MINOR, table="unit_design", topic="single_entry_exit"),
    Rule("M15.6", "Loop and selection bodies shall be compound statements",
         Severity.MINOR, table="modeling_coding", topic="language_subsets"),
    Rule("M16.3", "An unconditional break shall terminate every "
         "switch-clause",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
    Rule("M16.4", "Every switch statement shall have a default label",
         Severity.MINOR, table="modeling_coding", topic="language_subsets"),
    Rule("M17.2", "Functions shall not call themselves recursively",
         Severity.MAJOR, table="unit_design", topic="no_recursion"),
    Rule("M19.2", "The union keyword should not be used",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
    Rule("M21.3", "Memory allocation functions of <stdlib.h> shall not "
         "be used",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
    Rule("M21.4", "setjmp/longjmp shall not be used",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
    Rule("M21.5", "Signal handling of <signal.h> shall not be used",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
    Rule("M21.6", "Standard I/O shall not be used in production code",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
    Rule("M21.7", "atof/atoi/atol shall not be used",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
    Rule("M21.8", "abort/exit/getenv/system shall not be used",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
    Rule("D4.12", "Dynamic memory allocation shall not be used",
         Severity.MAJOR, table="unit_design", topic="no_dynamic_objects"),
))

#: Banned standard-library calls, rule id -> (names, reason).
BANNED_CALLS: Dict[str, tuple] = {
    "M21.3": (frozenset({"malloc", "calloc", "realloc", "free"}),
              "dynamic heap allocation is not permitted"),
    "M21.4": (frozenset({"setjmp", "longjmp"}),
              "setjmp/longjmp shall not be used"),
    "M21.5": (frozenset({"signal", "raise"}),
              "signal handling of <signal.h> shall not be used"),
    "M21.6": (frozenset({"printf", "fprintf", "sprintf", "scanf", "fscanf",
                         "sscanf", "fopen", "fclose", "gets", "puts"}),
              "standard I/O shall not be used in production code"),
    "M21.7": (frozenset({"atof", "atoi", "atol", "atoll"}),
              "atof/atoi/atol shall not be used"),
    "M21.8": (frozenset({"abort", "exit", "getenv", "system"}),
              "abort/exit/getenv/system shall not be used"),
}

#: Banned headers, header name -> rule id.
BANNED_HEADERS: Dict[str, str] = {
    "setjmp.h": "M21.4",
    "signal.h": "M21.5",
    "stdio.h": "M21.6",
    "cstdio": "M21.6",
    "stdlib.h": "M21.3",
}

_LOOP_OR_SELECTION = frozenset({"if", "for", "while"})
_CLAUSE_TERMINATORS = frozenset({"break", "return", "throw", "goto",
                                 "continue"})


class MisraChecker(Checker):
    """Statically decidable MISRA C:2012 subset, CUDA-aware."""

    name = "language_subset"
    version = "2"  # v2: octal check sees through digit separators (0'123')

    #: This checker stewards the deviation mechanism's hygiene rules:
    #: it flags deviations naming rules no checker registered.
    audits_unknown_deviations = True

    def unit_visitor(self, unit: TranslationUnit, report: CheckerReport,
                     sweep) -> None:
        """Banned headers now, octal constants during the token sweep,
        unions before the function phase, the function-level rule
        battery per function, stats at the end."""
        self._check_banned_headers(unit, report)
        sweep.on_kind(TokenKind.NUMBER,
                      lambda index, token:
                      self._octal_token(unit, token, report))
        sweep.at_functions(lambda: self._check_unions(unit, report))
        sweep.on_function(lambda function, body:
                          self._check_function(unit, function, body,
                                               report))
        sweep.at_end(lambda: self._summarize(unit, report))

    def _check_function(self, unit: TranslationUnit,
                        function: FunctionInfo, body: List[Token],
                        report: CheckerReport) -> None:
        """The per-function rule battery.

        The body is scanned up front — identifier spellings and keyword
        positions — so the token-driven rules below walk the short
        keyword list instead of re-walking the whole body each.
        """
        self._check_goto(unit, function, report)
        self._check_single_exit(unit, function, report)
        self._check_banned_calls(unit, function, report)
        self._check_dynamic_memory(unit, function, report)
        self._check_direct_recursion(unit, function, report)
        identifier = TokenKind.IDENTIFIER
        keyword = TokenKind.KEYWORD
        used = {token.text for token in body if token.kind is identifier}
        keywords = [(index, token) for index, token in enumerate(body)
                    if token.kind is keyword]
        self._check_unused_parameters(unit, function, body, used, report)
        self._check_unnamed_parameters(unit, function, report)
        self._check_compound_bodies(unit, function, body, keywords, report)
        self._check_switch_statements(unit, function, body, keywords,
                                      report)
        self._check_assignment_in_condition(unit, function, body, keywords,
                                            report)
        self._check_comma_in_for_increment(unit, function, body, keywords,
                                           report)

    def finalize(self, report: CheckerReport) -> None:
        lines = report.stats.get("analyzed_lines", 0)
        total = report.stats.get("misra_violations", 0)
        report.stats["violations_per_kloc"] = (
            0.0 if lines == 0 else 1000.0 * total / lines)
        report.stats["misra_clean"] = 1.0 if total == 0 else 0.0

    # ------------------------------------------------------------------
    # file-level rules

    def _check_banned_headers(self, unit: TranslationUnit,
                              report: CheckerReport) -> None:
        for include in unit.preprocessor.includes:
            rule = BANNED_HEADERS.get(include.target)
            if rule is not None:
                report.emit(Finding(
                    rule=rule,
                    message=f"banned header <{include.target}> included",
                    filename=unit.filename,
                    line=include.line,
                    severity=Severity.MAJOR,
                ))

    @staticmethod
    def _octal_token(unit: TranslationUnit, token: Token,
                     report: CheckerReport) -> None:
        """M7.1 for one NUMBER token."""
        # Digit separators don't change the base: 0'123' is octal.
        digits = token.text.replace("'", "")
        if (len(digits) > 1 and digits.startswith("0")
                and digits[1].isdigit()
                and "." not in digits and "e" not in digits.lower()):
            report.emit(Finding(
                rule="M7.1",
                message=f"octal constant {token.text} shall not be used",
                filename=unit.filename,
                line=token.line,
                severity=Severity.MINOR,
            ))

    def _check_unions(self, unit: TranslationUnit,
                      report: CheckerReport) -> None:
        for class_info in unit.classes:
            if class_info.kind == "union":
                report.emit(Finding(
                    rule="M19.2",
                    message=f"union {class_info.name!r} shall not be used",
                    filename=unit.filename,
                    line=class_info.start_line,
                    severity=Severity.MAJOR,
                ))

    # ------------------------------------------------------------------
    # function-level rules

    def _check_goto(self, unit: TranslationUnit, function: FunctionInfo,
                    report: CheckerReport) -> None:
        if function.goto_count > 0:
            report.emit(Finding(
                rule="M15.1",
                message=(f"goto used {function.goto_count} time(s) in "
                         f"{function.name!r}"),
                filename=unit.filename,
                line=function.start_line,
                severity=Severity.MAJOR,
                function=function.qualified_name,
            ))

    def _check_single_exit(self, unit: TranslationUnit,
                           function: FunctionInfo,
                           report: CheckerReport) -> None:
        if function.has_multiple_exits:
            report.emit(Finding(
                rule="M15.5",
                message=(f"{function.name!r} has {function.exit_points} "
                         f"exit points (single point of exit required)"),
                filename=unit.filename,
                line=function.start_line,
                severity=Severity.MINOR,
                function=function.qualified_name,
            ))

    def _check_banned_calls(self, unit: TranslationUnit,
                            function: FunctionInfo,
                            report: CheckerReport) -> None:
        for call in function.calls:
            for rule, (names, reason) in BANNED_CALLS.items():
                if call in names:
                    report.emit(Finding(
                        rule=rule,
                        message=f"call to {call!r}: {reason}",
                        filename=unit.filename,
                        line=function.start_line,
                        severity=Severity.MAJOR,
                        function=function.qualified_name,
                    ))

    def _check_dynamic_memory(self, unit: TranslationUnit,
                              function: FunctionInfo,
                              report: CheckerReport) -> None:
        dynamic = (function.new_expressions + function.delete_expressions
                   + function.allocation_calls + function.deallocation_calls)
        if dynamic > 0:
            severity = Severity.CRITICAL if function.is_gpu_code \
                else Severity.MAJOR
            report.emit(Finding(
                rule="D4.12",
                message=(f"{function.name!r} performs {dynamic} dynamic-"
                         f"memory operation(s)"
                         + (" in GPU-related code" if function.is_gpu_code
                            or function.kernel_launches else "")),
                filename=unit.filename,
                line=function.start_line,
                severity=severity,
                function=function.qualified_name,
            ))

    def _check_direct_recursion(self, unit: TranslationUnit,
                                function: FunctionInfo,
                                report: CheckerReport) -> None:
        if function.name in function.calls:
            report.emit(Finding(
                rule="M17.2",
                message=f"{function.name!r} calls itself recursively",
                filename=unit.filename,
                line=function.start_line,
                severity=Severity.MAJOR,
                function=function.qualified_name,
            ))

    def _check_unused_parameters(self, unit: TranslationUnit,
                                 function: FunctionInfo,
                                 body: List[Token], used: Set[str],
                                 report: CheckerReport) -> None:
        if not body:
            return
        for parameter in function.parameters:
            if parameter.name and parameter.name not in used:
                report.emit(Finding(
                    rule="M2.7",
                    message=(f"parameter {parameter.name!r} of "
                             f"{function.name!r} is unused"),
                    filename=unit.filename,
                    line=function.start_line,
                    severity=Severity.MINOR,
                    function=function.qualified_name,
                ))

    def _check_unnamed_parameters(self, unit: TranslationUnit,
                                  function: FunctionInfo,
                                  report: CheckerReport) -> None:
        """M8.2: prototypes shall name their parameters."""
        for position, parameter in enumerate(function.parameters):
            if not parameter.name:
                report.emit(Finding(
                    rule="M8.2",
                    message=(f"parameter {position + 1} of "
                             f"{function.name!r} is unnamed"),
                    filename=unit.filename,
                    line=function.start_line,
                    severity=Severity.MINOR,
                    function=function.qualified_name,
                ))

    def _check_assignment_in_condition(self, unit: TranslationUnit,
                                       function: FunctionInfo,
                                       body: List[Token],
                                       keywords: List[Tuple[int, Token]],
                                       report: CheckerReport) -> None:
        """M13.4: the result of an assignment shall not be used.

        Detects plain ``=`` inside the controlling expression of an
        ``if``/``while`` — the classic ``if (x = y)`` typo.
        """
        resume = 0
        for index, token in keywords:
            if index < resume or token.text not in ("if", "while"):
                continue
            close = self._condition_span(body, index)
            if close is None:
                continue
            for position in range(index + 2, close):
                entry = body[position]
                if entry.is_punct("=") \
                        and not self._is_comparison_neighbor(
                            body, position):
                    report.emit(Finding(
                        rule="M13.4",
                        message=(f"assignment used inside a "
                                 f"{token.text} condition"),
                        filename=unit.filename,
                        line=entry.line,
                        severity=Severity.MAJOR,
                        function=function.qualified_name,
                    ))
            resume = close + 1

    @staticmethod
    def _condition_span(body: List[Token], keyword_index: int):
        """Index of the ``)`` closing the condition after ``keyword``."""
        length = len(body)
        punct = TokenKind.PUNCT
        cursor = keyword_index + 1
        if cursor >= length or not body[cursor].is_punct("("):
            return None
        depth = 0
        while cursor < length:
            token = body[cursor]
            if token.kind is punct:
                if token.text == "(":
                    depth += 1
                elif token.text == ")":
                    depth -= 1
                    if depth == 0:
                        return cursor
            cursor += 1
        return None

    @staticmethod
    def _is_comparison_neighbor(body: List[Token], position: int) -> bool:
        """True when the ``=`` at ``position`` is part of ==, <=, etc.

        The lexer already fuses those into single tokens, so a bare ``=``
        token is a real assignment; this guard only protects against
        pathological token streams.
        """
        return False

    def _check_comma_in_for_increment(self, unit: TranslationUnit,
                                      function: FunctionInfo,
                                      body: List[Token],
                                      keywords: List[Tuple[int, Token]],
                                      report: CheckerReport) -> None:
        """M12.3: the comma operator should not be used.

        Checked where it is unambiguous: the increment clause of a
        ``for`` header (``for (...; ...; i++, j++)``).
        """
        resume = 0
        for index, token in keywords:
            if index < resume or token.text != "for":
                continue
            close = self._condition_span(body, index)
            if close is None:
                continue
            semicolons = 0
            depth = 0
            for position in range(index + 2, close):
                entry = body[position]
                if entry.kind is TokenKind.PUNCT:
                    if entry.text in ("(", "["):
                        depth += 1
                    elif entry.text in (")", "]"):
                        depth -= 1
                    elif entry.text == ";" and depth == 0:
                        semicolons += 1
                    elif entry.text == "," and depth == 0 \
                            and semicolons >= 2:
                        report.emit(Finding(
                            rule="M12.3",
                            message="comma operator in for-loop "
                                    "increment clause",
                            filename=unit.filename,
                            line=entry.line,
                            severity=Severity.MINOR,
                            function=function.qualified_name,
                        ))
            resume = close + 1

    def _check_compound_bodies(self, unit: TranslationUnit,
                               function: FunctionInfo,
                               body: List[Token],
                               keywords: List[Tuple[int, Token]],
                               report: CheckerReport) -> None:
        """M15.6: bodies of selection/iteration statements need braces."""
        length = len(body)
        for index, token in keywords:
            text = token.text
            if text in _LOOP_OR_SELECTION:
                after = self._after_condition(body, index)
                if after is not None and not (
                        after.is_punct("{")
                        or after.is_punct(";")  # empty loop body
                        or after.is_keyword("if")):  # handled at that `if`
                    report.emit(Finding(
                        rule="M15.6",
                        message=(f"{token.text} body is not a compound "
                                 f"statement"),
                        filename=unit.filename,
                        line=token.line,
                        severity=Severity.MINOR,
                        function=function.qualified_name,
                    ))
            elif text == "else":
                after = body[index + 1] if index + 1 < length else None
                if after is not None and not (after.is_punct("{")
                                              or after.is_keyword("if")):
                    report.emit(Finding(
                        rule="M15.6",
                        message="else body is not a compound statement",
                        filename=unit.filename,
                        line=token.line,
                        severity=Severity.MINOR,
                        function=function.qualified_name,
                    ))
            elif text == "do":
                after = body[index + 1] if index + 1 < length else None
                if after is not None and not after.is_punct("{"):
                    report.emit(Finding(
                        rule="M15.6",
                        message="do body is not a compound statement",
                        filename=unit.filename,
                        line=token.line,
                        severity=Severity.MINOR,
                        function=function.qualified_name,
                    ))

    @staticmethod
    def _after_condition(body: List[Token], index: int):
        """Token just after the `( ... )` following body[index], or None."""
        length = len(body)
        punct = TokenKind.PUNCT
        cursor = index + 1
        if cursor >= length or not body[cursor].is_punct("("):
            return None
        depth = 0
        while cursor < length:
            token = body[cursor]
            if token.kind is punct:
                if token.text == "(":
                    depth += 1
                elif token.text == ")":
                    depth -= 1
                    if depth == 0:
                        if cursor + 1 < length:
                            return body[cursor + 1]
                        return None
            cursor += 1
        return None

    def _check_switch_statements(self, unit: TranslationUnit,
                                 function: FunctionInfo,
                                 body: List[Token],
                                 keywords: List[Tuple[int, Token]],
                                 report: CheckerReport) -> None:
        """M16.3 (no fallthrough) and M16.4 (default label required).

        Nested switches are handled inside :meth:`_check_one_switch`'s
        span, so keywords before its returned resume point are skipped —
        exactly the legacy cursor jump.
        """
        resume = 0
        for index, token in keywords:
            if index < resume or token.text != "switch":
                continue
            resume = self._check_one_switch(unit, function, body, index,
                                            report)

    def _check_one_switch(self, unit: TranslationUnit,
                          function: FunctionInfo, body: List[Token],
                          switch_index: int,
                          report: CheckerReport) -> int:
        # Locate the switch body braces.
        cursor = switch_index + 1
        while cursor < len(body) and not body[cursor].is_punct("{"):
            cursor += 1
        if cursor >= len(body):
            return switch_index + 1
        open_brace = cursor
        depth = 0
        close_brace = open_brace
        while close_brace < len(body):
            if body[close_brace].is_punct("{"):
                depth += 1
            elif body[close_brace].is_punct("}"):
                depth -= 1
                if depth == 0:
                    break
            close_brace += 1

        has_default = False
        clause_start_line = 0
        last_terminator = True  # before the first label
        inner_depth = 0
        cursor = open_brace + 1
        while cursor < close_brace:
            token = body[cursor]
            if token.is_punct("{"):
                inner_depth += 1
            elif token.is_punct("}"):
                inner_depth -= 1
            elif inner_depth == 0 and token.kind is TokenKind.KEYWORD \
                    and token.text in ("case", "default"):
                if token.text == "default":
                    has_default = True
                if not last_terminator and clause_start_line:
                    report.emit(Finding(
                        rule="M16.3",
                        message=(f"switch clause starting at line "
                                 f"{clause_start_line} falls through"),
                        filename=unit.filename,
                        line=token.line,
                        severity=Severity.MAJOR,
                        function=function.qualified_name,
                    ))
                # Skip to the colon ending this label.
                while cursor < close_brace and not body[cursor].is_punct(":"):
                    cursor += 1
                clause_start_line = token.line
                last_terminator = True  # empty clause = shared label, OK
                cursor += 1
                continue
            elif inner_depth <= 1 and token.kind is TokenKind.KEYWORD \
                    and token.text in _CLAUSE_TERMINATORS:
                # Skip the rest of the terminating statement (e.g. the
                # expression of a `return x;`).
                while cursor < close_brace and not body[cursor].is_punct(";"):
                    cursor += 1
                last_terminator = True
                cursor += 1
                continue
            if token.kind is not TokenKind.COMMENT:
                if not (token.is_punct(";") or token.is_punct("}")
                        or token.is_punct("{")):
                    last_terminator = False
            cursor += 1
        if not has_default:
            report.emit(Finding(
                rule="M16.4",
                message="switch statement has no default label",
                filename=unit.filename,
                line=body[switch_index].line,
                severity=Severity.MINOR,
                function=function.qualified_name,
            ))
        if not last_terminator and clause_start_line:
            report.emit(Finding(
                rule="M16.3",
                message=(f"final switch clause starting at line "
                         f"{clause_start_line} lacks a break"),
                filename=unit.filename,
                line=body[close_brace].line if close_brace < len(body)
                else clause_start_line,
                severity=Severity.MINOR,
                function=function.qualified_name,
            ))
        return close_brace + 1

    # ------------------------------------------------------------------

    def _summarize(self, unit: TranslationUnit,
                   report: CheckerReport) -> None:
        kernels = [function for function in unit.functions
                   if function.is_gpu_code]
        kernels_with_pointers = sum(
            1 for function in kernels
            if any(parameter.is_pointer
                   for parameter in function.parameters)
            or function.pointer_operations > 0)
        kernels_with_dynamic = sum(1 for function in kernels
                                   if function.uses_dynamic_memory)
        report.stats.update({
            "misra_violations": len(report.findings),
            "analyzed_lines": unit.line_count,
            "gpu_functions": len(kernels),
            "gpu_functions_with_pointers": kernels_with_pointers,
            "gpu_functions_with_dynamic_memory": kernels_with_dynamic,
        })


def cuda_intrinsic_violations(report: CheckerReport) -> Dict[str, float]:
    """Observation 4 evidence: pointer/dynamic-memory use in GPU code."""
    gpu = report.stats.get("gpu_functions", 0)
    return {
        "gpu_functions": gpu,
        "pointer_ratio": (0.0 if gpu == 0 else
                          report.stats.get("gpu_functions_with_pointers", 0)
                          / gpu),
        "dynamic_memory_ratio": (
            0.0 if gpu == 0 else
            report.stats.get("gpu_functions_with_dynamic_memory", 0) / gpu),
    }
