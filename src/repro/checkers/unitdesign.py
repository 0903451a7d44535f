"""Software unit design & implementation checks — paper Table 3 (ISO Table 8).

Section 3.5 walks through the ten principles and reports, for Apollo:

1. 41% of functions in the object-detection module have several exit points;
2. most data structures are allocated dynamically;
3. several variables are uninitialized;
4. variable-name uniqueness is complicated by libraries and namespaces;
5. ~900 globals in the perception module;
6. pointers are used pervasively (CUDA makes them indispensable);
7. >1,400 explicit type conversions;
8. hidden data/control flow (function-like macros, conditional compilation);
9. several unconditional jumps;
10. a few recursive functions (tree processing).

This checker produces one finding stream and one statistics block covering
all ten items.  Recursion detection is project-level (indirect recursion
needs the whole call graph), so :meth:`finish_from_units` overrides the
default.  Folded across runs, the graph is rebuilt only when a changed
file's call pairs differ (or a file came or went); otherwise the
previous cycle set is kept and its findings re-emitted at the changed
files' fresh locations.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..lang.cppmodel import TYPE_KEYWORDS, FunctionInfo, TranslationUnit
from ..lang.summary import UnitSummary
from ..lang.tokens import Token, TokenKind
from ..rules import REGISTRY, Rule
from .base import Checker, CheckerReport, Finding, ProjectDelta, Severity

RULES = REGISTRY.register_many("unit_design", (
    Rule("UD1.multi_exit", "One entry and one exit point per function",
         Severity.MINOR, table="unit_design", topic="single_entry_exit"),
    Rule("UD2.dynamic_alloc", "No dynamic objects or variables",
         Severity.MAJOR, table="unit_design", topic="no_dynamic_objects"),
    Rule("UD3.uninitialized", "Initialization of variables",
         Severity.MAJOR, table="unit_design",
         topic="variable_initialization"),
    Rule("UD4.shadowing", "No multiple use of variable names",
         Severity.MINOR, table="unit_design", topic="no_name_reuse"),
    Rule("UD8.macro_flow", "No hidden data flow or control flow "
         "(function-like macros)",
         Severity.MINOR, table="unit_design", topic="no_hidden_flow"),
    Rule("UD8.cond_compilation", "No hidden data flow or control flow "
         "(conditional compilation)",
         Severity.INFO, table="unit_design", topic="no_hidden_flow"),
    Rule("UD9.goto", "No unconditional jumps",
         Severity.MAJOR, table="unit_design",
         topic="no_unconditional_jumps"),
    Rule("UD10.recursion", "No recursions",
         Severity.MAJOR, table="unit_design", topic="no_recursion"),
))

#: Scalar types whose declaration without initializer is flagged (item 3).
_SCALAR_TYPES = TYPE_KEYWORDS - {"void", "auto"}

#: Statement-context tokens after which a declaration can begin.
_STATEMENT_STARTERS = frozenset({";", "{", "}"})


class UnitDesignChecker(Checker):
    """Implements the ten Table 8 unit-design checks."""

    name = "unit_design"

    def unit_visitor(self, unit: TranslationUnit, report: CheckerReport,
                     sweep) -> None:
        """The per-function battery rides the shared function phase;
        hidden-flow findings and the statistics block come last."""
        counts = {"multi_exit": 0, "dynamic": 0, "pointer": 0, "goto": 0}
        sweep.on_function(lambda function, body:
                          self._check_function(unit, function, body,
                                               counts, report))
        sweep.at_end(lambda: self._finish_unit(unit, counts, report))

    def _check_function(self, unit: TranslationUnit,
                        function: FunctionInfo, body: List[Token],
                        counts: Dict[str, int],
                        report: CheckerReport) -> None:
        if function.has_multiple_exits:
            if report.emit(Finding(
                    rule="UD1.multi_exit",
                    message=(f"{function.name!r} has "
                             f"{function.exit_points} exit points"),
                    filename=unit.filename,
                    line=function.start_line,
                    severity=Severity.MINOR,
                    function=function.qualified_name,
            )):
                counts["multi_exit"] += 1
        if function.uses_dynamic_memory:
            if report.emit(Finding(
                    rule="UD2.dynamic_alloc",
                    message=(f"{function.name!r} allocates dynamically "
                             f"({function.allocation_calls} calls, "
                             f"{function.new_expressions} new)"),
                    filename=unit.filename,
                    line=function.start_line,
                    severity=Severity.MAJOR,
                    function=function.qualified_name,
            )):
                counts["dynamic"] += 1
        if function.pointer_operations > 0 \
                or any(parameter.is_pointer
                       for parameter in function.parameters):
            counts["pointer"] += 1
        if function.goto_count > 0:
            if report.emit(Finding(
                    rule="UD9.goto",
                    message=f"{function.name!r} uses goto",
                    filename=unit.filename,
                    line=function.start_line,
                    severity=Severity.MAJOR,
                    function=function.qualified_name,
            )):
                counts["goto"] += 1
        self._check_uninitialized(unit, function, body, report)
        self._check_shadowing(unit, function, body, report)

    def _finish_unit(self, unit: TranslationUnit, counts: Dict[str, int],
                     report: CheckerReport) -> None:
        hidden = self._check_hidden_flow(unit, report)
        report.stats.update({
            "functions": len(unit.functions),
            "multi_exit_functions": counts["multi_exit"],
            "dynamic_alloc_functions": counts["dynamic"],
            "pointer_functions": counts["pointer"],
            "goto_functions": counts["goto"],
            "uninitialized_declarations": sum(
                1 for finding in report.findings
                if finding.rule == "UD3.uninitialized"),
            "shadowed_names": sum(
                1 for finding in report.findings
                if finding.rule == "UD4.shadowing"),
            "hidden_flow_sites": hidden,
            "mutable_globals": len(unit.mutable_globals),
        })

    def finish_from_units(self,
                          units: List[Union[TranslationUnit, UnitSummary]],
                          unit_reports: List[CheckerReport],
                          fold: Optional[ProjectDelta] = None
                          ) -> CheckerReport:
        """Merge the per-unit reports, then run the project-wide
        call-graph recursion pass — the part that genuinely needs every
        unit at once, and only their summaries.  Overriding this (rather
        than :meth:`check_project`) lets the pipeline distribute and
        cache this checker's per-unit portion like any other.  With
        ``fold``, the deviation index, the merge and the recursion pass
        are all folded from the previous report (see :meth:`_recursion`),
        so ``units`` is read only when the call graph must be rebuilt.
        Full units are read as they are: the pass needs nothing a
        summary does not hold, under the same field names."""
        report = self.new_report(units, flag_deviations=False, fold=fold)
        merged = self.merge_units(report, unit_reports, fold)
        recursion = self._recursion(units, fold)
        reported = self._report_recursion(recursion, report)
        report.stats["recursive_functions"] = reported
        rule_counts = merged.tally.rules
        if reported:
            rule_counts = dict(rule_counts)
            rule_counts["UD10.recursion"] = \
                rule_counts.get("UD10.recursion", 0) + reported
        self.settle(report, merged, unit_reports, rule_counts,
                    extra=recursion)
        return report

    def finalize(self, report: CheckerReport) -> None:
        functions = report.stats.get("functions", 0)
        for key, stat in (("multi_exit_ratio", "multi_exit_functions"),
                          ("dynamic_alloc_ratio", "dynamic_alloc_functions"),
                          ("pointer_ratio", "pointer_functions")):
            report.stats[key] = self.ratio(report.stats.get(stat, 0),
                                           functions)

    # ------------------------------------------------------------------
    # item 3: initialization of variables

    def _check_uninitialized(self, unit: TranslationUnit,
                             function: FunctionInfo, body: List[Token],
                             report: CheckerReport) -> None:
        """Flag `type name;` scalar declarations with no initializer.

        The heuristic mirrors what "static code analysis tools and compiler
        options" (Section 3.5 item 3) report: a scalar local declared
        without an initializer.  Whether a later assignment happens before
        first use is undecidable fuzzily, so this over-approximates the
        same way ``-Wuninitialized``-style diagnostics do at declaration
        granularity.
        """
        for index in range(1, len(body) - 2):
            token = body[index]
            if not (token.kind is TokenKind.KEYWORD
                    and token.text in _SCALAR_TYPES):
                continue
            previous = body[index - 1]
            if not (previous.kind is TokenKind.PUNCT
                    and previous.text in _STATEMENT_STARTERS):
                continue
            name = body[index + 1]
            terminator = body[index + 2]
            if name.kind is TokenKind.IDENTIFIER \
                    and terminator.is_punct(";"):
                report.emit(Finding(
                    rule="UD3.uninitialized",
                    message=(f"local {name.text!r} declared without an "
                             f"initializer"),
                    filename=unit.filename,
                    line=token.line,
                    severity=Severity.MAJOR,
                    function=function.qualified_name,
                ))

    # ------------------------------------------------------------------
    # item 4: no multiple use of variable names (shadowing)

    def _check_shadowing(self, unit: TranslationUnit,
                         function: FunctionInfo, body: List[Token],
                         report: CheckerReport) -> None:
        """Flag a local declaration reusing a name visible in an outer scope."""
        scopes: List[Set[str]] = [
            {parameter.name for parameter in function.parameters
             if parameter.name}]
        punct = TokenKind.PUNCT
        keyword = TokenKind.KEYWORD
        index = 1  # skip opening brace
        stop = len(body) - 1
        while index < stop:
            token = body[index]
            kind = token.kind
            if kind is punct:
                text = token.text
                if text == "{":
                    scopes.append(set())
                elif text == "}" and len(scopes) > 1:
                    scopes.pop()
            elif kind is keyword and token.text in _SCALAR_TYPES:
                # Only a scalar-type keyword can open a declaration;
                # _declared_name re-checks the full shape.
                declared = self._declared_name(body, index)
                if declared is not None:
                    name, line = declared
                    if any(name in scope for scope in scopes[:-1]) \
                            or name in scopes[-1]:
                        report.emit(Finding(
                            rule="UD4.shadowing",
                            message=(f"declaration of {name!r} shadows an "
                                     f"outer declaration"),
                            filename=unit.filename,
                            line=line,
                            severity=Severity.MINOR,
                            function=function.qualified_name,
                        ))
                    scopes[-1].add(name)
            index += 1

    @staticmethod
    def _declared_name(body: List[Token], index: int):
        """Name declared by `type name [=...]` starting at ``index``."""
        token = body[index]
        if not (token.kind is TokenKind.KEYWORD
                and token.text in _SCALAR_TYPES):
            return None
        previous = body[index - 1]
        if not (previous.kind is TokenKind.PUNCT
                and previous.text in (_STATEMENT_STARTERS | {"("})):
            return None
        cursor = index + 1
        # Skip further type keywords and pointer declarators.
        while cursor < len(body) and (
                (body[cursor].kind is TokenKind.KEYWORD
                 and body[cursor].text in (_SCALAR_TYPES | {"const"}))
                or body[cursor].is_punct("*") or body[cursor].is_punct("&")):
            cursor += 1
        if cursor < len(body) \
                and body[cursor].kind is TokenKind.IDENTIFIER:
            after = body[cursor + 1] if cursor + 1 < len(body) else None
            if after is not None and (after.is_punct("=")
                                      or after.is_punct(";")
                                      or after.is_punct("[")):
                return body[cursor].text, body[cursor].line
        return None

    # ------------------------------------------------------------------
    # item 8: hidden data/control flow

    def _check_hidden_flow(self, unit: TranslationUnit,
                           report: CheckerReport) -> int:
        """Function-like macros and in-function conditional compilation.

        Both hide flow from review and coverage tools, which is how the
        paper connects item 8 to its coverage findings.
        """
        sites = 0
        macro_names = {macro.name
                       for macro in unit.preprocessor.function_like_macros}
        if macro_names:
            for function in unit.functions:
                hidden_calls = [call for call in function.calls
                                if call in macro_names]
                if hidden_calls:
                    if report.emit(Finding(
                            rule="UD8.macro_flow",
                            message=(f"{function.name!r} invokes "
                                     f"function-like macro(s) "
                                     f"{sorted(set(hidden_calls))}"),
                            filename=unit.filename,
                            line=function.start_line,
                            severity=Severity.MINOR,
                            function=function.qualified_name,
                    )):
                        sites += len(hidden_calls)
        conditionals = unit.preprocessor.conditionals
        if conditionals:
            if report.emit(Finding(
                    rule="UD8.cond_compilation",
                    message=(f"{conditionals} conditional-compilation "
                             f"directive(s) in translation unit"),
                    filename=unit.filename,
                    severity=Severity.INFO,
            )):
                sites += conditionals
        return sites

    # ------------------------------------------------------------------
    # item 10: recursion (direct and indirect)

    def _recursion(self, units: List[UnitSummary],
                   fold: Optional[ProjectDelta]
                   ) -> Tuple[Tuple[str, str, int], ...]:
        """Functions on a call-graph cycle as sorted ``(name, file,
        line)`` triples, located at the name's first definition.

        Names are matched project-wide.  Folded, the graph is rebuilt
        only when :meth:`~repro.checkers.base.ProjectDelta.
        calls_changed`; otherwise the previous triples stand, with the
        line re-read from a changed file (its function names are
        unchanged, so the first definition is the same function).
        """
        if fold is not None and not fold.calls_changed():
            changed = {unit.filename: unit for unit, _ in fold.added}
            return tuple(
                (name, filename, _first_line(changed[filename], name)
                 if filename in changed else line)
                for name, filename, line in fold.previous.partials.extra)
        graph: Dict[str, Set[str]] = {}
        locations: Dict[str, Tuple[str, int]] = {}
        defined: Set[str] = set()
        for unit in units:
            for function in unit.functions:
                defined.add(function.name)
                locations.setdefault(function.name,
                                     (unit.filename, function.start_line))
        for unit in units:
            for function in unit.functions:
                edges = graph.setdefault(function.name, set())
                edges.update(call for call in function.calls
                             if call in defined)
        return tuple((name,) + locations.get(name, ("<unknown>", 0))
                     for name in sorted(_functions_on_cycles(graph)))

    @staticmethod
    def _report_recursion(recursion: Tuple[Tuple[str, str, int], ...],
                          report: CheckerReport) -> int:
        """Emit one UD10 finding per recursive function; returns the
        count that actually landed (disabled or deviated ones are
        excluded from the ``recursive_functions`` stat too)."""
        reported = 0
        for name, filename, line in recursion:
            if report.emit(Finding(
                    rule="UD10.recursion",
                    message=f"{name!r} participates in a call-graph cycle",
                    filename=filename,
                    line=line,
                    severity=Severity.MAJOR,
                    function=name,
            )):
                reported += 1
        return reported


def _first_line(unit: UnitSummary, name: str) -> int:
    """Start line of the first function named ``name`` in ``unit``."""
    return next(function.start_line for function in unit.functions
                if function.name == name)


def _functions_on_cycles(graph: Dict[str, Set[str]]) -> Set[str]:
    """Names on any cycle of the call graph (iterative Tarjan SCC).

    Each work-stack frame keeps an iterator over the node's callees,
    sorted once when the node is first visited, so a resumed node
    continues where it left off.
    """
    counter = 0
    indices: Dict[str, int] = {}
    lowlinks: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    result: Set[str] = set()
    work: List[Tuple[str, Iterator[str]]] = []

    def visit(node: str) -> None:
        nonlocal counter
        indices[node] = lowlinks[node] = counter
        counter += 1
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(sorted(graph.get(node, ())))))

    for root in graph:
        if root in indices:
            continue
        visit(root)
        while work:
            node, children = work[-1]
            for child in children:
                if child not in indices:
                    visit(child)
                    break
                if child in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[child])
            else:
                work.pop()
                if lowlinks[node] == indices[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        result.update(component)
                    elif node in graph.get(node, ()):
                        result.add(node)  # direct self-recursion
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent],
                                           lowlinks[node])
    return result
