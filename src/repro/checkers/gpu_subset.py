"""A certification-friendly GPU language subset checker (Brook Auto-style).

The paper's Observation 3 is that *no* language subset exists for GPU
code, and its proposed remediation is Brook Auto [Trompouki & Kosmidis,
DAC 2018]: a stream-language subset that hides pointers and memory
management from the programmer.  This module implements the reproduction's
version of that research direction — a concrete, checkable "GPU-safe
subset" for CUDA kernels, with two front ends:

* :meth:`GpuSubsetChecker.check_program` — precise rules on the strict
  MiniC AST of a kernel module (the kernels the GPU emulator runs);
* :meth:`GpuSubsetChecker.unit_visitor` — fuzzy rules on arbitrary
  ``.cu`` translation units (the corpus), also run by ``check_unit``.

Subset rules (ids ``GS1``-``GS7``):

GS1  kernels take only buffer (pointer) and scalar parameters;
GS2  no pointer arithmetic — buffers may only be subscripted;
GS3  every kernel guards its thread index against a size parameter
     before any buffer write (the range-guard idiom);
GS4  no dynamic memory anywhere in device code;
GS5  no recursion among device functions;
GS6  loops inside kernels are bounded by a parameter or constant
     (no ``while (true)``-style unbounded iteration);
GS7  a kernel has a single entry and its exits are guard-returns only.

The checker also reports the *migration cost*: how many constructs a
Brook-Auto-style rewrite would have to lift into stream operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..lang import cppmodel
from ..lang.minic import ast
from ..rules import REGISTRY, Rule
from .base import Checker, CheckerReport, Finding, Severity

RULES = REGISTRY.register_many("gpu_subset", (
    Rule("GS1", "Kernels take only buffer and scalar parameters",
         Severity.MINOR, table="modeling_coding", topic="language_subsets"),
    Rule("GS2", "No pointer arithmetic on kernel buffers",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
    Rule("GS3", "Kernels guard the thread index before buffer writes",
         Severity.CRITICAL, table="modeling_coding",
         topic="language_subsets"),
    Rule("GS4", "No dynamic memory in device code",
         Severity.CRITICAL, table="modeling_coding",
         topic="language_subsets"),
    Rule("GS5", "No recursion among device functions",
         Severity.CRITICAL, table="modeling_coding",
         topic="language_subsets"),
    Rule("GS6", "Kernel loops are parameter- or constant-bounded",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
    Rule("GS7", "Kernels have a single entry and guard-return exits",
         Severity.MAJOR, table="modeling_coding", topic="language_subsets"),
))


@dataclass
class KernelAudit:
    """Subset-compliance record for one kernel."""

    name: str
    findings: List[Finding] = field(default_factory=list)
    pointer_parameters: int = 0
    guarded: bool = False

    @property
    def compliant(self) -> bool:
        return not self.findings


class GpuSubsetChecker(Checker):
    """Checks CUDA kernels against the GPU-safe subset."""

    name = "gpu_subset"

    # ------------------------------------------------------------------
    # strict front end (MiniC kernel modules)

    def check_program(self, program: ast.Program,
                      filename: str = "<kernels>") -> CheckerReport:
        """Audit every ``__global__`` kernel of a MiniC program."""
        report = self.new_report(())
        audits: List[KernelAudit] = []
        device_names = {function.name for function in program.functions
                        if function.is_kernel or function.is_device}
        for function in program.functions:
            if not function.is_kernel:
                continue
            audit = self._audit_kernel(program, function, filename,
                                       device_names)
            audits.append(audit)
            for finding in audit.findings:
                report.emit(finding)
        report.stats.update({
            "kernels_checked": len(audits),
            "subset_compliant_kernels": sum(1 for audit in audits
                                            if audit.compliant),
            "stream_rewrites_needed": sum(audit.pointer_parameters
                                          for audit in audits),
            "guarded_kernels": sum(1 for audit in audits if audit.guarded),
        })
        return report

    def _audit_kernel(self, program: ast.Program, function: ast.Function,
                      filename: str,
                      device_names: Set[str]) -> KernelAudit:
        audit = KernelAudit(name=function.name)
        pointer_names = set()
        scalar_names = set()
        for parameter in function.parameters:
            if parameter.is_pointer:
                audit.pointer_parameters += 1
                pointer_names.add(parameter.name)
            else:
                scalar_names.add(parameter.name)
        statements = ast.iter_statements(function.body)

        # GS2: pointer arithmetic on buffer parameters.
        for statement in statements:
            for expression in self._expressions_of(statement):
                self._find_pointer_arithmetic(
                    expression, pointer_names, function, filename, audit)

        # GS3: a range guard comparing an index against a scalar
        # parameter must dominate buffer writes.  Approximation faithful
        # to the idiom: the kernel contains at least one If whose
        # condition mentions a scalar parameter, and writes occur only
        # beneath an If (never at kernel top level before any guard).
        audit.guarded = self._has_range_guard(function, scalar_names)
        if pointer_names and not audit.guarded:
            audit.findings.append(Finding(
                rule="GS3",
                message=(f"kernel {function.name!r} writes buffers "
                         f"without a thread-index range guard"),
                filename=filename,
                line=function.line,
                severity=Severity.CRITICAL,
                function=function.name,
            ))

        # GS5: recursion among device code.
        if self._calls_recursively(program, function, device_names):
            audit.findings.append(Finding(
                rule="GS5",
                message=f"kernel {function.name!r} participates in "
                        f"device-code recursion",
                filename=filename,
                line=function.line,
                severity=Severity.CRITICAL,
                function=function.name,
            ))

        # GS6: unbounded loops.
        for statement in statements:
            line = self._unbounded_loop_line(statement, scalar_names)
            if line is not None:
                audit.findings.append(Finding(
                    rule="GS6",
                    message=(f"loop in kernel {function.name!r} has no "
                             f"parameter- or constant-bounded condition"),
                    filename=filename,
                    line=line,
                    severity=Severity.MAJOR,
                    function=function.name,
                ))

        # GS7: exits are guard-returns only (a return carrying a value
        # inside a kernel is ill-formed CUDA anyway; flag non-guard
        # mid-body returns).
        returns = [statement for statement in statements
                   if isinstance(statement, ast.Return)]
        for statement in returns:
            if statement.value is not None:
                audit.findings.append(Finding(
                    rule="GS7",
                    message=f"kernel {function.name!r} returns a value",
                    filename=filename,
                    line=statement.line,
                    severity=Severity.MAJOR,
                    function=function.name,
                ))
        return audit

    @staticmethod
    def _expressions_of(statement):
        if isinstance(statement, ast.Declaration):
            yield statement.initializer
            yield statement.array_size
        elif isinstance(statement, ast.ExpressionStatement):
            yield statement.expression
        elif isinstance(statement, ast.If):
            yield statement.condition.expression
        elif isinstance(statement, (ast.While, ast.DoWhile)):
            yield statement.condition.expression
        elif isinstance(statement, ast.For):
            if statement.condition is not None:
                yield statement.condition.expression
            yield statement.increment
        elif isinstance(statement, ast.Return):
            yield statement.value
        elif isinstance(statement, ast.Switch):
            yield statement.subject

    def _find_pointer_arithmetic(self, node, pointer_names, function,
                                 filename, audit) -> None:
        if node is None:
            return
        if isinstance(node, ast.Binary):
            if node.operator in ("+", "-"):
                for side in (node.left, node.right):
                    if isinstance(side, ast.Identifier) \
                            and side.name in pointer_names:
                        audit.findings.append(Finding(
                            rule="GS2",
                            message=(f"pointer arithmetic on buffer "
                                     f"{side.name!r} in kernel "
                                     f"{function.name!r}"),
                            filename=filename,
                            line=node.line,
                            severity=Severity.MAJOR,
                            function=function.name,
                        ))
            self._find_pointer_arithmetic(node.left, pointer_names,
                                          function, filename, audit)
            self._find_pointer_arithmetic(node.right, pointer_names,
                                          function, filename, audit)
        elif isinstance(node, (ast.Logical,)):
            self._find_pointer_arithmetic(node.left, pointer_names,
                                          function, filename, audit)
            self._find_pointer_arithmetic(node.right, pointer_names,
                                          function, filename, audit)
        elif isinstance(node, ast.Unary):
            self._find_pointer_arithmetic(node.operand, pointer_names,
                                          function, filename, audit)
        elif isinstance(node, ast.Assignment):
            self._find_pointer_arithmetic(node.value, pointer_names,
                                          function, filename, audit)
            if isinstance(node.target, ast.Index):
                self._find_pointer_arithmetic(node.target.base,
                                              pointer_names, function,
                                              filename, audit)
                self._find_pointer_arithmetic(node.target.offset,
                                              pointer_names, function,
                                              filename, audit)
        elif isinstance(node, ast.Call):
            for argument in node.arguments:
                self._find_pointer_arithmetic(argument, pointer_names,
                                              function, filename, audit)
        elif isinstance(node, ast.Index):
            # Subscripting a buffer is the allowed access form, but the
            # base may itself hide arithmetic (``(p + k)[0]``).
            self._find_pointer_arithmetic(node.base, pointer_names,
                                          function, filename, audit)
            self._find_pointer_arithmetic(node.offset, pointer_names,
                                          function, filename, audit)
        elif isinstance(node, ast.Conditional):
            self._find_pointer_arithmetic(node.condition.expression,
                                          pointer_names, function,
                                          filename, audit)
            self._find_pointer_arithmetic(node.then_value, pointer_names,
                                          function, filename, audit)
            self._find_pointer_arithmetic(node.else_value, pointer_names,
                                          function, filename, audit)
        elif isinstance(node, ast.Cast):
            self._find_pointer_arithmetic(node.operand, pointer_names,
                                          function, filename, audit)

    @staticmethod
    def _mentions_any(node, names: Set[str]) -> bool:
        found = False

        def walk(current):
            nonlocal found
            if current is None or found:
                return
            if isinstance(current, ast.Identifier):
                if current.name in names:
                    found = True
                return
            for attribute in ("left", "right", "operand", "value",
                              "then_value", "else_value", "base",
                              "offset"):
                child = getattr(current, attribute, None)
                if isinstance(child, ast.Expression):
                    walk(child)
            if isinstance(current, ast.Call):
                for argument in current.arguments:
                    walk(argument)
            if isinstance(current, ast.Conditional):
                walk(current.condition.expression)

        walk(node)
        return found

    def _has_range_guard(self, function: ast.Function,
                         scalar_names: Set[str]) -> bool:
        for statement in ast.iter_statements(function.body):
            if isinstance(statement, ast.If) and self._mentions_any(
                    statement.condition.expression, scalar_names):
                return True
        return False

    @staticmethod
    def _calls_recursively(program: ast.Program, kernel: ast.Function,
                           device_names: Set[str]) -> bool:
        # Collect call names reachable from the kernel within device code.
        graph: Dict[str, Set[str]] = {}
        for function in program.functions:
            if function.name not in device_names:
                continue
            calls: Set[str] = set()

            def collect(node):
                if isinstance(node, ast.Call):
                    calls.add(node.name)
                    for argument in node.arguments:
                        collect(argument)
                    return
                for attribute in ("left", "right", "operand", "value",
                                  "then_value", "else_value", "base",
                                  "offset"):
                    child = getattr(node, attribute, None)
                    if isinstance(child, ast.Expression):
                        collect(child)

            for statement in ast.iter_statements(function.body):
                for expression in GpuSubsetChecker._expressions_of(
                        statement):
                    if expression is not None:
                        collect(expression)
            graph[function.name] = calls & device_names

        def transitive(start: str) -> Set[str]:
            seen: Set[str] = set()
            stack = list(graph.get(start, ()))
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(graph.get(current, ()))
            return seen

        # Recursion anywhere in device code reachable from the kernel
        # (including the kernel itself) violates the subset.
        reachable = transitive(kernel.name) | {kernel.name}
        for node in reachable:
            if node in transitive(node):
                return True
        return False

    @staticmethod
    def _unbounded_loop_line(statement, scalar_names: Set[str]):
        if isinstance(statement, (ast.While, ast.DoWhile)):
            condition = statement.condition.expression
            if isinstance(condition, ast.IntLiteral) and condition.value:
                return statement.line
        if isinstance(statement, ast.For) and statement.condition is None:
            return statement.line
        return None

    # ------------------------------------------------------------------
    # fuzzy front end (.cu translation units)

    def unit_visitor(self, unit: cppmodel.TranslationUnit,
                     report: CheckerReport, sweep) -> None:
        """Fuzzy audit of a ``.cu`` unit: GS4/GS5 plus migration stats.

        It reads kernel metadata from the parsed model, so it runs
        whole from the end hook."""
        sweep.at_end(lambda: self._check_into(unit, report))

    def _check_into(self, unit: cppmodel.TranslationUnit,
                    report: CheckerReport) -> None:
        kernels = [function for function in unit.functions
                   if function.is_cuda_kernel]
        compliant = 0
        rewrites = 0
        for function in kernels:
            clean = True
            rewrites += sum(1 for parameter in function.parameters
                            if parameter.is_pointer)
            if function.uses_dynamic_memory:
                if report.emit(Finding(
                        rule="GS4",
                        message=(f"kernel {function.name!r} uses dynamic "
                                 f"memory"),
                        filename=unit.filename,
                        line=function.start_line,
                        severity=Severity.CRITICAL,
                        function=function.qualified_name,
                )):
                    clean = False
            if function.name in function.calls:
                if report.emit(Finding(
                        rule="GS5",
                        message=f"kernel {function.name!r} is recursive",
                        filename=unit.filename,
                        line=function.start_line,
                        severity=Severity.CRITICAL,
                        function=function.qualified_name,
                )):
                    clean = False
            if clean:
                compliant += 1
        report.stats.update({
            "kernels_checked": len(kernels),
            "subset_compliant_kernels": compliant,
            "stream_rewrites_needed": rewrites,
        })
