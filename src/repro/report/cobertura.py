"""Cobertura XML export of the coverage campaign.

Cobertura is the lingua franca of CI coverage surfaces (Jenkins, GitLab,
Codecov all ingest it); this exporter serializes the raw
:class:`~repro.coverage.probes.CoverageCollector` observations — not the
rounded campaign percentages — so line hit counts round-trip exactly:

* statements map to ``<line number hits>`` records (max over a line's
  statements, as in the LCOV exporter);
* decisions and switch clauses map to ``branch="true"`` lines with a
  ``condition-coverage`` attribute;
* functions map to ``<method>`` entries with their own line-rate.

Files group into packages by directory (the coverage corpus is flat, so
they land in one package), and the document carries aggregate
``line-rate`` / ``branch-rate`` plus absolute covered/valid counts.
"""

from __future__ import annotations

import xml.etree.ElementTree as ElementTree
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..coverage.instrument import build_function_maps
from ..coverage.probes import CoverageCollector
from ..coverage.report import CoverageCampaign
from ..errors import ReportError
from ..lang.minic import ast
from .base import Reporter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model import ReportModel

#: The DTD version the document claims (the schema Cobertura 2.x emits).
COBERTURA_VERSION = "2.1.1"


def _line_hits(collector: CoverageCollector) -> Dict[int, int]:
    """Per-line hit counts: max over the line's statements."""
    per_line: Dict[int, int] = {}
    for statement, hits in zip(collector.program.statements,
                               collector.statement_hits):
        per_line[statement.line] = max(per_line.get(statement.line, 0),
                                       hits)
    return per_line


def _branch_lines(collector: CoverageCollector
                  ) -> Dict[int, Tuple[int, int]]:
    """Per-line ``(covered, total)`` branch outcome counts."""
    program = collector.program
    per_line: Dict[int, List[int]] = {}
    for decision in program.decisions:
        outcomes = collector.decision_outcomes[decision.decision_id]
        entry = per_line.setdefault(decision.line, [0, 0])
        entry[0] += len(outcomes & {True, False})
        entry[1] += 2
    for statement in program.statements:
        if isinstance(statement, ast.SwitchCase):
            hits = collector.statement_hits[statement.statement_id]
            entry = per_line.setdefault(statement.line, [0, 0])
            entry[0] += 1 if hits > 0 else 0
            entry[1] += 1
    return {line: (covered, total)
            for line, (covered, total) in per_line.items()}


def _rate(covered: int, valid: int) -> str:
    return f"{(covered / valid) if valid else 0.0:.4f}"


def _class_element(filename: str, collector: CoverageCollector
                   ) -> Tuple[ElementTree.Element, Tuple[int, int, int, int]]:
    """One ``<class>`` per covered file; returns the element plus its
    ``(lines_covered, lines_valid, branches_covered, branches_valid)``."""
    line_hits = _line_hits(collector)
    branch_lines = _branch_lines(collector)
    lines_valid = len(line_hits)
    lines_covered = sum(1 for hits in line_hits.values() if hits > 0)
    branches_covered = sum(covered for covered, _ in branch_lines.values())
    branches_valid = sum(total for _, total in branch_lines.values())

    name = filename.rsplit("/", 1)[-1]
    if name.endswith((".c", ".cc", ".cu")):
        name = name.rsplit(".", 1)[0]
    element = ElementTree.Element("class", {
        "name": name,
        "filename": filename.replace("\\", "/"),
        "line-rate": _rate(lines_covered, lines_valid),
        "branch-rate": _rate(branches_covered, branches_valid),
        "complexity": "0",
    })

    methods = ElementTree.SubElement(element, "methods")
    functions_by_name = {function.name: function
                         for function in collector.program.functions}
    for function_map in build_function_maps(collector.program):
        function = functions_by_name[function_map.name]
        method_lines = {
            collector.program.statements[statement_id].line
            for statement_id in function_map.statement_ids}
        covered = sum(1 for line in method_lines
                      if line_hits.get(line, 0) > 0)
        method = ElementTree.SubElement(methods, "method", {
            "name": function_map.name,
            "signature": "()",
            "line-rate": _rate(covered, len(method_lines)),
            "branch-rate": "0.0",
        })
        method_lines_element = ElementTree.SubElement(method, "lines")
        ElementTree.SubElement(method_lines_element, "line", {
            "number": str(function.line),
            "hits": str(line_hits.get(function.line, 0)),
            "branch": "false",
        })

    lines_element = ElementTree.SubElement(element, "lines")
    for line in sorted(line_hits):
        attributes = {
            "number": str(line),
            "hits": str(line_hits[line]),
            "branch": "false",
        }
        if line in branch_lines:
            covered, total = branch_lines[line]
            percent = int(round(100.0 * covered / total)) if total else 0
            attributes["branch"] = "true"
            attributes["condition-coverage"] = \
                f"{percent}% ({covered}/{total})"
        ElementTree.SubElement(lines_element, "line", attributes)
    return element, (lines_covered, lines_valid,
                     branches_covered, branches_valid)


def cobertura_xml(coverage: CoverageCampaign, timestamp: int = 0) -> str:
    """Serialize one campaign's collectors as a Cobertura XML document."""
    totals = [0, 0, 0, 0]
    packages: Dict[str, List[ElementTree.Element]] = {}
    package_totals: Dict[str, List[int]] = {}
    for filename in sorted(coverage.collectors):
        collector = coverage.collectors[filename]
        element, counts = _class_element(filename, collector)
        package = (filename.replace("\\", "/").rsplit("/", 1)[0]
                   if "/" in filename.replace("\\", "/") else "yolo")
        packages.setdefault(package, []).append(element)
        entry = package_totals.setdefault(package, [0, 0, 0, 0])
        for index, value in enumerate(counts):
            entry[index] += value
            totals[index] += value

    root = ElementTree.Element("coverage", {
        "line-rate": _rate(totals[0], totals[1]),
        "branch-rate": _rate(totals[2], totals[3]),
        "lines-covered": str(totals[0]),
        "lines-valid": str(totals[1]),
        "branches-covered": str(totals[2]),
        "branches-valid": str(totals[3]),
        "complexity": "0",
        "version": f"repro-{COBERTURA_VERSION}",
        "timestamp": str(timestamp),
    })
    sources = ElementTree.SubElement(root, "sources")
    ElementTree.SubElement(sources, "source").text = "."
    packages_element = ElementTree.SubElement(root, "packages")
    for package in sorted(packages):
        entry = package_totals[package]
        package_element = ElementTree.SubElement(
            packages_element, "package", {
                "name": package,
                "line-rate": _rate(entry[0], entry[1]),
                "branch-rate": _rate(entry[2], entry[3]),
                "complexity": "0",
            })
        classes = ElementTree.SubElement(package_element, "classes")
        classes.extend(packages[package])

    body = ElementTree.tostring(root, encoding="unicode")
    return f"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n{body}\n"


class CoberturaReporter(Reporter):
    """Writes :func:`cobertura_xml` for the model's coverage campaign."""

    format = "cobertura"
    error_label = "Cobertura XML"

    def render(self, model: "ReportModel") -> str:
        if model.coverage is None:
            raise ReportError(
                "cannot write Cobertura XML: no coverage data collected")
        return cobertura_xml(model.coverage)

    def announce(self, destination: str) -> str:
        return f"Cobertura XML written to {destination}"
