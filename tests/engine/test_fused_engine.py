"""The fused single-sweep engine: one sweep, every checker, no crosstalk.

A checker's sweep visitor is its only analysis code; ``check_unit``
runs it on a sweep of its own.  These tests pin that checkers sharing
one sweep do not interfere (each report in the shared bundle equals
the checker's own ``check_unit``), that the public ``run_checkers`` API
equals the pipeline, the engine's crash containment, the fallback for
visitor-less checkers, and the function-line index backing
``enclosing_function_name``.
"""

from typing import Optional

import pytest

from repro.checkers.base import (
    Checker,
    CheckerReport,
    Finding,
    Severity,
    enclosing_function_name,
    run_checkers,
    split_checkers,
)
from repro.core import AssessmentPipeline, PipelineConfig
from repro.corpus import apollo_spec, generate_corpus
from repro.engine.driver import fused_unit_bundle
from repro.engine.index import FunctionLineIndex, function_line_index
from repro.lang.cppmodel import TranslationUnit, parse_translation_unit


@pytest.fixture(scope="module")
def corpus_sources():
    return generate_corpus(apollo_spec(scale=0.02)).sources()


@pytest.fixture(scope="module")
def units(corpus_sources):
    return [parse_translation_unit(source, path)
            for path, source in sorted(corpus_sources.items())]


def builtin_checkers():
    return AssessmentPipeline(PipelineConfig())._checkers()


class TestByteIdentical:
    def test_shared_bundle_equals_own_check_unit(self, units):
        per_unit, _ = split_checkers(builtin_checkers())
        alone, _ = split_checkers(builtin_checkers())
        for unit in units:
            bundle = fused_unit_bundle(per_unit, unit)
            assert list(bundle) == [checker.name for checker in per_unit]
            for checker in alone:
                assert bundle[checker.name] == checker.check_unit(unit), \
                    f"{unit.filename}: {checker.name}"

    def test_pipeline_matches_run_checkers(self, corpus_sources, units):
        result = AssessmentPipeline(PipelineConfig()).run(corpus_sources)
        reference = run_checkers(builtin_checkers(), units)
        assert set(result.reports) == set(reference)
        for name, report in reference.items():
            assert result.reports[name] == report, name

    def test_every_builtin_per_unit_checker_registers(self):
        checkers = builtin_checkers()
        per_unit, project = split_checkers(checkers)
        for checker in per_unit:
            assert type(checker).unit_visitor \
                is not Checker.unit_visitor, checker.name
        for checker in checkers:
            # The visitor is the only per-unit implementation.
            assert type(checker).check_unit is Checker.check_unit, \
                checker.name
        assert [checker.name for checker in project] == ["architecture"]


class _VisitorLess(Checker):
    """An external-style checker that never learned about sweeps."""

    name = "visitor_less"

    def check_unit(self, unit: TranslationUnit) -> CheckerReport:
        report = self.new_report((unit,))
        report.stats["functions_seen"] = len(unit.functions)
        return report


class _SweepCrasher(Checker):
    """Registers a token handler that explodes on the Nth event."""

    name = "sweep_crasher"

    def __init__(self, fuse: int = 3) -> None:
        self.fuse = fuse
        self._seen = 0

    def check_unit(self, unit: TranslationUnit) -> CheckerReport:
        raise AssertionError("engine should use the visitor")

    def unit_visitor(self, unit, report, sweep) -> None:
        def on_punct(index, token):
            self._seen += 1
            if self._seen >= self.fuse:
                raise RuntimeError("boom in the shared sweep")
            report.emit(Finding(
                rule="internal.checker_crash", message="pre-crash noise",
                filename=unit.filename, line=token.line,
                severity=Severity.INFO))
        sweep.on_text(";", on_punct)


class _NoAnalysis(Checker):
    """Overrides neither ``unit_visitor`` nor ``check_unit``."""

    name = "no_analysis"


class _VisitorOnly(Checker):
    """A visitor that, like every builtin, returns nothing."""

    name = "visitor_only"

    def unit_visitor(self, unit, report, sweep) -> None:
        sweep.at_end(lambda: report.emit(Finding(
            rule="test.seen", message="unit seen",
            filename=unit.filename)))


class TestFallbackAndContainment:
    def test_visitor_return_value_is_not_consulted(self, units):
        unit = units[0]
        bundle = fused_unit_bundle([_VisitorOnly()], unit)
        assert [f.rule for f in bundle["visitor_only"].findings] == \
            ["test.seen"]
        assert bundle["visitor_only"] == _VisitorOnly().check_unit(unit)

    def test_checker_without_analysis_is_contained(self, units):
        unit = units[0]
        report = fused_unit_bundle([_NoAnalysis()], unit)["no_analysis"]
        assert [(crash.stage, crash.exc_type, crash.path)
                for crash in report.crashes] == \
            [("check_unit", "NotImplementedError", unit.filename)]
        assert [f.rule for f in report.findings] == \
            ["internal.checker_crash"]
        assert run_checkers([_NoAnalysis()], [unit])["no_analysis"] == \
            report

    def test_checker_without_analysis_raises_under_strict(self, units):
        with pytest.raises(NotImplementedError):
            fused_unit_bundle([_NoAnalysis()], units[0], strict=True)
        with pytest.raises(NotImplementedError):
            run_checkers([_NoAnalysis()], units[:1], strict=True)

    def test_visitorless_checker_takes_legacy_path(self, units):
        unit = units[0]
        bundle = fused_unit_bundle([_VisitorLess()], unit)
        assert bundle["visitor_less"] == _VisitorLess().check_unit(unit)

    def test_crash_is_contained_and_attributed(self, corpus_sources,
                                               units):
        per_unit, _ = split_checkers(builtin_checkers())
        unit = units[0]
        clean = fused_unit_bundle(per_unit, unit)
        bundle = fused_unit_bundle(per_unit + [_SweepCrasher()], unit)
        crashed = bundle["sweep_crasher"]
        assert crashed.crashes
        assert crashed.crashes[0].stage == "check_unit"
        assert crashed.crashes[0].path == unit.filename
        # No partial emissions survive from the crashed checker, and the
        # re-swept survivors are untouched by its earlier handlers.
        assert [f.rule for f in crashed.findings] == \
            ["internal.checker_crash"]
        for name, report in clean.items():
            assert bundle[name] == report, name

    def test_strict_reraises_sweep_crash(self, corpus_sources, units):
        per_unit, _ = split_checkers(builtin_checkers())
        with pytest.raises(RuntimeError):
            fused_unit_bundle(per_unit + [_SweepCrasher()], units[0],
                              strict=True)


def _legacy_enclosing(unit: TranslationUnit, line: int) -> str:
    """The pre-index implementation, verbatim, as the oracle."""
    best: Optional[str] = None
    best_span = 0
    for function in unit.functions:
        if function.start_line <= line <= function.end_line:
            span = function.end_line - function.start_line
            if best is None or span < best_span:
                best = function.qualified_name
                best_span = span
    return best or ""


class TestFunctionLineIndex:
    def test_matches_legacy_scan_on_corpus(self, units):
        for unit in units[:12]:
            top = max((function.end_line for function in unit.functions),
                      default=0)
            for line in range(0, top + 3):
                assert enclosing_function_name(unit, line) == \
                    _legacy_enclosing(unit, line), \
                    f"{unit.filename}:{line}"

    def test_memoized_per_unit(self, units):
        unit = units[0]
        assert function_line_index(unit) is function_line_index(unit)

    def test_empty_unit(self):
        unit = parse_translation_unit("int g_x = 1;", "empty.cc")
        index = FunctionLineIndex(unit.functions)
        assert index.lookup(1) == ""
        assert index.lookup(-5) == ""
        assert index.lookup(10_000) == ""
