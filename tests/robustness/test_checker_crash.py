"""Crash containment: a checker raising outside the ReproError
hierarchy degrades the run instead of aborting it."""

import pytest

from repro.checkers.base import Checker, CheckerReport, Finding, \
    run_checkers
from repro.core import AssessmentPipeline, PipelineConfig
from repro.errors import ComplianceError
from repro.lang import parse_translation_unit
from repro.rules import CHECKER_CRASH
from repro.store import ObjectStore
from repro.testing import Fault, FaultInjected, FaultPlan, FaultyChecker

from .conftest import assert_others_unchanged


def crashing_config(target_path, **kwargs):
    plan = FaultPlan([Fault("raise", site="check_unit", path=target_path)])
    return PipelineConfig(extra_checkers=(FaultyChecker(plan),), **kwargs)


class TestContainment:
    def test_serial_run_completes_degraded(self, corpus_sources,
                                           target_path, benign_result):
        result = AssessmentPipeline(
            crashing_config(target_path)).run(corpus_sources)
        assert result.degraded
        crash = result.crashes[0]
        assert crash.checker == "fault_injector"
        # Serial runs go through the fused engine too, so containment
        # is per unit: the crash names the file it happened on.
        assert (crash.stage, crash.path) == ("check_unit", target_path)
        assert "FaultInjected" in crash.exc_type
        assert crash.traceback  # the original traceback is preserved
        assert_others_unchanged(result, benign_result)

    def test_engine_thread_pool(self, corpus_sources, target_path,
                                benign_result):
        result = AssessmentPipeline(crashing_config(
            target_path, jobs=2)).run(corpus_sources)
        assert result.degraded
        crash = result.crashes[0]
        # Engine containment is per unit: the crash names the file.
        assert (crash.stage, crash.path) == ("check_unit", target_path)
        assert_others_unchanged(result, benign_result)

    def test_engine_process_pool(self, corpus_sources, target_path,
                                 benign_result):
        result = AssessmentPipeline(crashing_config(
            target_path, jobs=2, executor="process")).run(corpus_sources)
        assert result.degraded
        assert result.crashes[0].path == target_path
        assert_others_unchanged(result, benign_result)

    def test_crash_surfaces_as_internal_finding(self, corpus_sources,
                                                target_path):
        result = AssessmentPipeline(crashing_config(
            target_path, jobs=2)).run(corpus_sources)
        report = result.reports["fault_injector"]
        assert [f.rule for f in report.findings] == [CHECKER_CRASH]
        assert target_path in report.findings[0].message

    def test_degradation_flows_into_outputs(self, corpus_sources,
                                            target_path):
        from repro.core.markdown import render_markdown
        result = AssessmentPipeline(
            crashing_config(target_path)).run(corpus_sources)
        assert "DEGRADED RUN" in result.render_summary()
        document = result.to_dict()
        assert document["degraded"] is True
        assert document["degradations"][0]["checker"] == "fault_injector"
        markdown = render_markdown(result)
        assert "## Degradations" in markdown
        assert "fault_injector" in markdown


class TestStrictMode:
    def test_strict_serial_reraises(self, corpus_sources, target_path):
        with pytest.raises(FaultInjected):
            AssessmentPipeline(crashing_config(
                target_path, strict=True)).run(corpus_sources)

    def test_strict_thread_engine_reraises(self, corpus_sources,
                                           target_path):
        with pytest.raises(FaultInjected):
            AssessmentPipeline(crashing_config(
                target_path, strict=True, jobs=2)).run(corpus_sources)

    def test_strict_process_engine_reraises(self, corpus_sources,
                                            target_path):
        # The worker's exception abandons the chunk; the serial re-run
        # in the parent reproduces it with a real traceback.
        with pytest.raises(FaultInjected):
            AssessmentPipeline(crashing_config(
                target_path, strict=True, jobs=2,
                executor="process")).run(corpus_sources)


class _PerUnitBomb(Checker):
    """One finding per unit, except on ``target``, where it raises."""

    name = "per_unit_bomb"

    def __init__(self, target: str) -> None:
        self.target = target

    def unit_visitor(self, unit, report, sweep) -> None:
        def finish():
            if unit.filename == self.target:
                raise RuntimeError(f"cannot check {unit.filename}")
            report.emit(Finding(rule="test.unit", message="unit checked",
                                filename=unit.filename))
        sweep.at_end(finish)


class _FinalizeCrash(Checker):
    name = "finalize_crash"

    def check_unit(self, unit):
        return CheckerReport(checker=self.name)

    def finalize(self, report):
        raise ZeroDivisionError("ratio over empty denominator")


class _ReproRaiser(Checker):
    name = "repro_raiser"

    def check_unit(self, unit):
        raise ComplianceError("a real analysis error, not a crash")


class TestContainmentBoundaries:
    def test_finalize_crash_contained_in_engine(self, corpus_sources,
                                                tmp_path):
        # The cache forces the engine path even at jobs=1.
        result = AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)),
            extra_checkers=(_FinalizeCrash(),))).run(corpus_sources)
        assert result.degraded
        assert result.crashes[0].stage == "finalize"

    def test_repro_errors_are_not_contained(self, corpus_sources):
        # Expected analysis errors must keep their old propagation
        # semantics even in non-strict runs.
        with pytest.raises(ComplianceError):
            AssessmentPipeline(PipelineConfig(
                extra_checkers=(_ReproRaiser(),))).run(corpus_sources)

    def test_run_checkers_contains_and_counts(self):
        units = []  # no units needed: the finalize override crashes
        reports = run_checkers([_FinalizeCrash()], units)
        assert reports["finalize_crash"].crashes
        with pytest.raises(ZeroDivisionError):
            run_checkers([_FinalizeCrash()], units, strict=True)

    def test_run_checkers_contains_per_unit(self):
        sources = {path: "int f(int x) { return x; }\n"
                   for path in ("a.cc", "b.cc", "c.cc")}
        units = [parse_translation_unit(source, path)
                 for path, source in sorted(sources.items())]
        report = run_checkers([_PerUnitBomb("b.cc")],
                              units)["per_unit_bomb"]
        assert [(f.rule, f.filename) for f in report.findings] == [
            ("test.unit", "a.cc"), (CHECKER_CRASH, "b.cc"),
            ("test.unit", "c.cc")]
        assert [(crash.stage, crash.path) for crash in report.crashes] \
            == [("check_unit", "b.cc")]
        result = AssessmentPipeline(PipelineConfig(
            extra_checkers=(_PerUnitBomb("b.cc"),))).run(sources)
        assert result.reports["per_unit_bomb"] == report

    def test_crashed_bundles_never_cached(self, corpus_sources,
                                          target_path, tmp_path):
        import os
        import pickle
        cache = ObjectStore(str(tmp_path))
        result = AssessmentPipeline(crashing_config(
            target_path, cache=cache, jobs=2)).run(corpus_sources)
        assert result.degraded
        for directory, _, names in os.walk(str(tmp_path)):
            for name in names:
                with open(os.path.join(directory, name), "rb") as handle:
                    value = pickle.load(handle)
                if isinstance(value, dict):  # a checker bundle
                    for report in value.values():
                        assert not report.crashes
