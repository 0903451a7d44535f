"""Reuse of the project-level stages across runs (``run(previous=...)``).

A run whose per-file inputs, checkers and project-level config equal a
previous result's shares that result's modules, reports, evidence,
tables and observations; any difference in those inputs recomputes.
Either way the result equals a fresh, cold one.
"""

import pytest

from repro.checkers.unitdesign import UnitDesignChecker
from repro.core import AssessmentPipeline, MemoryCache, PipelineConfig
from repro.corpus import apollo_spec, generate_corpus
from repro.iso26262.asil import Asil
from repro.iso26262.compliance import ComplianceThresholds
from repro.obs import Tracer
from repro.store import STAGE_NAMES
from repro.rules import RuleProfile
from repro.testing import Fault, FaultPlan

from .test_parallel_cache import assert_identical


@pytest.fixture(scope="module")
def corpus_sources():
    return generate_corpus(apollo_spec(scale=0.02)).sources()


def run(sources, previous=None, **config):
    return AssessmentPipeline(PipelineConfig(**config)).run(
        sources, previous=previous)


class TestReuse:
    def test_unchanged_inputs_share_the_project_stages(self,
                                                       corpus_sources):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        second = run(corpus_sources, previous=first, cache=cache)
        assert second.project_reused and not first.project_reused
        assert second.reports is first.reports
        assert second.tables is first.tables
        assert second.signature == first.signature
        assert_identical(second, run(corpus_sources))

    def test_per_file_lookups_still_run(self, corpus_sources):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        hits = cache.hits
        run(corpus_sources, previous=first, cache=cache)
        assert cache.hits - hits == cache.puts
        assert cache.misses == cache.puts

    def test_edited_source_recomputes(self, corpus_sources):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        edited = dict(corpus_sources)
        path = sorted(edited)[0]
        edited[path] += "\nint g_added_global = 0;\n"
        second = run(edited, previous=first, cache=cache)
        assert not second.project_reused
        assert_identical(second, run(edited))

    def test_without_a_cache_nothing_is_reused(self, corpus_sources):
        first = run(corpus_sources)
        assert first.signature is None
        assert not run(corpus_sources, previous=first).project_reused

    @pytest.mark.parametrize("change", [
        {"target_asil": Asil.A},
        {"thresholds": ComplianceThresholds(
            max_moderate_complexity_functions=10 ** 6,
            max_explicit_casts=10 ** 6, max_mutable_globals=10 ** 6)},
    ], ids=["target_asil", "thresholds"])
    def test_changed_verdict_config_recomputes(self, corpus_sources,
                                               change):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        second = run(corpus_sources, previous=first, cache=cache,
                     **change)
        assert not second.project_reused
        expected = run(corpus_sources, **change)
        assert second.to_dict() == expected.to_dict()
        assert expected.to_dict()["tables"] != first.to_dict()["tables"]

    def test_changed_rule_profile_recomputes(self, corpus_sources):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        profile = RuleProfile(disable=("UD9.*",))
        second = run(corpus_sources, previous=first, cache=cache,
                     rules=profile)
        assert not second.project_reused
        assert_identical(second, run(corpus_sources, rules=profile))

    def test_other_module_mapping_recomputes(self, corpus_sources):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        second = run(corpus_sources, previous=first, cache=cache,
                     module_of=lambda path: "all")
        assert not second.project_reused
        assert [module.name for module in second.modules] == ["all"]


class TestDegradedPrevious:
    def test_project_level_crash_is_never_replayed(self, corpus_sources,
                                                   monkeypatch):
        """A checker crashing in its project-level finish leaves every
        file key intact; the degraded result must still not be shared."""
        plan = FaultPlan([Fault("raise", site="finish")])
        finish = UnitDesignChecker.finish_from_units

        def faulty_finish(self, units, reports):
            plan.fire("finish")
            return finish(self, units, reports)

        monkeypatch.setattr(UnitDesignChecker, "finish_from_units",
                            faulty_finish)
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        assert first.degraded and first.signature is not None
        second = run(corpus_sources, previous=first, cache=cache)
        assert not second.project_reused and not second.degraded
        assert_identical(second, run(corpus_sources))


class TestObservability:
    def test_reuse_keeps_spans_and_counters(self, corpus_sources):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        tracer = Tracer()
        second = run(corpus_sources, previous=first, cache=cache,
                     tracer=tracer)
        assert second.project_reused
        assert tracer.metrics.counter("pipeline.project_reused").value \
            == 1
        for stage in STAGE_NAMES:
            assert tracer.find(stage), stage
        assert tracer.find("metrics")[0].attributes["reused"] == 1
        for name, report in first.reports.items():
            assert tracer.metrics.counter(
                "checker.findings", checker=name).value == \
                report.finding_count

    def test_recomputed_run_counts_no_reuse(self, corpus_sources):
        tracer = Tracer()
        run(corpus_sources, cache=MemoryCache(), tracer=tracer)
        assert tracer.metrics.counter("pipeline.project_reused").value \
            == 0
