"""Part-wise folding of the project-level stages (``run(previous=...)``).

An edit rebuilds each project part only from the files that changed;
everything else is the previous result's own object, which the fold
never mutates.  The result always equals a cold one.
"""

import copy

import pytest

from repro.checkers import unitdesign
from repro.core import AssessmentPipeline, MemoryCache, PipelineConfig
from repro.corpus import apollo_spec, generate_corpus
from repro.obs import Tracer

from .test_parallel_cache import assert_identical


@pytest.fixture(scope="module")
def corpus_sources():
    return generate_corpus(apollo_spec(scale=0.02)).sources()


def run(sources, previous=None, **config):
    return AssessmentPipeline(PipelineConfig(**config)).run(
        sources, previous=previous)


def edited(sources, text, index=0):
    changed = dict(sources)
    path = sorted(changed)[index]
    changed[path] += text
    return changed, path


def snapshot(result):
    """Everything a fold reads off a previous result, by value."""
    parts = result.parts
    return copy.deepcopy((
        result.modules,
        [result.evidence.get(key) for key in result.evidence.keys()],
        result.tables,
        result.observations, parts.files, parts.module_of, parts.bundles,
        [(unit.filename, unit.functions, unit.classes, unit.line_count)
         for unit in parts.units.values()],
        {name: (report.findings, report.suppressed, report.stats,
                report.partials)
         for name, report in result.reports.items()}))


class TestFold:
    def test_folding_leaves_previous_unmutated(self, corpus_sources):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        before = snapshot(first)
        sources, _ = edited(corpus_sources,
                            "\nint fresh(int a) { return fresh(a); }\n")
        second = run(sources, previous=first, cache=cache)
        assert snapshot(first) == before
        assert_identical(second, run(sources))

    def test_untouched_parts_are_shared(self, corpus_sources):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        sources, path = edited(corpus_sources, "\n// a comment\n")
        second = run(sources, previous=first, cache=cache)
        module = next(module for module in second.modules
                      if any(unit == path
                             for unit in second.parts.units
                             if second.parts.module_of[unit]
                             == module.name))
        for old, new in zip(first.modules, second.modules):
            assert (old is new) == (new is not module)
        assert not second.project_reused
        assert second.parts.reused == len(first.modules) - 1
        assert_identical(second, run(sources))

    def test_counters_name_what_moved(self, corpus_sources):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        sources, _ = edited(corpus_sources, "\n// a comment\n")
        tracer = Tracer()
        second = run(sources, previous=first, cache=cache, tracer=tracer)
        value = tracer.metrics.counter_value
        assert value("pipeline.files_refolded") == 1
        assert value("pipeline.modules_remeasured") == 1
        assert value("pipeline.modules_measured") == 1
        assert value("pipeline.parts_reused") == second.parts.reused
        assert value("pipeline.parts_recomputed") == \
            second.parts.recomputed
        # every checker report is refolded, plus the module and the
        # verdict stage
        assert second.parts.recomputed == len(second.reports) + 2

    def test_recursion_graph_is_rebuilt_only_when_calls_change(
            self, corpus_sources, monkeypatch):
        calls = []
        tarjan = unitdesign._functions_on_cycles

        def counted(graph):
            calls.append(1)
            return tarjan(graph)

        monkeypatch.setattr(unitdesign, "_functions_on_cycles", counted)
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        assert len(calls) == 1
        moved = dict(corpus_sources)
        path = sorted(moved)[1]
        moved[path] = "\n\n" + moved[path]
        second = run(moved, previous=first, cache=cache)
        assert len(calls) == 1
        recursive, _ = edited(moved,
                              "\nint loop(int a) { return loop(a); }\n")
        third = run(recursive, previous=second, cache=cache)
        assert len(calls) == 2
        assert_identical(second, run(moved))
        assert any(finding.rule == "UD10.recursion"
                   and finding.function == "loop"
                   for finding in third.reports["unit_design"].findings)
        assert_identical(third, run(recursive))

    def test_added_and_removed_files_fold(self, corpus_sources):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        sources = dict(corpus_sources)
        del sources[sorted(sources)[2]]
        sources["brand_new/unit.cc"] = "int lonely(void) { return 1; }\n"
        second = run(sources, previous=first, cache=cache)
        assert "brand_new" in [module.name for module in second.modules]
        assert_identical(second, run(sources))
