"""Part-wise folding of the project-level stages (``run(previous=...)``).

An edit rebuilds each project part only from the files that changed;
everything else is the previous result's own object, which the fold
never mutates.  The result always equals a cold one.
"""

import copy

import pytest

from repro.checkers import unitdesign
from repro.checkers.architecture import ArchitectureChecker, module_from_path
from repro.core import AssessmentPipeline, MemoryCache, PipelineConfig
from repro.corpus import apollo_spec, generate_corpus
from repro.metrics import complexity
from repro.obs import Tracer
from repro.rules import DeviationIndex

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
        result.observations, parts.files, parts.bundles,
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
                      if module.name == module_from_path(path))
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


class TestOneFileEditWork:
    """A one-file edit does project-level work for that file only."""

    def test_comment_edit_touches_only_the_edited_file(
            self, corpus_sources, monkeypatch):
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        path = next(path for path, unit in first.parts.units.items()
                    if unit.functions)
        sources = dict(corpus_sources)
        sources[path] += "\n// a comment\n"

        records = []
        record_type = complexity.FunctionComplexity

        def counted_record(*args, **kwargs):
            record = record_type(*args, **kwargs)
            records.append(record.filename)
            return record

        partials = []
        unit_partial = ArchitectureChecker._unit_partial

        def counted_partial(self, unit):
            partials.append(unit.filename)
            return unit_partial(self, unit)

        touched = []
        extend, truth = DeviationIndex.extend, DeviationIndex.__bool__

        def counted_extend(self, other):
            touched.append(id(other))
            return extend(self, other)

        def counted_truth(self):
            touched.append(id(self))
            return truth(self)

        monkeypatch.setattr(complexity, "FunctionComplexity", counted_record)
        monkeypatch.setattr(ArchitectureChecker, "_unit_partial",
                            counted_partial)
        monkeypatch.setattr(DeviationIndex, "extend", counted_extend)
        monkeypatch.setattr(DeviationIndex, "__bool__", counted_truth)
        second = run(sources, previous=first, cache=cache)

        assert records and set(records) == {path}
        assert partials == [path]
        unchanged = {id(unit.deviations)
                     for name, unit in first.parts.units.items()
                     if name != path}
        assert touched and not unchanged & set(touched)
        monkeypatch.undo()
        assert_identical(second, run(sources))

    def test_module_complexity_figures_follow_their_maximum(
            self, corpus_sources):
        """Adding, then removing, a module's most complex function moves
        the folded figures both ways, as a cold run reads them."""
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        branches = " ".join(f"if (a > {k}) {{ a++; }}" for k in range(150))
        complex_, path = edited(
            corpus_sources, f"\nint tangled(int a) {{ {branches} }}\n")
        second = run(complex_, previous=first, cache=cache)
        evidence = second.evidence.get("complexity").stats
        assert evidence["max_complexity"] == 151
        assert evidence["moderate_or_higher"] == \
            first.evidence.get("complexity").stats["moderate_or_higher"] + 1
        assert_identical(second, run(complex_))
        plain = dict(complex_)
        plain[path] = corpus_sources[path] + "\n"
        third = run(plain, previous=second, cache=cache)
        assert third.modules == run(plain).modules
        assert third.evidence.get("complexity") == \
            first.evidence.get("complexity")
        assert_identical(third, run(plain))

    def test_deviated_architecture_findings_fold(self, corpus_sources):
        """A file's suppressed AR6 finding is cut out and put back when
        the file is edited again."""
        cache = MemoryCache()
        first = run(corpus_sources, cache=cache)
        spawning, path = edited(
            corpus_sources, "\nint spawn(int a) { a = pthread_create(a); "
            "return a; }  // DEVIATION(AR6.scheduling: reviewed)\n")
        second = run(spawning, previous=first, cache=cache)
        suppressed = second.reports["architecture"].suppressed
        assert [(f.rule, f.filename) for f in suppressed] == \
            [("AR6.scheduling", path)]
        again, _ = edited(spawning, "\n// a comment\n")
        third = run(again, previous=second, cache=cache)
        cold = run(again)
        for result, reference in ((second, run(spawning)), (third, cold)):
            assert result.reports["architecture"].suppressed == \
                reference.reports["architecture"].suppressed
            assert_identical(result, reference)
