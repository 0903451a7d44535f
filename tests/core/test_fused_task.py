"""The fused per-file task: parse, summarize and sweep in one pool task.

Every file the cache does not settle goes through one
``run_parse_task`` fan-out, which parses, summarizes and sweeps it and
drops its full unit right after the sweep.  Pinned here: no token
stream crosses the process boundary, there is one fan-out per cold run
and none on a warm store, and every job count × cache temperature
produces the same result digest and the same per-stage cache counts.
"""

import io
import os
import pickle

import pytest

from repro.core import AssessmentPipeline, PipelineConfig, parallel, pipeline
from repro.core.parallel import ParseOutcome, worker_count
from repro.corpus import apollo_spec, generate_corpus
from repro.errors import ParseError
from repro.lang.cppmodel import TranslationUnit
from repro.lang.tokens import Token
from repro.obs import Tracer
from repro.rules import RuleProfile
from repro.store import Store

from .test_unit_summaries import digest

#: The one file the patched parser rejects (a ``SourceError``).
POISON = "broken/poison.cc"

#: ``(label, jobs)`` of every execution shape under test.
SHAPES = [("serial", 1), ("process2", 2), ("process4", 4)]

#: A profile that changes every checker-bundle key, not a parse key.
PROFILE = RuleProfile(disable=("SG.*",))


@pytest.fixture(scope="module")
def corpus_sources():
    return generate_corpus(apollo_spec(scale=0.02)).sources()


@pytest.fixture
def poisoned(corpus_sources, monkeypatch):
    """The corpus plus one file the parser rejects.

    The parser binding the task calls is patched before any pool
    forks, so process workers inherit the patch.
    """
    real = parallel.parse_translation_unit

    def flaky(source, path):
        if path == POISON:
            raise ParseError("boom", path, 1, 1)
        return real(source, path)

    monkeypatch.setattr(parallel, "parse_translation_unit", flaky)
    sources = dict(corpus_sources)
    sources[POISON] = "int x;\n"
    return sources


@pytest.fixture
def shipped(monkeypatch):
    """Every ``(function, tasks, results)`` the pipeline fans out."""
    calls = []
    real = pipeline.run_tasks

    def recording(function, tasks, **kwargs):
        results = real(function, tasks, **kwargs)
        calls.append((function, tasks, results))
        return results

    monkeypatch.setattr(pipeline, "run_tasks", recording)
    return calls


class _TypeLog(pickle.Pickler):
    """A pickler that records the type of every object it serializes."""

    def __init__(self):
        super().__init__(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
        self.types = set()

    def persistent_id(self, obj):
        self.types.add(type(obj))
        return None


def pickled_types(value) -> set:
    log = _TypeLog()
    log.dump(value)
    return log.types


class TestPoolPayloads:
    @pytest.mark.parametrize("store", [False, True],
                             ids=["no-cache", "cold-store"])
    def test_payloads_are_token_free(self, corpus_sources, shipped,
                                     tmp_path, store):
        cache = (Store(str(tmp_path / "store")).object_store()
                 if store else None)
        AssessmentPipeline(PipelineConfig(
            jobs=2, cache=cache)).run(corpus_sources)
        assert len(shipped) == 1
        function, tasks, results = shipped[0]
        assert function is parallel.run_parse_task
        types = pickled_types(tasks) | pickled_types(results)
        assert ParseOutcome in types  # the walk sees into the payloads
        assert TranslationUnit not in types
        assert Token not in types

    def test_one_fanout_cold_none_warm(self, corpus_sources, shipped,
                                       tmp_path):
        root = str(tmp_path / "store")
        for expected in (1, 0):
            shipped.clear()
            AssessmentPipeline(PipelineConfig(
                jobs=2,
                cache=Store(root).object_store())).run(corpus_sources)
            assert len(shipped) == expected


def run(sources, jobs, cache=None, rules=None):
    tracer = Tracer()
    result = AssessmentPipeline(PipelineConfig(
        jobs=jobs, cache=cache, rules=rules,
        tracer=tracer)).run(sources)
    return result, tracer.metrics


def stage_counts(metrics, cache):
    """Per-stage lookups, and the store's own hit/miss/put totals."""
    return {
        "parse": (metrics.counter_value("cache.hits", stage="parse"),
                  metrics.counter_value("cache.misses", stage="parse")),
        "check": (metrics.counter_value("cache.hits", stage="check"),
                  metrics.counter_value("cache.misses", stage="check")),
        "store": (cache.hits, cache.misses, cache.puts),
        "reparsed": metrics.counter_value("pipeline.units_reparsed"),
    }


class TestEquivalenceMatrix:
    """Job count × cache temperature, on a corpus with one unparseable
    file under ``skip_unparseable``.

    Files ``F`` and parseable units ``P = F - 1``: a cold store misses
    every parse entry and every parseable file's checker entry and
    writes both (the parse failure is cached too); a warm one hits
    them all; a changed profile hits every parse entry, misses and
    re-sweeps every checker entry.
    """

    @pytest.fixture
    def references(self, poisoned):
        return (digest(run(poisoned, 1)[0]),
                digest(run(poisoned, 1, rules=PROFILE)[0]))

    @pytest.mark.parametrize("label, jobs", SHAPES,
                             ids=[shape[0] for shape in SHAPES])
    def test_digests_and_counts(self, poisoned, references, tmp_path,
                                label, jobs):
        plain, profiled = references
        files = len(poisoned)
        units = files - 1

        result, _ = run(poisoned, jobs)
        assert result.unparseable == [POISON]
        assert digest(result) == plain

        root = str(tmp_path / "store")
        cache = Store(root).object_store()
        result, metrics = run(poisoned, jobs, cache)
        assert digest(result) == plain
        assert stage_counts(metrics, cache) == {
            "parse": (0, files), "check": (0, units),
            "store": (0, files + units, files + units), "reparsed": 0}

        cache = Store(root).object_store()
        result, metrics = run(poisoned, jobs, cache)
        assert digest(result) == plain
        assert stage_counts(metrics, cache) == {
            "parse": (files, 0), "check": (units, 0),
            "store": (files + units, 0, 0), "reparsed": 0}

        cache = Store(root).object_store()
        result, metrics = run(poisoned, jobs, cache, rules=PROFILE)
        assert digest(result) == profiled
        assert stage_counts(metrics, cache) == {
            "parse": (files, 0), "check": (0, units),
            "store": (files, units, units), "reparsed": units}
        # the parent wrote every entry, pooled or serial: no shard
        # directory appears beside objects/
        assert [name for name in os.listdir(root)
                if name.startswith("shard-")] == []


class TestWorkerCount:
    def test_zero_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert worker_count(0) == 1

    def test_zero_without_affinity_counts_cpus(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert worker_count(0) == 3
