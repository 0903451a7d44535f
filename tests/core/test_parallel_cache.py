"""Tests for the parallel + incremental execution engine.

The engine's contract is exact: any combination of ``jobs`` (worker
processes) and cache temperature must produce an assessment
identical to the serial, cold-cache run.  These tests pin that down on
the synthetic Apollo corpus, plus the cache and pool primitives.
"""

import pickle
from dataclasses import replace

import pytest

from repro.core import (
    AssessmentPipeline,
    CACHE_MISS,
    PipelineConfig,
    chunk_evenly,
    worker_count,
)
from repro.core.cache import CHECK_TAG, PARSE_TAG
from repro.core.cli import main
from repro.checkers.base import Checker, split_checkers
from repro.checkers.style import StyleChecker, StyleConfig
from repro.corpus import apollo_spec, generate_corpus
from repro.errors import ConfigError
from repro.obs import Tracer
from repro.store import ObjectStore, RunHistory


@pytest.fixture(scope="module")
def corpus_sources():
    return generate_corpus(apollo_spec(scale=0.02)).sources()


@pytest.fixture(scope="module")
def serial_result(corpus_sources):
    """The reference: serial, cold-cache assessment."""
    return AssessmentPipeline(PipelineConfig()).run(corpus_sources)


def assert_identical(result, reference):
    """Equality down to individual findings and stats, not just totals."""
    assert result.to_dict() == reference.to_dict()
    assert list(result.reports) == list(reference.reports)
    for name, report in reference.reports.items():
        assert result.reports[name].stats == report.stats, name
        assert [f.located() for f in result.reports[name].findings] == \
            [f.located() for f in report.findings], name
    assert result.unparseable == reference.unparseable


class TestDeterminism:
    def test_process_pool_jobs_2(self, corpus_sources, serial_result):
        result = AssessmentPipeline(
            PipelineConfig(jobs=2)).run(corpus_sources)
        assert_identical(result, serial_result)

    def test_process_pool_jobs_4(self, corpus_sources, serial_result):
        result = AssessmentPipeline(
            PipelineConfig(jobs=4)).run(corpus_sources)
        assert_identical(result, serial_result)

    def test_jobs_zero_means_all_cpus(self, corpus_sources, serial_result):
        result = AssessmentPipeline(
            PipelineConfig(jobs=0)).run(corpus_sources)
        assert_identical(result, serial_result)

    def test_cold_then_warm_cache(self, tmp_path, corpus_sources,
                                  serial_result):
        cold_cache = ObjectStore(str(tmp_path))
        cold = AssessmentPipeline(
            PipelineConfig(cache=cold_cache)).run(corpus_sources)
        assert_identical(cold, serial_result)
        assert cold_cache.hits == 0
        assert cold_cache.misses == 2 * len(corpus_sources)

        warm_cache = ObjectStore(str(tmp_path))
        warm = AssessmentPipeline(
            PipelineConfig(cache=warm_cache)).run(corpus_sources)
        assert_identical(warm, serial_result)
        assert warm_cache.misses == 0
        assert warm_cache.hits == 2 * len(corpus_sources)

    def test_warm_cache_with_parallel_jobs(self, tmp_path, corpus_sources,
                                           serial_result):
        AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)))).run(corpus_sources)
        result = AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)),
            jobs=3)).run(corpus_sources)
        assert_identical(result, serial_result)

    def test_changed_file_invalidates_only_itself(self, tmp_path,
                                                  corpus_sources):
        sources = dict(corpus_sources)
        AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)))).run(sources)
        path = sorted(sources)[0]
        sources[path] = sources[path] + "\nint appended_global;\n"
        cache = ObjectStore(str(tmp_path))
        result = AssessmentPipeline(
            PipelineConfig(cache=cache)).run(sources)
        # one parse miss + one checker-bundle miss; everything else hits
        assert cache.misses == 2
        assert cache.hits == 2 * (len(sources) - 1)
        reference = AssessmentPipeline(PipelineConfig()).run(sources)
        assert_identical(result, reference)


class TestConfigValidation:
    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigError):
            AssessmentPipeline(PipelineConfig(jobs=-1))

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"),
                                         0, -1])
    def test_bad_task_timeout_rejected_at_construction(self, timeout):
        with pytest.raises(ConfigError, match="task_timeout"):
            PipelineConfig(task_timeout=timeout)

    @pytest.mark.parametrize("spec", ["3/2", "0/2", "x/2", "2", "1/2/3"])
    def test_bad_shard_rejected_at_construction(self, spec):
        with pytest.raises(ConfigError, match="shard"):
            PipelineConfig(shard=spec)

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError, match="jobs"):
            replace(PipelineConfig(), jobs=-2)

    def test_unknown_executor_rejected(self):
        for executor in ("fiber", "thread"):
            with pytest.raises(ConfigError, match="worker processes"):
                AssessmentPipeline(PipelineConfig(executor=executor))

    def test_worker_count_resolution(self):
        assert worker_count(3) == 3
        assert worker_count(0) >= 1


class TestChunking:
    def test_concatenation_preserves_order(self):
        items = list(range(17))
        chunks = chunk_evenly(items, 4)
        assert [x for chunk in chunks for x in chunk] == items
        assert len(chunks) == 4
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1

    def test_more_chunks_than_items(self):
        assert chunk_evenly([1, 2], 8) == [[1], [2]]

    def test_empty(self):
        assert chunk_evenly([], 4) == []

    def test_bad_chunk_count(self):
        with pytest.raises(ConfigError):
            chunk_evenly([1], 0)


class TestObjectStoreCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ObjectStore(str(tmp_path))
        key = cache.key_for(PARSE_TAG, "a.cc", "int x;\n")
        assert cache.get(key) is CACHE_MISS
        assert cache.put(key, {"value": [1, 2, 3]})
        assert cache.get(key) == {"value": [1, 2, 3]}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_key_depends_on_every_part(self):
        base = ObjectStore.key_for(PARSE_TAG, "a.cc", "int x;\n")
        assert ObjectStore.key_for(PARSE_TAG, "b.cc", "int x;\n") != base
        assert ObjectStore.key_for(PARSE_TAG, "a.cc", "int y;\n") != base
        assert ObjectStore.key_for(CHECK_TAG, "a.cc", "int x;\n") != base
        assert ObjectStore.key_for(PARSE_TAG, "a.cc", "int x;\n",
                                   "style:2") != base

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ObjectStore(str(tmp_path))
        key = cache.key_for(PARSE_TAG, "a.cc", "int x;\n")
        cache.put(key, "fine")
        entry = tmp_path / key[:2] / (key + ".pkl")
        entry.write_bytes(b"not a pickle")
        assert cache.get(key) is CACHE_MISS

    def test_unwritable_root_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cache = ObjectStore(str(blocker))
        key = cache.key_for(PARSE_TAG, "a.cc", "int x;\n")
        assert not cache.put(key, "value")
        assert cache.get(key) is CACHE_MISS

    def test_unwritable_cache_never_fails_assessment(self, tmp_path,
                                                     corpus_sources,
                                                     serial_result):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        result = AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(blocker)))).run(corpus_sources)
        assert_identical(result, serial_result)


class TestCheckerProtocol:
    def test_split_is_exact(self):
        pipeline = AssessmentPipeline()
        checkers = pipeline._checkers()
        per_unit, project = split_checkers(checkers)
        # unit_design distributes since it grew finish_from_units: its
        # per-unit portion rides the bundle, the recursion pass runs on
        # the merged result.
        assert {c.name for c in project} == {"architecture"}
        assert {c.name for c in per_unit} == {
            "language_subset", "casts", "defensive", "globals",
            "naming", "style", "gpu_subset", "unit_design"}

    def test_fingerprint_covers_config(self):
        default = StyleChecker().fingerprint()
        tightened = StyleChecker(
            StyleConfig(max_line_length=100)).fingerprint()
        assert default != tightened
        assert Checker.version in default


class TestFingerprintInvalidation:
    """A profile (or version bump) must invalidate exactly the entries
    of the checkers it affects — and an identical profile must hit."""

    def test_profile_changes_affected_fingerprint_only(self):
        from repro.rules import RuleProfile
        style = StyleChecker()
        globals_default = \
            AssessmentPipeline()._checkers()[3].fingerprint()
        default = style.fingerprint()
        style.profile = RuleProfile(disable=("SG.*",))
        assert style.fingerprint() != default
        # the same profile leaves checkers without SG rules untouched
        checkers = AssessmentPipeline(PipelineConfig(
            rules=RuleProfile(disable=("SG.*",))))._checkers()
        by_name = {checker.name: checker for checker in checkers}
        assert by_name["globals"].fingerprint() == globals_default
        assert by_name["style"].fingerprint() == style.fingerprint()

    def test_version_bump_changes_fingerprint(self):
        style = StyleChecker()
        default = style.fingerprint()
        style.version = "999-test"
        assert style.fingerprint() != default
        assert "999-test" in style.fingerprint()

    def test_profile_invalidates_affected_bundles_only(self, tmp_path,
                                                       corpus_sources):
        from repro.rules import RuleProfile
        AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)))).run(corpus_sources)
        files = len(corpus_sources)

        # A profile touching a per-unit checker's rules: parse entries
        # hit, every checker bundle misses (the bundle key joins all
        # per-unit fingerprints).
        cache = ObjectStore(str(tmp_path))
        AssessmentPipeline(PipelineConfig(
            cache=cache,
            rules=RuleProfile(disable=("SG.*",)))).run(corpus_sources)
        assert cache.hits == files  # parse only
        assert cache.misses == files  # every checker bundle

        # Re-running with the identical profile hits everything.
        rerun = ObjectStore(str(tmp_path))
        AssessmentPipeline(PipelineConfig(
            cache=rerun,
            rules=RuleProfile(disable=("SG.*",)))).run(corpus_sources)
        assert rerun.misses == 0
        assert rerun.hits == 2 * files

    def test_project_only_profile_keeps_bundles(self, tmp_path,
                                                corpus_sources):
        from repro.rules import RuleProfile
        AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)))).run(corpus_sources)
        # AR rules belong to the architecture checker, which is
        # project-level: per-unit bundles stay valid.
        cache = ObjectStore(str(tmp_path))
        AssessmentPipeline(PipelineConfig(
            cache=cache,
            rules=RuleProfile(disable=("AR2.*",)))).run(corpus_sources)
        assert cache.misses == 0
        assert cache.hits == 2 * len(corpus_sources)

    def test_profiled_cached_run_matches_uncached(self, tmp_path,
                                                  corpus_sources):
        from repro.rules import RuleProfile
        profile = RuleProfile(disable=("SG.*", "GV.*"))
        reference = AssessmentPipeline(
            PipelineConfig(rules=profile)).run(corpus_sources)
        AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)),
            rules=profile)).run(corpus_sources)
        warm = AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)), jobs=3,
            rules=profile)).run(corpus_sources)
        assert_identical(warm, reference)
        assert warm.reports["style"].finding_count == 0
        assert warm.reports["globals"].finding_count == 0


class TestParallelTelemetry:
    def test_worker_spans_and_cache_counters(self, tmp_path,
                                             corpus_sources):
        AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)))).run(corpus_sources)
        tracer = Tracer()
        AssessmentPipeline(PipelineConfig(
            tracer=tracer, jobs=4,
            cache=ObjectStore(str(tmp_path)))).run(corpus_sources)
        metrics = tracer.metrics
        files = len(corpus_sources)
        assert metrics.counter_value("cache.hits", stage="parse") == files
        assert metrics.counter_value("cache.hits", stage="check") == files
        assert metrics.counter_value("cache.misses", stage="parse") == 0

    def test_cache_level_counters_and_corruption_event(self, tmp_path,
                                                       corpus_sources):
        # the cache's own accounting lands as unlabeled counters (and
        # Prometheus lines) next to the pipeline's stage-labeled ones
        import io
        import json
        from repro.obs import EventLog, render_prometheus
        from repro.testing import corrupt_cache_entries
        AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)))).run(corpus_sources)
        assert corrupt_cache_entries(
            ObjectStore(str(tmp_path)), count=1) == 1
        tracer = Tracer()
        stream = io.StringIO()
        cache = ObjectStore(str(tmp_path))
        AssessmentPipeline(PipelineConfig(
            tracer=tracer, cache=cache,
            log=EventLog(stream))).run(corpus_sources)
        files = len(corpus_sources)
        metrics = tracer.metrics
        assert metrics.counter_value("cache.hits") == cache.hits \
            == 2 * files - 1
        assert metrics.counter_value("cache.misses") == 1
        assert metrics.counter_value("cache.corrupt_entries") == 1
        assert metrics.counter_value("cache.puts") == cache.puts == 1
        text = render_prometheus(tracer)
        assert "repro_cache_corrupt_entries 1" in text
        assert "repro_cache_puts 1" in text
        events = [json.loads(line) for line in
                  stream.getvalue().splitlines()]
        corrupt = [e for e in events
                   if e["event"] == "cache.corrupt_entry"]
        assert len(corrupt) == 1
        assert corrupt[0]["level"] == "warning"
        assert corrupt[0]["path"].endswith(".pkl")

    def test_parallel_run_has_worker_spans(self, corpus_sources):
        tracer = Tracer()
        AssessmentPipeline(PipelineConfig(
            tracer=tracer, jobs=4)).run(corpus_sources)
        workers = tracer.find("parse_worker")
        assert len(workers) == 4
        for worker in workers:
            assert {s.name for s in worker.children} == {"parse_file"}
            assert len(worker.children) == worker.attributes["files"]
        assert tracer.find("checker_worker") == []
        assert len(tracer.find("parse_file")) == len(corpus_sources)
        histogram = tracer.metrics.histogram("pipeline.parse_seconds")
        assert histogram.count == len(corpus_sources)
        # worker spans hang off the parse span in the grafted tree
        parse_span = tracer.find("parse")[0]
        assert {s.name for s in parse_span.children} == {"parse_worker"}

    def test_task_payloads_pickle(self, corpus_sources):
        # the process pool's hard requirement
        from repro.core.parallel import ParseTask, run_parse_task
        task = ParseTask(items=sorted(corpus_sources.items())[:2],
                         worker=0, traced=True, logged=True)
        outcomes, _, tracer, events = run_parse_task(
            pickle.loads(pickle.dumps(task)))
        rebuilt, _, replayed = pickle.loads(
            pickle.dumps((outcomes, tracer, events)))
        assert [o.path for o in rebuilt] == [o.path for o in outcomes]
        assert replayed == events and events[-1]["event"] == "worker.parse"


class TestCliParallelFlags:
    def test_jobs_and_cache_flags(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["--corpus", "0.02", "--jobs", "2",
                     "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hits" in out
        assert main(["--corpus", "0.02", "--jobs", "2",
                     "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 misses" in out

    def test_no_cache_overrides_cache(self, tmp_path, capsys):
        """``--store DIR --no-cache`` records the run but caches
        nothing."""
        store_dir = tmp_path / "store"
        assert main(["--corpus", "0.02", "--store", str(store_dir),
                     "--no-cache"]) == 0
        assert not (store_dir / "objects").exists()
        out = capsys.readouterr().out
        assert "cache:" not in out
        records = RunHistory(str(store_dir)).records()
        assert len(records) == 1
        assert f"run {records[0].run_id} recorded to" in out
        assert records[0].cache == {} and records[0].objects == []

    def test_no_cache_requires_store(self, capsys):
        assert main(["--corpus", "0.02", "--no-cache"]) == 2
        assert "--no-cache requires --store" in capsys.readouterr().err

    def test_executor_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--corpus", "0.02", "--executor", "process"])
        assert exit_info.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_negative_jobs_clean_error(self, capsys):
        assert main(["--corpus", "0.02", "--jobs", "-3"]) == 2
        err = capsys.readouterr().err
        assert "bad pipeline configuration" in err
        assert "Traceback" not in err
