"""The distributed contract, end to end through the real CLIs.

Pins the issue's acceptance bar: a corpus split across ``--shard``
invocations, folded with ``repro-store merge``, then replayed from the
merged store, produces findings, JSON, and exit code byte-identical to
one single-process run — and ``repro-trends`` works over the merged
history.
"""

import os

import pytest

from repro.core import AssessmentPipeline, PipelineConfig
from repro.core.cli import main as assess
from repro.core.parallel import run_tasks as real_run_tasks
from repro.corpus import apollo_spec, generate_corpus
from repro.obs.trends import main as trends
from repro.store import ObjectStore, RunHistory, Store, build_run_record
from repro.store.cli import main as store_admin

SCALE = "0.02"


def run_quiet(capsys, argv):
    code = assess(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestShardMergeReplay:
    def test_two_shards_merge_to_byte_identical_run(self, tmp_path,
                                                    capsys):
        single = str(tmp_path / "single.json")
        merged = str(tmp_path / "merged.json")
        store = str(tmp_path / "store")

        code, single_out = run_quiet(capsys, [
            "--corpus", SCALE, "--json", single])
        assert code == 0

        for slice_spec in ("1/2", "2/2"):
            shard_code, shard_out = run_quiet(capsys, [
                "--corpus", SCALE, "--store", store,
                "--shard", slice_spec])
            assert shard_code == 0
            assert "recorded to" in shard_out
        # each shard run recorded its manifest in its own shard dir
        assert len(Store(store).shards()) == 2

        assert store_admin(["merge", store]) == 0
        capsys.readouterr()
        assert Store(store).shards() == []
        history = RunHistory(store)
        assert len(history.records()) == 2
        assert sorted(r.shard for r in history.records()) == \
            ["1/2", "2/2"]

        code, merged_out = run_quiet(capsys, [
            "--corpus", SCALE, "--store", store, "--json", merged])
        assert code == 0
        # the merged shards cover the corpus completely: the replay
        # recomputes nothing
        assert ", 0 misses" in merged_out

        with open(single, "rb") as handle:
            expected = handle.read()
        with open(merged, "rb") as handle:
            actual = handle.read()
        assert actual == expected

        # the summary body (minus the cache/JSON/ledger trailers that
        # differ by flags) is the same assessment
        assert single_out.split("\nJSON written")[0] == \
            merged_out.split("\ncache:")[0]

    def test_shard_slices_are_disjoint_and_complete(self, tmp_path,
                                                    capsys):
        store = str(tmp_path / "store")
        for slice_spec in ("1/3", "2/3", "3/3"):
            code, _out = run_quiet(capsys, [
                "--corpus", SCALE, "--store", store,
                "--shard", slice_spec])
            assert code == 0
        assert store_admin(["merge", store]) == 0
        capsys.readouterr()
        records = RunHistory(store).records()
        code, full_out = run_quiet(capsys, [
            "--corpus", SCALE, "--store", store])
        assert code == 0
        full = RunHistory(store).records()[-1]
        assert sum(r.corpus["files"] for r in records) == \
            full.corpus["files"]
        assert full.corpus["files"] > 0
        assert full_out  # the replay printed a summary


class TestPooledEqualsSerial:
    """A pooled ``--store`` run writes exactly what a serial one does:
    same JSON, same manifest, and no directory beside ``objects/``."""

    def test_jobs_fanout_matches_serial_and_cleans_up(self, tmp_path,
                                                      capsys):
        serial = str(tmp_path / "serial.json")
        fanned = str(tmp_path / "fanned.json")
        serial_store = str(tmp_path / "serial-store")
        store = str(tmp_path / "store")
        code, _ = run_quiet(capsys, [
            "--corpus", SCALE, "--store", serial_store, "--json", serial])
        assert code == 0
        code, _ = run_quiet(capsys, [
            "--corpus", SCALE, "--store", store, "--jobs", "2",
            "--json", fanned])
        assert code == 0
        with open(serial, "rb") as handle:
            expected = handle.read()
        with open(fanned, "rb") as handle:
            assert handle.read() == expected
        # the manifest does not depend on the executor
        pooled_record = RunHistory(store).records()[-1]
        serial_record = RunHistory(serial_store).records()[-1]
        assert pooled_record.cache == serial_record.cache
        assert pooled_record.cache["puts"] > 0
        assert pooled_record.objects == serial_record.objects
        # the parent wrote every entry: no shard directory appeared
        assert Store(store).shards() == []
        # ... and the entries landed in the master area, replayable
        code, out = run_quiet(capsys, [
            "--corpus", SCALE, "--store", store])
        assert code == 0
        assert ", 0 misses" in out


class TestInterruptedRunLeaksNothing:
    def test_interrupt_leaves_no_shard_or_temp(self, tmp_path,
                                               monkeypatch):
        """A ``KeyboardInterrupt`` inside the fan-out, after the pooled
        workers ran, leaves the store as the lookups left it: workers
        write nothing, and the parent was interrupted before its puts."""
        store = Store(str(tmp_path / "store"))
        ran = []

        def interrupted_run_tasks(function, tasks, **kwargs):
            ran.extend(real_run_tasks(function, tasks, **kwargs))
            raise KeyboardInterrupt()

        monkeypatch.setattr("repro.core.pipeline.run_tasks",
                            interrupted_run_tasks)
        pipeline = AssessmentPipeline(PipelineConfig(
            jobs=2, cache=store.object_store()))
        sources = {"a.cpp": "int f() { return 1; }\n",
                   "b.cpp": "int g() { return 2; }\n"}
        with pytest.raises(KeyboardInterrupt):
            pipeline.run(sources)
        assert len(ran) == 2, "the pooled tasks did not run"
        leftovers = [os.path.join(directory, name)
                     for directory, subdirectories, files
                     in os.walk(store.root)
                     for name in subdirectories + files
                     if name.startswith("shard-") or ".tmp." in name]
        assert leftovers == []
        assert list(ObjectStore(store.objects_root).entries()) == []


class TestManifestObjects:
    def test_store_run_pins_objects_plain_cache_does_not(self, tmp_path,
                                                         capsys):
        store = str(tmp_path / "store")
        code, _ = run_quiet(capsys, ["--corpus", SCALE, "--store", store])
        assert code == 0
        record = RunHistory(store).records()[-1]
        assert record.objects  # every key the run read or wrote
        assert all(len(key) == 64 for key in record.objects)
        # a bare object area, outside any store, pins nothing
        sources = generate_corpus(apollo_spec(scale=float(SCALE))).sources()
        cache = ObjectStore(str(tmp_path / "cache"))
        result = AssessmentPipeline(PipelineConfig(cache=cache)).run(sources)
        assert cache.referenced
        assert build_run_record(result, run_id="x", duration=0.0,
                                exit_code=0, cache=cache).objects == []


class TestMergeFrom:
    def test_merge_from_reuses_a_foreign_store(self, tmp_path, capsys):
        warm = str(tmp_path / "warm")
        fresh = str(tmp_path / "fresh")
        code, _ = run_quiet(capsys, ["--corpus", SCALE, "--store", warm])
        assert code == 0
        code, out = run_quiet(capsys, [
            "--corpus", SCALE, "--store", fresh, "--merge-from", warm])
        assert code == 0
        assert "merged 1 source(s)" in out
        assert ", 0 misses" in out  # every result came from the merge
        # the foreign store was only read
        assert len(RunHistory(warm).records()) == 1

    def test_missing_source_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "absent")
        assert assess(["--corpus", SCALE, "--store",
                       str(tmp_path / "store"),
                       "--merge-from", missing]) == 2
        captured = capsys.readouterr()
        assert "cannot merge into store" in captured.err
        assert missing in captured.err
        assert "merged" not in captured.out


class TestStoreFlagValidation:
    def test_shard_requires_store(self, capsys):
        assert assess(["--corpus", SCALE, "--shard", "1/2"]) == 2
        assert "--shard requires --store" in capsys.readouterr().err

    def test_merge_from_requires_store(self, tmp_path, capsys):
        assert assess(["--corpus", SCALE,
                       "--merge-from", str(tmp_path)]) == 2
        assert "--merge-from requires --store" in capsys.readouterr().err

    def test_bad_shard_spec_exits_2(self, tmp_path, capsys):
        for spec in ("3/2", "0/2", "x/2", "2", "2/0", "1/2/3"):
            assert assess(["--corpus", SCALE,
                           "--store", str(tmp_path / "s"),
                           "--shard", spec]) == 2, spec
            assert "bad pipeline configuration" in \
                capsys.readouterr().err


class TestTrendsOverStore:
    def test_trends_reads_merged_and_unmerged_history(self, tmp_path,
                                                      capsys):
        store = str(tmp_path / "store")
        for slice_spec in ("1/2", "2/2"):
            code, _ = run_quiet(capsys, [
                "--corpus", SCALE, "--store", store,
                "--shard", slice_spec])
            assert code == 0
        # unmerged: the shard tables are unioned in by run id
        assert trends(["--store", store]) == 0
        out = capsys.readouterr().out
        assert "last 2 run(s)" in out
        assert store_admin(["merge", store]) == 0
        capsys.readouterr()
        code, _ = run_quiet(capsys, ["--corpus", SCALE, "--store", store])
        assert code == 0
        assert trends(["--store", store]) == 0
        out = capsys.readouterr().out
        assert "last 3 run(s)" in out
        # shard runs never share the full run's trend window
        assert "last 1 run(s) share the latest configuration" in out
