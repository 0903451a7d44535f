"""``repro-store`` CLI: merge, gc, stats, runs — outputs and exit codes."""

import json
import os

import pytest

from repro.store import ObjectStore, RunHistory, RunRecord, Store
from repro.store.cli import main


def make_shard(root, name, run_ids, object_count=2):
    store = Store(root)
    history = RunHistory(store.shard_path(name))
    for run_id in run_ids:
        history.append(RunRecord(
            run_id=run_id, timestamp="2026-08-08T12:00:00+00:00",
            shard=name, corpus={"units": 3}, total_findings=7))
    area = ObjectStore(os.path.join(store.shard_path(name), "objects"))
    for index in range(object_count):
        area.put(ObjectStore.key_for("t", f"{name}-{index}.cc", "s"),
                 index)


class TestMergeCommand:
    def test_merge_reports_and_folds_shards(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        make_shard(root, "shard-a", ["r1"])
        make_shard(root, "shard-b", ["r2"])
        assert main(["merge", root]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard(s)" in out
        assert "objects: 4 added" in out
        assert "runs: 2 added" in out
        assert Store(root).shards() == []

    def test_merge_json_and_from_ledger(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        legacy = str(tmp_path / "legacy")
        RunHistory(legacy).append(RunRecord(
            run_id="old", timestamp="2025-01-01T00:00:00+00:00"))
        report = str(tmp_path / "merge.json")
        assert main(["merge", root, "--from", legacy,
                     "--json", report]) == 0
        capsys.readouterr()
        with open(report, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["runs_added"] == 1
        assert document["sources"] == [legacy]
        assert [r.run_id for r in Store(root).history().records()] == \
            ["old"]

    def test_missing_source_exits_2(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        missing = str(tmp_path / "absent")
        assert main(["merge", root, "--from", missing]) == 2
        captured = capsys.readouterr()
        assert "cannot merge into store" in captured.err
        assert missing in captured.err
        assert "source(s)" not in captured.out

    def test_keep_shards(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        make_shard(root, "shard-a", ["r1"])
        assert main(["merge", root, "--keep-shards"]) == 0
        capsys.readouterr()
        assert len(Store(root).shards()) == 1


class TestGcCommand:
    def test_gc_requires_a_bound(self, tmp_path, capsys):
        assert main(["gc", str(tmp_path)]) == 2
        assert "--max-age" in capsys.readouterr().err

    def test_gc_rejects_negative_bounds(self, tmp_path, capsys):
        assert main(["gc", str(tmp_path), "--max-age", "-1"]) == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-age", "--max-size"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gc_rejects_non_finite_bounds(self, tmp_path, capsys, flag,
                                          value):
        root = str(tmp_path / "store")
        area = ObjectStore(Store(root).objects_root)
        area.put(ObjectStore.key_for("t", "a.cc", "s"), "payload")
        assert main(["gc", root, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{flag} must be >= 0 and finite, got " \
                               f"{value}\n"
        assert len(list(area.entries())) == 1

    def test_gc_dry_run_reports(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        area = ObjectStore(Store(root).objects_root)
        area.put(ObjectStore.key_for("t", "a.cc", "s"), "payload")
        assert main(["gc", root, "--max-size", "0", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would sweep 1 entry" in out
        assert len(list(area.entries())) == 1


class TestStatsCommand:
    def test_stats_counts_areas(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        make_shard(root, "shard-a", ["r1"], object_count=3)
        area = ObjectStore(Store(root).objects_root)
        area.put(ObjectStore.key_for("t", "m.cc", "s"), 1)
        report = str(tmp_path / "stats.json")
        assert main(["stats", root, "--json", report]) == 0
        out = capsys.readouterr().out
        assert "objects: 1" in out
        assert "shards:  1 (3 objects, 1 runs" in out
        with open(report, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["shard_objects"] == 3
        assert document["shard_runs"] == 1


class TestRunsCommand:
    def test_runs_lists_master_and_shard_tables(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        RunHistory(root).append(RunRecord(
            run_id="master-run-0", timestamp="2026-08-08T12:00:00+00:00",
            corpus={"units": 9}, total_findings=11))
        make_shard(root, "shard-a", ["shard-run-00"])
        assert main(["runs", root]) == 0
        out = capsys.readouterr().out
        assert "master-run-0" in out and "shard-run-00" in out
        assert "shard-a" in out  # the shard column

    def test_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["runs", str(tmp_path / "void")]) == 2
        assert "cannot read run history" in capsys.readouterr().err

    def test_empty_table_exits_2(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        os.makedirs(root)
        with open(os.path.join(root, "runs.jsonl"), "w"):
            pass
        assert main(["runs", root]) == 2
        assert "no readable run manifests" in capsys.readouterr().err

    def test_bad_last_exits_2(self, tmp_path, capsys):
        assert main(["runs", str(tmp_path), "--last", "0"]) == 2
        assert "--last" in capsys.readouterr().err


def test_no_command_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()
