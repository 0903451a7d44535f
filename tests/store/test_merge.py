"""Merge properties: idempotent, order-independent, concurrency-safe.

The contract under test is the one the distributed workflow rests on:
however many shards and stores a fleet produces, and in whatever order
they are merged, the master store converges to the same bytes.
"""

import json
import multiprocessing
import os
import random

import pytest

from repro.store import (
    LEDGER_FILENAME,
    ObjectStore,
    RunHistory,
    RunRecord,
    Store,
    merge_into,
    merge_shards,
)


def make_record(run_id, timestamp="2026-08-08T12:00:00+00:00", shard=""):
    return RunRecord(run_id=run_id, timestamp=timestamp, shard=shard,
                     total_findings=len(run_id))


def fill_shard(store, name, runs, objects):
    """One writer's worth of state: a shard with runs and objects."""
    history = RunHistory(store.shard_path(name))
    for run_id in runs:
        history.append(make_record(run_id, shard=name))
    area = ObjectStore(os.path.join(store.shard_path(name), "objects"))
    for key, value in objects:
        area.put(key, value)


def master_state(store):
    """The master's observable bytes: run table + object payloads."""
    with open(RunHistory(store.root).path, "rb") as handle:
        table = handle.read()
    area = ObjectStore(store.objects_root)
    payloads = {}
    for key, path in area.entries():
        with open(path, "rb") as handle:
            payloads[key] = handle.read()
    return table, payloads


def generated_shards(seed, shard_count=3, runs_per=4, objects_per=5):
    """Deterministic pseudo-random shard contents for property tests."""
    rng = random.Random(seed)
    shards = []
    for index in range(shard_count):
        runs = [f"run-{seed}-{index}-{i}" for i in range(runs_per)]
        objects = [
            (ObjectStore.key_for("t", f"f{index}-{i}.cc",
                                 str(rng.random())),
             {"payload": rng.randrange(1_000_000)})
            for i in range(objects_per)]
        shards.append((f"shard-w{index}", runs, objects))
    return shards


class TestMergeProperties:
    def test_merge_is_idempotent(self, tmp_path):
        # merge(merge(a, b), b) == merge(a, b)
        store = Store(str(tmp_path / "store"))
        shards = generated_shards(seed=1)
        for name, runs, objects in shards:
            fill_shard(store, name, runs, objects)
        first_stats = merge_shards(store)
        first = master_state(store)
        assert first_stats.runs_added == 12
        assert first_stats.objects_added == 15

        # replay the same content as a foreign source: nothing changes
        other = Store(str(tmp_path / "other"))
        for name, runs, objects in shards:
            fill_shard(other, name, runs, objects)
        merge_shards(other)
        again = merge_into(store, sources=[other.root])
        assert master_state(store) == first
        assert again.runs_added == 0 and again.runs_known == 12
        assert again.objects_added == 0
        assert again.objects_identical + again.objects_conflicts == 15
        assert again.objects_conflicts == 0

    def test_merge_is_order_independent(self, tmp_path):
        # the master's bytes do not depend on the order shards arrive
        shards = generated_shards(seed=2)
        states = []
        for ordering in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            store = Store(str(tmp_path / f"store-{''.join(map(str, ordering))}"))
            for position in ordering:
                name, runs, objects = shards[position]
                fill_shard(store, name, runs, objects)
                merge_shards(store)  # one merge per arrival
            states.append(master_state(store))
        assert states[0] == states[1] == states[2]

    def test_object_conflicts_resolve_order_independently(self, tmp_path):
        # two writers disagreeing on one key converge to the
        # lexicographically smaller payload either way round
        key = ObjectStore.key_for("t", "x.cc", "src")
        outcomes = []
        for ordering in (("aaa", "zzz"), ("zzz", "aaa")):
            store = Store(str(tmp_path / f"store-{ordering[0]}"))
            for index, payload in enumerate(ordering):
                fill_shard(store, f"shard-w{index}", [f"r{index}"],
                           [(key, payload)])
            stats = merge_shards(store)
            assert stats.objects_conflicts == 1
            area = ObjectStore(store.objects_root)
            outcomes.append(area.get(key))
        assert outcomes[0] == outcomes[1] == "aaa"

    def test_run_tables_union_by_run_id(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        # the same run id recorded in two shards lands once
        fill_shard(store, "shard-a", ["dup", "only-a"], [])
        fill_shard(store, "shard-b", ["dup", "only-b"], [])
        stats = merge_shards(store)
        assert stats.runs_added == 3 and stats.runs_known == 1
        run_ids = sorted(r.run_id for r in RunHistory(store.root).records())
        assert run_ids == ["dup", "only-a", "only-b"]
        # shard directories were folded in and removed
        assert store.shards() == []

    def test_keep_shards_preserves_sources(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        fill_shard(store, "shard-a", ["r1"],
                   [(ObjectStore.key_for("t", "a.cc", "s"), 1)])
        merge_shards(store, remove_shards=False)
        assert len(store.shards()) == 1
        # shard objects were copied, not moved
        shard_area = os.path.join(store.shards()[0], "objects")
        assert len(list(ObjectStore(shard_area).entries())) == 1


class TestLedgerImport:
    def test_legacy_ledger_runs_union_in(self, tmp_path):
        legacy = tmp_path / "legacy"
        ledger = RunHistory(str(legacy))
        ledger.append(make_record("old-run-1"))
        ledger.append(make_record("old-run-2"))
        store = Store(str(tmp_path / "store"))
        RunHistory(store.root).append(make_record("new-run"))
        stats = merge_into(store, sources=[str(legacy)])
        assert stats.runs_added == 2
        run_ids = sorted(r.run_id for r in RunHistory(store.root).records())
        assert run_ids == ["new-run", "old-run-1", "old-run-2"]
        # importing again is a no-op (idempotent)
        again = merge_into(store, sources=[str(legacy)])
        assert again.runs_added == 0 and again.runs_known == 2
        assert again.sources == [str(legacy)]
        # the legacy directory was only read
        assert [r.run_id for r in RunHistory(str(legacy)).records()] == \
            ["old-run-1", "old-run-2"]


class TestMissingSource:
    def test_missing_source_raises_before_merging(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        fill_shard(store, "shard-a", ["r1"], [])
        with pytest.raises(OSError, match="absent"):
            merge_into(store, sources=[str(tmp_path / "absent")])
        # nothing was folded in: the shard still awaits a merge
        assert len(store.shards()) == 1
        assert not os.path.exists(store.history().path)


def _concurrent_writer(arguments):
    """Top-level so the multiprocessing pool can pickle it."""
    root, name, payload_seed = arguments
    store = Store(root)
    fill_shard(store, name, [f"run-{name}"],
               generated_shards(payload_seed, shard_count=1)[0][2])
    return name


class TestConcurrentWriters:
    def test_parallel_shard_writers_match_serial(self, tmp_path):
        # N processes writing shards concurrently, then one merge,
        # produces byte-identical master state to writing the same
        # shards serially in one process
        serial = Store(str(tmp_path / "serial"))
        concurrent = Store(str(tmp_path / "concurrent"))
        names = [f"shard-w{i}" for i in range(4)]
        for index, name in enumerate(names):
            _concurrent_writer((serial.root, name, 100 + index))
        merge_shards(serial)

        with multiprocessing.Pool(2) as pool:
            done = pool.map(_concurrent_writer,
                            [(concurrent.root, name, 100 + index)
                             for index, name in enumerate(names)])
        assert sorted(done) == names
        merge_shards(concurrent)
        assert master_state(concurrent) == master_state(serial)


class TestCanonicalTable:
    def test_rewrite_is_deterministic(self, tmp_path):
        documents = [make_record(f"r{i}").to_dict() for i in range(3)]
        first = RunHistory(str(tmp_path / "a"))
        second = RunHistory(str(tmp_path / "b"))
        first.rewrite(list(documents))
        second.rewrite(list(reversed(documents)))
        with open(first.path, "rb") as handle:
            left = handle.read()
        with open(second.path, "rb") as handle:
            right = handle.read()
        assert left == right
        # and the canonical table is still a readable history
        assert len(first.records()) == 3

    def test_master_and_shard_tables_unioned_on_read(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        RunHistory(store.root).append(make_record("master-run"))
        fill_shard(store, "shard-a", ["shard-run"], [])
        run_ids = {r.run_id for r in store.history().records()}
        assert run_ids == {"master-run", "shard-run"}

    def test_missing_master_with_shard_tables_still_reads(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        fill_shard(store, "shard-a", ["only-shard"], [])
        assert not os.path.exists(
            os.path.join(store.root, LEDGER_FILENAME))
        assert [r.run_id for r in store.history().records()] == \
            ["only-shard"]


def test_merge_stats_to_dict_round_trips(tmp_path):
    store = Store(str(tmp_path / "store"))
    fill_shard(store, "shard-a", ["r"], [])
    stats = merge_shards(store)
    document = json.loads(json.dumps(stats.to_dict()))
    assert document["runs_added"] == 1
    assert document["shards_merged"] == 1
