"""Dead worker-shard sweep and the interrupted-run leak guarantee."""

import os

import pytest

from repro.core import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.store import ObjectStore, Store
from repro.store.layout import (
    SHARD_PREFIX,
    list_shards,
    parse_worker_shard,
    safe_hostname,
)

#: A PID no live process plausibly holds (pid_max defaults to 4194304
#: on 64-bit Linux and kernels never hand out values above it).
DEAD_PID = 2 ** 22 + 17


def make_worker_shard(store_root, name, entries=1):
    """A leaked ``shard-…-w<i>`` directory with real object entries."""
    shard = os.path.join(store_root, name)
    area = ObjectStore(os.path.join(shard, "objects"))
    keys = []
    for index in range(entries):
        key = ObjectStore.key_for("t", f"{name}-{index}.cc", "src")
        area.put(key, {"from": name, "index": index})
        keys.append(key)
    return shard, keys


class TestParseWorkerShard:
    def test_worker_shard_names_parse(self):
        assert parse_worker_shard("shard-hostA-123-w0") == ("hostA", 123)
        assert parse_worker_shard("shard-ci.node-2-9-w17") == \
            ("ci.node-2", 9)

    @pytest.mark.parametrize("name", [
        "shard-host-123",          # plain per-process shard
        "shard-host-123-1of4",     # K/N corpus shard
        "shard-host-abc-w0",       # non-numeric pid
        "objects",
    ])
    def test_non_worker_names_do_not_parse(self, name):
        assert parse_worker_shard(name) is None


class TestSweep:
    def test_dead_worker_shard_is_absorbed_and_removed(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        host = safe_hostname()
        shard, keys = make_worker_shard(
            store.root, f"{SHARD_PREFIX}{host}-{DEAD_PID}-w0")
        area = store.object_store()  # sweep runs on open
        assert not os.path.exists(shard)
        assert area.get(keys[0]) == {"from": os.path.basename(shard),
                                     "index": 0}

    def test_alive_pid_and_kn_shards_are_untouched(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        host = safe_hostname()
        alive, _ = make_worker_shard(
            store.root, f"{SHARD_PREFIX}{host}-{os.getpid()}-w0")
        corpus, _ = make_worker_shard(
            store.root, f"{SHARD_PREFIX}{host}-{DEAD_PID}-1of2")
        foreign, _ = make_worker_shard(
            store.root, f"{SHARD_PREFIX}no-such-host-{DEAD_PID}-w0")
        store.object_store()
        assert os.path.exists(alive)
        assert os.path.exists(corpus)
        assert os.path.exists(foreign)

    def test_sweep_counts_and_logs(self, tmp_path):
        from repro.obs import BufferLog
        from repro.obs.metrics import MetricsRegistry
        store = Store(str(tmp_path / "store"))
        host = safe_hostname()
        for index in range(2):
            make_worker_shard(
                store.root,
                f"{SHARD_PREFIX}{host}-{DEAD_PID + index}-w{index}")
        area = ObjectStore(store.objects_root).attach(
            metrics=MetricsRegistry(), log=BufferLog())
        assert store.sweep_dead_worker_shards(area) == 2
        assert area.metrics.counter_value("cache.swept_shards") == 2
        assert any(event["event"] == "cache.sweep_shards"
                   for event in area.log.events)

    def test_sweep_is_idempotent(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        area = store.object_store()
        assert store.sweep_dead_worker_shards(area) == 0


class TestInterruptedRunLeaksNothing:
    def test_interrupt_mid_pool_leaves_no_worker_shards(
            self, tmp_path, monkeypatch):
        """KeyboardInterrupt inside the fan-out must still fold every
        armed worker shard back into the store (satellite: the absorb
        runs in a ``finally``)."""
        store = Store(str(tmp_path / "store"))
        cache = store.object_store()
        armed = []

        def interrupted_run_tasks(task_fn, tasks, **kwargs):
            for task in tasks:
                if task.shard_dir:
                    # simulate a worker that persisted one result
                    # before the pool was torn down
                    area = ObjectStore(task.shard_dir)
                    area.put(task.cache_keys[0], {"partial": True})
                    armed.append((task.shard_dir, task.cache_keys[0]))
            raise KeyboardInterrupt()

        monkeypatch.setattr("repro.core.pipeline.run_tasks",
                            interrupted_run_tasks)
        pipeline = AssessmentPipeline(PipelineConfig(
            jobs=2, cache=cache))
        sources = {"a.cpp": "int f() { return 1; }\n",
                   "b.cpp": "int g() { return 2; }\n"}
        with pytest.raises(KeyboardInterrupt):
            pipeline.run(sources)
        assert armed, "test arming failed: no worker shards created"
        # no shard-…-w* directory survives the interrupt
        leaked = [shard for shard in list_shards(store.root)
                  if parse_worker_shard(os.path.basename(shard))]
        assert leaked == []
        # ... and the partial result was absorbed, not discarded
        assert ObjectStore(store.objects_root).get(armed[0][1]) == \
            {"partial": True}
