"""Sharded, content-addressed persistence for the assessment stack.

One store directory holds everything an assessment persists across
runs, processes, and machines:

* ``objects/`` — the content-addressed object area (two-level fanout,
  atomic writes); the result cache's entries live here;
* ``runs.jsonl`` — the run-history table (one JSON manifest per run;
  a directory holding only this file is a valid history too);
* ``shard-<host>-<pid>*/`` — per-process shard directories, each a
  miniature store (its own object area + run table) that one writer
  owns exclusively, so concurrent invocations never contend on shared
  files.  Within one invocation the parent process is the only writer:
  pooled workers do no store I/O.

:func:`~repro.store.merge.merge_into` folds any number of shards (and
whole foreign stores, and bare run-history directories) into a master
store *idempotently and commutatively*: the merged master's
bytes are identical regardless of merge order, because objects resolve
content-addressed and run manifests union by run id into a canonical
sorted table.  That is the scale-out contract — one corpus split across
N machines, each writing its own shard, merged into one master that a
final assessment replays byte-identically (the mini-coverage
``Storage`` pattern: process-private partial databases combined into a
master).

A store is the only persistence surface: ``repro-assess --store``,
``repro-serve --store``, ``repro-trends --store`` and ``repro-store``
all open one through :class:`Store`.
"""

from .gc import GcStats, collect_garbage
from .history import (
    FAULT_COUNTERS,
    LEDGER_FILENAME,
    LEDGER_SCHEMA,
    PART_COUNTERS,
    STAGE_NAMES,
    RunHistory,
    RunRecord,
    build_run_record,
    new_run_id,
)
from .layout import (
    OBJECTS_DIRNAME,
    SHARD_PREFIX,
    default_shard_name,
    list_shards,
)
from .merge import MergeStats, merge_into, merge_shards
from .objects import CACHE_MISS, SCHEMA_TAG, ObjectStore
from .store import Store

__all__ = [
    "CACHE_MISS",
    "FAULT_COUNTERS",
    "GcStats",
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA",
    "MergeStats",
    "OBJECTS_DIRNAME",
    "ObjectStore",
    "PART_COUNTERS",
    "RunHistory",
    "RunRecord",
    "SCHEMA_TAG",
    "SHARD_PREFIX",
    "STAGE_NAMES",
    "Store",
    "build_run_record",
    "collect_garbage",
    "default_shard_name",
    "list_shards",
    "merge_into",
    "merge_shards",
    "new_run_id",
]
