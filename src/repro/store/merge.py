"""Merging shards and stores into a master store.

The contract (pinned by ``tests/store/test_merge.py``):

* **Idempotent** — merging the same source twice changes nothing:
  ``merge(merge(a, b), b) == merge(a, b)``.
* **Commutative** — the master's bytes are identical regardless of
  merge order: objects with the same key resolve content-addressed
  (identical by construction; a genuinely conflicting byte sequence
  resolves to the lexicographically smaller one, which is
  order-independent), and run manifests union by run id into one
  canonical sorted table.
* **Non-destructive to sources** — foreign stores are only read; the
  store's *own* shards are folded in with same-filesystem renames and
  then removed (pass ``remove_shards=False`` to keep them).

A "source" is any existing directory shaped like a store: a full store
root, a single shard directory, a bare object area, or a bare run
history (a directory holding only ``runs.jsonl``, as old run ledgers
do) — its run manifests union into the master table, objects simply
absent.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .history import LEDGER_FILENAME, RunHistory, canonical_line
from .layout import OBJECTS_DIRNAME, list_shards
from .objects import ObjectStore
from .store import Store

__all__ = ["MergeStats", "merge_into", "merge_shards"]


@dataclass
class MergeStats:
    """What one merge did, for the CLI and for tests.

    Attributes:
        objects_added: entries new to the master object area.
        objects_identical: entries already present with the same bytes.
        objects_conflicts: entries present with *different* bytes
            (resolved deterministically; should be zero for
            content-addressed writers).
        runs_added: manifests new to the master run table.
        runs_known: manifests already present (by run id or identical
            line).
        shards_merged: shard directories folded in.
        sources: foreign directories read.
    """

    objects_added: int = 0
    objects_identical: int = 0
    objects_conflicts: int = 0
    runs_added: int = 0
    runs_known: int = 0
    shards_merged: int = 0
    sources: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "objects_added": self.objects_added,
            "objects_identical": self.objects_identical,
            "objects_conflicts": self.objects_conflicts,
            "runs_added": self.runs_added,
            "runs_known": self.runs_known,
            "shards_merged": self.shards_merged,
            "sources": list(self.sources),
        }


def _object_areas(directory: str) -> List[str]:
    """Every object area under a store-shaped directory.

    Accepts a store root (``objects/`` + shards), a shard directory
    (``objects/``), or a bare object area (two-hex-fanout directories
    directly inside).
    """
    areas: List[str] = []
    nested = os.path.join(directory, OBJECTS_DIRNAME)
    if os.path.isdir(nested):
        areas.append(nested)
    for shard in list_shards(directory):
        shard_nested = os.path.join(shard, OBJECTS_DIRNAME)
        if os.path.isdir(shard_nested):
            areas.append(shard_nested)
    if not areas and os.path.isdir(directory):
        areas.append(directory)
    return areas


def _run_tables(directory: str) -> List[str]:
    """Every run-table file under a store-shaped directory, sorted so
    the master table precedes its shards."""
    tables: List[str] = []
    master = os.path.join(directory, LEDGER_FILENAME)
    if os.path.isfile(master):
        tables.append(master)
    for shard in list_shards(directory):
        table = os.path.join(shard, LEDGER_FILENAME)
        if os.path.isfile(table):
            tables.append(table)
    return tables


def _merge_entry(source_path: str, destination: str, move: bool,
                 stats: MergeStats) -> None:
    """Land one object at ``destination``, content-addressed.

    A missing destination takes the source entry (renamed when
    ``move``); an existing one is compared and — on the off chance the
    bytes differ — resolved to the lexicographically smaller sequence,
    so the winner does not depend on merge order.
    """
    os.makedirs(os.path.dirname(destination), exist_ok=True)
    if not os.path.exists(destination):
        if move:
            os.replace(source_path, destination)
        else:
            _atomic_copy(source_path, destination)
        stats.objects_added += 1
        return
    with open(source_path, "rb") as handle:
        incoming = handle.read()
    with open(destination, "rb") as handle:
        present = handle.read()
    if incoming == present:
        stats.objects_identical += 1
    else:
        stats.objects_conflicts += 1
        if incoming < present:
            _atomic_write(destination, incoming)
    if move:
        os.remove(source_path)


def _atomic_copy(source_path: str, destination: str) -> None:
    with open(source_path, "rb") as handle:
        _atomic_write(destination, handle.read())


def _atomic_write(destination: str, payload: bytes) -> None:
    temporary = f"{destination}.tmp.{os.getpid()}"
    with open(temporary, "wb") as handle:
        handle.write(payload)
    os.replace(temporary, destination)


def _union_documents(pools: Sequence[Tuple[List[Dict], bool]],
                     stats: MergeStats) -> List[Dict]:
    """Union manifest pools by run id (identical lines otherwise).

    ``pools`` pairs each document list with a flag saying whether its
    documents are *incoming* (counted as added/known) or already the
    master's.  A run id claimed twice with different content resolves
    to the lexicographically smaller canonical line — deterministic
    and order-independent, like the object rule.
    """
    by_key: Dict[str, str] = {}
    for documents, incoming in pools:
        for document in documents:
            line = canonical_line(document)
            run_id = str(document.get("run_id", "") or "")
            key = f"id:{run_id}" if run_id else f"line:{line}"
            present = by_key.get(key)
            if present is None:
                by_key[key] = line
                if incoming:
                    stats.runs_added += 1
            else:
                if incoming:
                    stats.runs_known += 1
                if line != present and line < present:
                    by_key[key] = line
    return [json.loads(line) for line in by_key.values()]


def merge_into(store: Store, sources: Sequence[str] = (),
               remove_shards: bool = True) -> MergeStats:
    """Fold the store's shards and foreign stores into ``store``.

    The store's own ``shard-*/`` directories are always merged (and
    removed unless ``remove_shards=False``); each ``sources`` entry is
    read as a store/shard/object-area/run-history and copied in.  The
    master run table is rewritten canonically, so the result is
    byte-identical regardless of the order sources are merged in.
    Raises :class:`OSError` when a source is not an existing directory
    (before anything is merged) or when the master store itself cannot
    be written.
    """
    for source in sources:
        if not os.path.isdir(source):
            raise NotADirectoryError(
                f"merge source is not a directory: {source}")
    stats = MergeStats()
    area = ObjectStore(store.objects_root)
    history = store.history()

    # Master manifests first (not incoming), then every incoming pool.
    pools: List[Tuple[List[Dict], bool]] = []
    try:
        pools.append((history._parse_file(history.path), False))
    except OSError:
        pools.append(([], False))

    own_shards = store.shards()
    for shard in own_shards:
        table = os.path.join(shard, LEDGER_FILENAME)
        if os.path.isfile(table):
            pools.append((RunHistory(shard)._parse_file(table), True))
        shard_area = os.path.join(shard, OBJECTS_DIRNAME)
        for key, path in list(area.entries(shard_area)):
            _merge_entry(path, area.entry_path(key), move=remove_shards,
                         stats=stats)
        stats.shards_merged += 1

    for source in sources:
        reader = RunHistory(source)
        for table in _run_tables(source):
            pools.append((reader._parse_file(table), True))
        for source_area in _object_areas(source):
            if os.path.realpath(source_area) == \
                    os.path.realpath(store.objects_root):
                continue  # merging a store into itself: objects stay
            for key, path in area.entries(source_area):
                _merge_entry(path, area.entry_path(key), move=False,
                             stats=stats)
        stats.sources.append(source)

    history.rewrite(_union_documents(pools, stats))
    if remove_shards:
        for shard in own_shards:
            shutil.rmtree(shard, ignore_errors=True)
    return stats


def merge_shards(store: Store, remove_shards: bool = True) -> MergeStats:
    """Fold the store's own shard directories into its master areas."""
    return merge_into(store, remove_shards=remove_shards)
