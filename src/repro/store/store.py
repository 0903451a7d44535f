"""The :class:`Store` facade: one directory, all three areas.

A store ties together the object area (:mod:`repro.store.objects`),
the run-history table (:mod:`repro.store.history`), and the shard
directories (:mod:`repro.store.layout`) under one root, and hands out
correctly-wired views of each:

* :meth:`Store.object_store` — the result-cache backend, optionally
  redirected into a writer-private shard;
* :meth:`Store.history` — the run table (shard tables unioned in);
* :meth:`Store.shard` — a shard's own history, for recording a shard
  run's manifest next to its objects.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from .history import LEDGER_FILENAME, RunHistory
from .layout import OBJECTS_DIRNAME, default_shard_name, list_shards
from .objects import ObjectStore


@dataclass(frozen=True)
class StoreStats:
    """What ``repro-store stats`` reports for one store."""

    root: str
    objects: int
    object_bytes: int
    runs: int
    shards: int
    shard_objects: int
    shard_runs: int

    def to_dict(self) -> Dict:
        return {
            "root": self.root,
            "objects": self.objects,
            "object_bytes": self.object_bytes,
            "runs": self.runs,
            "shards": self.shards,
            "shard_objects": self.shard_objects,
            "shard_runs": self.shard_runs,
        }


class Store:
    """One persistence root: ``objects/`` + ``runs.jsonl`` + shards."""

    def __init__(self, root: str) -> None:
        self.root = root

    # ------------------------------------------------------------------

    @property
    def objects_root(self) -> str:
        """The master object area directory."""
        return os.path.join(self.root, OBJECTS_DIRNAME)

    def shard_path(self, name: Optional[str] = None) -> str:
        """A shard directory path (this process's by default)."""
        return os.path.join(self.root,
                            name if name else default_shard_name())

    def shards(self) -> List[str]:
        """Existing shard directory paths, sorted."""
        return list_shards(self.root)

    # ------------------------------------------------------------------

    def object_store(self, shard: Optional[str] = None) -> ObjectStore:
        """The store's object area as a result-cache backend.

        Args:
            shard: when given (a shard directory name, or ``""`` for
                this process's default name), writes are redirected
                into that shard's private object area; reads still
                consult the master area first.  ``None`` writes
                straight into the master area.

        The pipeline reads and writes the returned area only from the
        parent process, pooled or serial, so a store has exactly one
        writer per invocation and no lock.
        """
        shard_root = None
        if shard is not None:
            shard_root = os.path.join(self.shard_path(shard or None),
                                      OBJECTS_DIRNAME)
        area = ObjectStore(self.objects_root, shard_root=shard_root)
        area.record_references = True
        return area

    def history(self) -> RunHistory:
        """The master run table (shard tables unioned on read)."""
        return RunHistory(self.root)

    def shard(self, name: Optional[str] = None) -> RunHistory:
        """One shard's own run table (no further nesting)."""
        return RunHistory(self.shard_path(name))

    # ------------------------------------------------------------------

    def stats(self) -> StoreStats:
        """Object / run / shard counts and sizes, best-effort."""
        area = ObjectStore(self.objects_root)
        objects = 0
        object_bytes = 0
        for _key, path in area.entries():
            objects += 1
            try:
                object_bytes += os.path.getsize(path)
            except OSError:
                pass
        shard_objects = 0
        shard_runs = 0
        shards = self.shards()
        for shard in shards:
            shard_objects += sum(
                1 for _ in area.entries(
                    os.path.join(shard, OBJECTS_DIRNAME)))
            try:
                shard_runs += len(
                    RunHistory(shard)._parse_file(
                        os.path.join(shard, LEDGER_FILENAME)))
            except OSError:
                pass
        runs = 0
        history = RunHistory(self.root)
        try:
            runs = len(history._parse_file(history.path))
        except OSError:
            pass
        return StoreStats(root=self.root, objects=objects,
                          object_bytes=object_bytes, runs=runs,
                          shards=len(shards),
                          shard_objects=shard_objects,
                          shard_runs=shard_runs)
