"""The content-addressed object area: atomic, sharded, accounted.

This is the persistence primitive under the result cache.  Entries are
pickled under ``<area>/<key[:2]>/<key>.pkl`` (two-level fanout keeps
directories small on big trees) and written atomically (temp file +
``os.replace``), so concurrent readers never observe torn entries.

Two object areas can cooperate on one store:

* ``root`` — the shared (master) area every reader consults first;
* ``shard_root`` — an optional writer-private area (a shard's
  ``objects/`` directory).  When set, every :meth:`put` lands there
  instead of the master, so N concurrent writers never contend on the
  same files; a later :func:`~repro.store.merge.merge_into` folds the
  shards back.  Reads fall through master → own shard, so a sharded
  writer still sees both the fleet's merged history and its own fresh
  results.

The store is best-effort by design: an unwritable directory degrades
to a cold run, never to a crash.  Read trouble is *classified*, not
flattened: a missing entry is a plain miss, while an entry that exists
but cannot be opened or loaded (EACCES, a torn directory, a truncated
pickle) additionally counts into ``corrupt_entries`` and emits a
``cache.corrupt_entry`` event, so silent store rot stays visible in
telemetry.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Container, Dict, Iterator, Optional, Tuple

from ..obs.log import NULL_LOG, EventLog
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry

#: Shared no-op sink for unattached stores.
_NULL_METRICS = NullMetricsRegistry()

#: Bump to invalidate every object (layout or pickle-schema change).
SCHEMA_TAG = "repro-cache:1"

#: Sentinel distinguishing "no entry" from a stored ``None``.
CACHE_MISS = object()

#: Errors meaning "the entry's bytes exist but do not load" — cache
#: rot, schema drift, or a torn concurrent writer.
_LOAD_ERRORS = (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError, ValueError)


def _process_alive(pid: int) -> bool:
    """Best-effort liveness probe for a temp file's writer."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM) — treat as alive
    return True


class ObjectStore:
    """A content-addressed pickle area with hit/miss accounting.

    Attributes:
        root: the shared object area (created lazily on first write
            when no shard is configured).
        shard_root: optional writer-private object area receiving every
            write; ``None`` writes straight into :attr:`root`.  Either
            way one process writes: the pipeline's parent, never its
            pooled workers.
        hits: entries served from disk this process.
        misses: lookups that found no (readable) entry.
        puts: entries successfully written this process.
        corrupt_entries: misses caused by an unreadable *existing*
            entry (torn pickle, wrong schema, EACCES) rather than
            absence.
        referenced: every key this process hit or wrote — the material
            a run manifest pins so GC never sweeps a run's entries.
        record_references: when True, :func:`~repro.store.history.
            build_run_record` copies :attr:`referenced` into the run
            manifest (set by :meth:`~repro.store.store.Store.
            object_store`; a bare object area pins nothing).

    The same accounting lands in an attached
    :class:`~repro.obs.MetricsRegistry` (counters ``cache.hits``,
    ``cache.misses``, ``cache.puts``, ``cache.corrupt_entries``) and
    corruption/sweep incidents in an attached event log — see
    :meth:`attach`; both default to shared no-ops.
    """

    def __init__(self, root: str,
                 shard_root: Optional[str] = None) -> None:
        self.root = root
        self.shard_root = shard_root
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt_entries = 0
        self.referenced = set()
        self.record_references = False
        self.metrics: MetricsRegistry = _NULL_METRICS
        self.log: EventLog = NULL_LOG
        self._swept = False
        #: ``(stage tag, path, fingerprint) -> (source, key)``; see
        #: :meth:`cached_key`.
        self._key_memo: Dict[Tuple[str, str, str], Tuple[str, str]] = {}

    def attach(self, metrics: MetricsRegistry = None,
               log: EventLog = None) -> "ObjectStore":
        """Route accounting into a metrics registry and an event log.

        The pipeline attaches its tracer's registry and configured log
        here, so store behavior shows up in ``--metrics-json``,
        Prometheus output, and ``--log-json`` without the store ever
        importing the pipeline.  Returns ``self`` for chaining.
        """
        self.metrics = metrics if metrics is not None else _NULL_METRICS
        self.log = log if log is not None else NULL_LOG
        return self

    # ------------------------------------------------------------------

    @property
    def write_root(self) -> str:
        """Where :meth:`put` lands — the shard when one is configured."""
        return self.shard_root if self.shard_root is not None else self.root

    @staticmethod
    def key_for(stage_tag: str, path: str, source: str,
                fingerprint: str = "") -> str:
        """The object key for one per-file result.

        Args:
            stage_tag: versioned stage name (:data:`~repro.core.cache.
                PARSE_TAG` / :data:`~repro.core.cache.CHECK_TAG`).
            path: the file's tree-relative path (findings embed it, so
                the same text at a different path is a different entry).
            source: the full source text.
            fingerprint: extra key material — for checker bundles, the
                joined checker fingerprints.
        """
        digest = hashlib.sha256()
        for part in (SCHEMA_TAG, stage_tag, fingerprint, path, source):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x1f")
        return digest.hexdigest()

    def cached_key(self, stage_tag: str, path: str, source: str,
                   fingerprint: str = "") -> str:
        """:meth:`key_for`, memoized on this store instance.

        The memo is keyed by ``(stage_tag, path, fingerprint)`` and
        checked against the source text (a long-lived caller re-handing
        the same string object compares by identity, at no cost); a
        different source re-hashes and replaces the entry.  The key
        always equals a fresh :meth:`key_for`.
        """
        slot = (stage_tag, path, fingerprint)
        known = self._key_memo.get(slot)
        if known is not None and known[0] == source:
            return known[1]
        key = self.key_for(stage_tag, path, source, fingerprint)
        self._key_memo[slot] = (source, key)
        return key

    def prune_key_memo(self, paths: Container[str]) -> None:
        """Drop the :meth:`cached_key` entries of paths not in ``paths``
        (files gone from the tree), so the memo follows the tree."""
        memo = self._key_memo
        for slot in [slot for slot in memo if slot[1] not in paths]:
            del memo[slot]

    def entry_path(self, key: str, root: Optional[str] = None) -> str:
        """Filesystem path of the entry for ``key`` (may not exist)."""
        return os.path.join(root if root is not None else self.root,
                            key[:2], key + ".pkl")

    def _read_roots(self) -> Tuple[str, ...]:
        if self.shard_root is not None:
            return (self.root, self.shard_root)
        return (self.root,)

    # ------------------------------------------------------------------

    def sweep_stale(self, root: Optional[str] = None) -> int:
        """Remove ``*.tmp.<pid>`` leftovers from crashed writers.

        A writer that dies between creating its temp file and the atomic
        ``os.replace`` leaves the temp behind forever; enough crashed
        runs and the object area fills with garbage.  A temp file is
        stale when its owning process is gone (or its name is mangled).
        Sweeps the write area by default.  Returns the number of files
        removed; never raises.
        """
        area = root if root is not None else self.write_root
        removed = 0
        try:
            directories = os.listdir(area)
        except OSError:
            return 0
        for subdirectory in directories:
            directory = os.path.join(area, subdirectory)
            try:
                names = os.listdir(directory)
            except (OSError, NotADirectoryError):
                continue
            for name in names:
                if ".tmp." not in name:
                    continue
                pid_text = name.rpartition(".tmp.")[2]
                if pid_text.isdigit() and _process_alive(int(pid_text)):
                    continue  # a concurrent writer; leave its temp alone
                try:
                    os.remove(os.path.join(directory, name))
                    removed += 1
                except OSError:
                    pass
        if removed:
            self.metrics.counter("cache.swept_tmp").inc(removed)
            self.log.info("cache.sweep", root=area, removed=removed)
        return removed

    def get(self, key: str) -> Any:
        """The stored value for ``key``, or :data:`CACHE_MISS`.

        Corrupt, truncated, or unreadable entries count as misses — the
        caller recomputes and overwrites them.  Absence
        (``FileNotFoundError``, or a parent directory that is not a
        directory at all) is a *plain* miss; an entry that exists but
        cannot be opened or loaded is additionally counted as corrupt
        and logged, so silent store rot is visible in telemetry.
        """
        for root in self._read_roots():
            path = self.entry_path(key, root)
            try:
                handle = open(path, "rb")
            except (FileNotFoundError, NotADirectoryError):
                continue  # absent here; try the next area
            except OSError as error:
                return self._corrupt_miss(path, error)
            try:
                with handle:
                    value = pickle.load(handle)
            except _LOAD_ERRORS as error:
                return self._corrupt_miss(path, error)
            self.hits += 1
            self.metrics.counter("cache.hits").inc()
            self.referenced.add(key)
            return value
        self.misses += 1
        self.metrics.counter("cache.misses").inc()
        return CACHE_MISS

    def _corrupt_miss(self, path: str, error: Exception) -> Any:
        self.misses += 1
        self.corrupt_entries += 1
        self.metrics.counter("cache.misses").inc()
        self.metrics.counter("cache.corrupt_entries").inc()
        self.log.warning("cache.corrupt_entry", path=path,
                         error=f"{type(error).__name__}: {error}")
        return CACHE_MISS

    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` under ``key``; False when the write failed.

        The write is atomic and best-effort: store trouble must never
        fail an assessment.  That contract covers more than disk
        trouble — an unpicklable ``value`` (``PicklingError`` or
        ``TypeError``) and deeply recursive payloads
        (``RecursionError``) are swallowed the same way, and the first
        write of a process sweeps stale temp files left behind by
        crashed writers.
        """
        if not self._swept:
            self._swept = True
            self.sweep_stale()
        path = self.entry_path(key, self.write_root)
        temporary = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(temporary, "wb") as handle:
                pickle.dump(value, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temporary, path)
        except (OSError, pickle.PicklingError, TypeError,
                AttributeError, RecursionError):
            try:
                os.remove(temporary)
            except OSError:
                pass
            return False
        self.puts += 1
        self.metrics.counter("cache.puts").inc()
        self.referenced.add(key)
        return True

    # ------------------------------------------------------------------
    # area iteration (merge / gc building block)

    def entries(self, root: Optional[str] = None
                ) -> Iterator[Tuple[str, str]]:
        """Yield ``(key, path)`` for every entry in an area, sorted.

        Sorted traversal keeps everything built on top (merges, GC
        decisions, stats) deterministic.  Missing areas yield nothing.
        """
        area = root if root is not None else self.root
        try:
            subdirectories = sorted(os.listdir(area))
        except OSError:
            return
        for subdirectory in subdirectories:
            directory = os.path.join(area, subdirectory)
            try:
                names = sorted(os.listdir(directory))
            except (OSError, NotADirectoryError):
                continue
            for name in names:
                if name.endswith(".pkl"):
                    yield name[:-4], os.path.join(directory, name)
