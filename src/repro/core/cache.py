"""Content-addressed result cache for incremental re-assessment.

The paper's sweep is rerun continuously in CI, where most files are
unchanged between runs.  This cache short-circuits the two expensive
per-file stages — fuzzy parsing and per-unit checking — by keying their
results on a SHA-256 over the source text, the file path, and a stage
version tag, so a changed file, a changed checker implementation, or a
changed checker configuration each invalidate exactly the entries they
affect and nothing else.

Any :class:`repro.store.objects.ObjectStore` is a result cache; it owns
the mechanics — the atomic two-level fanout object layout,
hit/miss/corrupt accounting, stale-temp sweeping, shard redirection,
merge and GC.  A ``--store`` run gets one from
:meth:`repro.store.store.Store.object_store`, rooted at
``<store>/objects`` beside the run history and shards.  What this
module owns is the cache *semantics* — the stage version tags below —
and :class:`MemoryCache`, the disk-free backend ``repro-serve`` uses
when it has no store.
"""

from __future__ import annotations

from typing import (Any, Collection, Dict, Iterator, Optional, Set,
                    Tuple)

from ..store.objects import CACHE_MISS, SCHEMA_TAG, ObjectStore

__all__ = ["CACHE_MISS", "CHECK_TAG", "MemoryCache", "PARSE_TAG",
           "SCHEMA_TAG"]

#: Stage tag for parse results; bump when the fuzzy parser's output for
#: an unchanged source can change (see :mod:`repro.lang.cppmodel`).
#: parse:2 — ParseOutcome grew the ``crash`` field.
#: parse:3 — lexer rewrite: hex floats lex correctly, number
#: maximal-munch edges changed, preprocessor summary built from the
#: token stream.
#: parse:4 — ParseOutcome holds the token-free UnitSummary (functions,
#: classes, globals, includes, line counts, deviations), not the unit.
PARSE_TAG = "parse:4"

#: Stage tag for per-unit checker bundles; the bundle key additionally
#: folds in every checker's :meth:`~repro.checkers.base.Checker.
#: fingerprint`, so this only needs bumping for cross-checker changes.
#: check:2 — CheckerReport grew ``suppressed``/``rules`` fields.
#: check:3 — CheckerReport grew the ``crashes`` field.
#: check:4 — fused single-sweep engine fills bundles; unit_design's
#: per-unit portion joined the bundle.
CHECK_TAG = "check:4"


class MemoryCache(ObjectStore):
    """A process-lifetime result cache: same contract, no disk.

    The warm heart of ``repro-serve``: the daemon keeps parse outcomes
    and per-unit checker bundles in a plain dict, so a repeat ``assess``
    of an unchanged tree recomputes nothing and never touches the
    filesystem or a pickle.  Values are stored *by reference* — the
    pipeline treats cached outcomes and bundles as immutable, exactly
    as it treats entries round-tripped through the on-disk store.

    Hit/miss/put accounting matches :class:`ObjectStore` (including
    :meth:`attach`-routed metrics counters), so the serve layer's
    per-request cache deltas read the same whether the backend is
    memory or a sharded ``--store``.
    """

    def __init__(self) -> None:
        super().__init__(":memory:")
        self._entries: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def sweep_stale(self, root: Optional[str] = None) -> int:
        return 0  # nothing on disk to sweep

    def get(self, key: str) -> Any:
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            self.metrics.counter("cache.misses").inc()
            return CACHE_MISS
        self.hits += 1
        self.metrics.counter("cache.hits").inc()
        self.referenced.add(key)
        return value

    def reuse(self, keys: Collection[str]) -> bool:
        """Account ``keys`` as hits without looking them up, when every
        one is still held: a lookup would return the very value the
        caller holds, so the accounting is a hit's — :attr:`hits`, the
        ``cache.hits`` counter and :attr:`referenced` (which
        :meth:`retain` keeps).  Returns ``False``, accounting nothing,
        when any entry is gone (dropped by :meth:`retain` or
        :meth:`clear`)."""
        entries = self._entries
        if not all(map(entries.__contains__, keys)):
            return False
        self.hits += len(keys)
        self.metrics.counter("cache.hits").inc(len(keys))
        self.referenced.update(keys)
        return True

    def put(self, key: str, value: Any) -> bool:
        self._entries[key] = value
        self.puts += 1
        self.metrics.counter("cache.puts").inc()
        self.referenced.add(key)
        return True

    def entries(self, root: Optional[str] = None
                ) -> Iterator[Tuple[str, str]]:
        return iter(())  # no filesystem entries to merge or GC

    def retain(self, keys: Set[str]) -> int:
        """Keep only the entries under ``keys``; drop every other one.

        ``repro-serve`` calls this after each assessment with the keys
        its roots' latest assessments touched, so an edited file's
        superseded parse and checker entries do not pile up: the cache
        tracks the trees, not their edit history.  :attr:`referenced`
        is trimmed to the kept entries.  Returns the number dropped.
        """
        stale = self._entries.keys() - keys
        for key in stale:
            del self._entries[key]
        self.referenced.intersection_update(self._entries)
        return len(stale)

    def clear(self) -> int:
        """Drop every entry (an explicit ``serve`` cache reset).

        Accounting is preserved — a reset is an operational event, not
        a new process.  Returns the number of entries dropped.
        """
        dropped = len(self._entries)
        self._entries.clear()
        return dropped
