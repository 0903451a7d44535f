"""Incremental tree watching: stat-first, content-verified.

The watch loop's contract with the pipeline is *don't re-read what
didn't change, don't re-emit what didn't really change*:

* one :func:`os.scandir` walk stats every file (the walker
  :func:`~repro.corpus.writer.read_tree` uses too) and decides which
  files even need re-reading (mtime_ns + size unchanged ⇒ content assumed
  unchanged — the same heuristic build systems use);
* files whose stat moved are re-read and compared with the kept
  text: an editor's save that rewrote identical bytes (format-on-save,
  atomic-rename churn) is *touched*, not *changed*, and triggers no
  re-assessment;
* a file that vanishes between the walk and the read (the classic
  atomic-rename race) is folded into ``removed`` instead of crashing
  the iteration, and one that turns unreadable (EACCES) is skipped
  with a ``parse.skipped_unreadable`` warning, keeping its last-known
  content so the corpus stays consistent.  A dangling symlink cannot
  be statted and is not part of the tree at all.

The watcher owns the authoritative ``{path: source}`` mapping the
server feeds the pipeline.  A file the poll did not re-read keeps its
very string object, which is how the pipeline tells an untouched file
from a changed one without hashing it (see
:meth:`~repro.core.pipeline.AssessmentPipeline.run`); a re-read file
gets a new string and goes through the content-addressed result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..corpus.writer import SOURCE_EXTENSIONS, iter_tree_entries
from ..obs.log import NULL_LOG, EventLog

__all__ = ["TreeWatcher", "WatchDelta"]


@dataclass
class WatchDelta:
    """What one :meth:`TreeWatcher.poll` observed, all paths sorted.

    Attributes:
        added: files that appeared since the previous poll.
        changed: files whose *content* changed.
        removed: files that disappeared (including mid-iteration races
            where the walk saw the name but the read did not).
        touched: files whose stat moved but whose content is
            byte-identical — observed, deliberately not re-emitted.
        skipped: files that could not be read this poll (logged as
            ``parse.skipped_unreadable``); previously-known content is
            retained.
    """

    added: List[str] = field(default_factory=list)
    changed: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    touched: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def material(self) -> bool:
        """True when the corpus the pipeline sees actually differs."""
        return bool(self.added or self.changed or self.removed)

    def to_dict(self) -> Dict[str, List[str]]:
        return {"added": self.added, "changed": self.changed,
                "removed": self.removed, "touched": self.touched,
                "skipped": self.skipped}


class TreeWatcher:
    """Stat-based incremental view of one source tree.

    Attributes:
        root: the watched tree root (as given).
        sources: the authoritative ``{relative path: source}`` mapping
            after the latest :meth:`poll`.
        polls: total polls taken.
        skipped_total: cumulative unreadable-file skips, for the serve
            ``stats`` verb.
    """

    def __init__(self, root: str, extensions=SOURCE_EXTENSIONS,
                 log: Optional[EventLog] = None) -> None:
        self.root = root
        self.extensions = extensions
        self.log = log if log is not None else NULL_LOG
        self.sources: Dict[str, str] = {}
        self.polls = 0
        self.skipped_total = 0
        self._stats: Dict[str, Tuple[int, int]] = {}

    # ------------------------------------------------------------------

    def _read(self, full: str) -> str:
        with open(full, "r", encoding="utf-8",
                  errors="replace") as handle:
            return handle.read()

    def _skip(self, relative: str, error: OSError,
              delta: WatchDelta) -> None:
        self.log.warning("parse.skipped_unreadable", path=relative,
                         error=f"{type(error).__name__}: {error}")
        delta.skipped.append(relative)
        self.skipped_total += 1

    def poll(self) -> WatchDelta:
        """Observe the tree once and fold differences into state.

        Raises:
            CorpusError: when the root itself is gone or not a
                directory (the tree, not a file, disappeared — that is
                not a per-file race to paper over).
        """
        self.polls += 1
        delta = WatchDelta()
        sources = self.sources
        stats = self._stats
        seen = set()
        for relative, entry in iter_tree_entries(self.root,
                                                 self.extensions):
            try:
                stat = entry.stat()
            except OSError:
                # Vanished between the walk and the stat (or a dangling
                # link): for a known file that is a removal; an unknown
                # one never existed as far as the corpus is concerned.
                continue
            seen.add(relative)
            state = (stat.st_mtime_ns, stat.st_size)
            if stats.get(relative) == state:
                continue  # stat-identical: not even re-read
            known = relative in sources
            try:
                text = self._read(entry.path)
            except FileNotFoundError:
                seen.discard(relative)  # deleted mid-iteration
                continue
            except OSError as error:
                self._skip(relative, error, delta)
                if not known:
                    seen.discard(relative)
                continue
            if not known:
                delta.added.append(relative)
            elif text == sources[relative]:
                delta.touched.append(relative)
                stats[relative] = state
                continue
            else:
                delta.changed.append(relative)
            sources[relative] = text
            stats[relative] = state
        for relative in sorted(set(self.sources) - seen):
            delta.removed.append(relative)
            del self.sources[relative]
            self._stats.pop(relative, None)
        for paths in (delta.added, delta.changed, delta.touched,
                      delta.skipped):
            paths.sort()
        return delta
