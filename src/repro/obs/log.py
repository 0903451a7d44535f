"""Structured, leveled JSONL event logging for the assessment stack.

Where the tracer (:mod:`repro.obs.tracer`) answers *how long* things
took, the event log answers *what happened*: one JSON object per line,
each carrying a wall-clock timestamp, the owning run id, a sequence
number, a level, and a dotted event name plus free-form fields::

    {"ts": 1754650000.1, "run": "3f2a9c1b04de", "seq": 7,
     "level": "warning", "event": "parse.failure",
     "path": "perception/lidar.cc", "error": "...", "span": 12}

The contract mirrors the tracer's:

* every instrumented layer takes an optional :class:`EventLog` and
  defaults to :data:`NULL_LOG`, so logging is strictly opt-in and
  zero-cost (and output byte-identical) when disabled;
* events are emitted at the *load-bearing* points only — parse
  failures, unreadable-file skips (``parse.skipped_unreadable``),
  checker crashes, worker deaths and timeouts, serial fallbacks, cache
  corruption and stale-temp sweeps (``cache.sweep``), serve
  request faults (``serve.request_error``, ``serve.crash``) — not per
  unit of work;
* worker chunks log into a picklable :class:`BufferLog`; the parent
  grafts the buffered events back with :meth:`EventLog.graft`, exactly
  as :func:`~repro.core.parallel.graft_worker_trace` does for spans.

Events reference spans by the span's :attr:`~repro.obs.span.Span.id`
(unique per tracer), which also appears in the ``--metrics-json``
span document — the correlation key between the two outputs.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, TextIO

__all__ = [
    "BufferLog",
    "EventLog",
    "LEVELS",
    "NULL_LOG",
    "NullLog",
]

#: Recognized levels, least to most severe.
LEVELS: Dict[str, int] = {
    "debug": 10,
    "info": 20,
    "warning": 30,
    "error": 40,
}


def _level_number(level: str) -> int:
    try:
        return LEVELS[level]
    except KeyError:
        raise ValueError(
            f"log level must be one of {tuple(LEVELS)}, got {level!r}")


class EventLog:
    """Writes leveled, structured events as JSON lines.

    Args:
        stream: text sink for the JSON lines (a file handle, a
            ``StringIO``); each event is written and flushed as one
            line, so a crashing run keeps everything emitted so far.
        level: minimum level written; lower-level events are dropped
            at the emit call.
        run_id: correlation id stamped into every event.
        clock: wall-clock time source (overridable for deterministic
            tests).
    """

    #: False on :class:`NullLog`; lets call sites skip event assembly.
    enabled: bool = True

    def __init__(self, stream: Optional[TextIO], level: str = "info",
                 run_id: str = "", clock=time.time) -> None:
        self._stream = stream
        self.level = _level_number(level)
        self.run_id = run_id
        self._clock = clock
        self._seq = 0

    # ------------------------------------------------------------------

    def emit(self, level: str, event: str, **fields) -> None:
        """Record one event; dropped when below the configured level."""
        if _level_number(level) < self.level:
            return
        record: Dict[str, object] = {
            "ts": round(self._clock(), 6),
            "run": self.run_id,
            "seq": self._seq,
            "level": level,
            "event": event,
        }
        record.update(fields)
        self._seq += 1
        self._write(record)

    def debug(self, event: str, **fields) -> None:
        self.emit("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.emit("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.emit("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.emit("error", event, **fields)

    # ------------------------------------------------------------------

    def graft(self, events: Optional[List[Dict]]) -> None:
        """Replay a worker's buffered events into this log.

        Each event keeps its worker-side timestamp and fields (including
        the stamped ``worker`` index) but is re-sequenced and re-stamped
        with this log's run id, and re-filtered against this log's
        level — the buffer records everything, the parent decides.
        """
        if not events:
            return
        for buffered in events:
            if LEVELS.get(str(buffered.get("level")), 0) < self.level:
                continue
            record = dict(buffered)
            record["run"] = self.run_id
            record["seq"] = self._seq
            self._seq += 1
            self._write(record)

    # ------------------------------------------------------------------

    def _write(self, record: Dict[str, object]) -> None:
        self._stream.write(json.dumps(record) + "\n")
        flush = getattr(self._stream, "flush", None)
        if flush is not None:
            flush()


class BufferLog(EventLog):
    """An event log that buffers records in memory instead of writing.

    Used inside worker chunks: the buffer is plain data (a list of
    dicts), so it crosses process-pool result queues unchanged, and the
    parent replays it with :meth:`EventLog.graft`.  Buffers record at
    ``debug`` level — filtering is the grafting parent's job.

    Args:
        worker: worker index stamped into every buffered event.
    """

    def __init__(self, worker: Optional[int] = None,
                 clock=time.time) -> None:
        super().__init__(stream=None, level="debug", clock=clock)
        self.worker = worker
        self.events: List[Dict] = []

    def _write(self, record: Dict[str, object]) -> None:
        if self.worker is not None:
            record.setdefault("worker", self.worker)
        self.events.append(record)


class NullLog(EventLog):
    """The zero-cost default: every emit is a no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(stream=None, level="error", clock=lambda: 0.0)

    def emit(self, level: str, event: str, **fields) -> None:
        pass

    def debug(self, event: str, **fields) -> None:
        pass

    def info(self, event: str, **fields) -> None:
        pass

    def warning(self, event: str, **fields) -> None:
        pass

    def error(self, event: str, **fields) -> None:
        pass

    def graft(self, events: Optional[List[Dict]]) -> None:
        pass


#: Shared default for every instrumented call site.
NULL_LOG = NullLog()
