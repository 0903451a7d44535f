"""Parallel execution engine for the assessment pipeline.

The pipeline's per-file work — parse, summarize, and sweep the per-unit
checkers — is embarrassingly parallel, so this module runs it as one
task per file batch (:func:`run_parse_task`) over a
``concurrent.futures`` process pool (``jobs`` worker processes), or
inline when serial: the same task function either way.  The contract,
relied on by the determinism tests, is that a parallel run is
*result-identical* to the serial run:

* work is chunked from the already-sorted path list and results are
  reassembled in that order, so checker reports merge in exactly the
  serial order;
* only checkers whose project report can be replayed from per-unit
  reports (:func:`~repro.checkers.base.split_checkers`) are swept in
  the task; genuinely project-level checkers (architecture) see all
  units at once, exactly as in a serial run.

Each unit is swept by the fused single-sweep engine
(:func:`repro.engine.driver.fused_unit_bundle`): one token walk per
unit dispatches to every checker's sweep visitor, each checker's only
analysis code.  The full
:class:`TranslationUnit` is dropped right after its sweep; a task
returns only the token-free :class:`ParseOutcome` (the file's compact
:class:`~repro.lang.summary.UnitSummary`, which is also what the
result cache keeps) and the per-unit checker reports, so no unit ever
crosses a process boundary or outlives its own sweep.  Tasks do no
store I/O: the parent is the only process that reads or writes the
result cache, pooled or serial.

Each task runs under its own :class:`~repro.obs.Tracer`; the resulting
span forest and metrics are grafted back into the parent trace by
:func:`graft_worker_trace`, so ``--trace`` shows one ``parse_worker``
span per chunk with real per-file child spans.  Structured log events
follow the same fan-in: tasks record into a picklable
:class:`~repro.obs.BufferLog` shipped back with the results, and the
parent replays it via :meth:`~repro.obs.EventLog.graft` with the
worker index stamped on every event.

Task functions are module-level so the process pool can pickle them;
every payload (tasks, parse outcomes, checker reports, worker
tracers) is plain-dataclass picklable.

The engine is additionally *fault-isolated* (see :func:`run_tasks` and
:func:`~repro.engine.driver.fused_unit_bundle`): a dead, hung or
raising worker costs one serial re-run of its chunk, and a crashing
checker costs one ``internal.checker_crash`` finding on the unit it
crashed on — never the run.
"""

from __future__ import annotations

import os
from concurrent import futures
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..checkers.base import (
    Checker,
    CheckerCrash,
    CheckerReport,
    make_crash,
)
from ..engine.driver import fused_unit_bundle
from ..errors import ConfigError, SourceError
from ..lang.cppmodel import TranslationUnit, parse_translation_unit
from ..lang.summary import UnitSummary, summarize_unit
from ..obs import NULL_LOG, NULL_TRACER, BufferLog, EventLog, Span, Tracer

#: One file's per-unit checker reports, ``{checker name: report}``.
Bundle = Dict[str, CheckerReport]


def worker_count(jobs: int) -> int:
    """Resolve a ``jobs`` setting: 0 means one worker per CPU this
    process may run on (its affinity set, where the platform has one)."""
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    return jobs


def chunk_evenly(items: Sequence, chunks: int) -> List[List]:
    """Split ``items`` into at most ``chunks`` balanced runs, in order.

    Concatenating the result reproduces ``items`` exactly — the order
    guarantee the deterministic merge builds on.
    """
    if chunks < 1:
        raise ConfigError(f"chunk count must be >= 1, got {chunks}")
    chunks = min(chunks, len(items))
    if chunks == 0:
        return []
    size, remainder = divmod(len(items), chunks)
    result: List[List] = []
    start = 0
    for index in range(chunks):
        stop = start + size + (1 if index < remainder else 0)
        result.append(list(items[start:stop]))
        start = stop
    return result


#: Internal sentinel for "this task has no pool result yet".
_PENDING = object()


def _count(metrics, name: str, **labels) -> None:
    if metrics is not None:
        metrics.counter(name, **labels).inc()


def run_tasks(function: Callable, tasks: Sequence, *, jobs: int,
              executor: str = "process", timeout: Optional[float] = None,
              metrics=None, log: EventLog = NULL_LOG) -> List:
    """Run ``function`` over ``tasks`` on a process pool; results in
    task order.

    ``jobs <= 1`` (or a single task) short-circuits to a plain loop —
    the serial path allocates no pool at all.

    The pooled path is fault-isolated by one rule: a task whose worker
    dies (``BrokenProcessPool``), that raises — its own exception or a
    transport fault such as an unpicklable payload or result — or that
    exceeds the per-task ``timeout`` is counted, logged, and re-executed
    *serially* in the calling process, once.  Every worker-level fault
    costs at worst a slow chunk instead of a lost run; a genuine task
    exception re-raises from the serial re-run.

    Args:
        executor: only the label on the fault counters and events.  It
            is kept for the benchmark harness, which keys its pool IPC
            accounting on ``executor="process"``.
        timeout: per-task result deadline in seconds; ``None`` waits
            forever.  A timed-out worker task is abandoned (its pool
            cannot interrupt it) and its chunk recomputed serially.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; failure
            handling is counted under ``parallel.task_timeouts``,
            ``parallel.worker_deaths``, ``parallel.task_errors``,
            ``parallel.task_retries``, and ``parallel.serial_fallbacks``.
        log: optional :class:`~repro.obs.EventLog`; the same failure
            handling is logged as ``parallel.task_timeout``,
            ``parallel.worker_death``, ``parallel.task_error``, and
            ``parallel.serial_fallback`` events.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [function(task) for task in tasks]
    results: List = [_PENDING] * len(tasks)
    pool = futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    try:
        pending = [pool.submit(function, task) for task in tasks]
        for index, future in enumerate(pending):
            try:
                results[index] = future.result(timeout=timeout)
            except futures.TimeoutError:
                _count(metrics, "parallel.task_timeouts",
                       executor=executor)
                log.warning("parallel.task_timeout", task=index,
                            executor=executor, timeout=timeout)
                future.cancel()
            except futures.BrokenExecutor:
                _count(metrics, "parallel.worker_deaths",
                       executor=executor)
                log.error("parallel.worker_death", task=index,
                          executor=executor)
            except Exception:
                _count(metrics, "parallel.task_errors",
                       executor=executor)
                log.error("parallel.task_error", task=index,
                          executor=executor)
    finally:
        # wait=False: a hung worker must not hang the parent too.  A
        # still-running abandoned task keeps its worker busy until it
        # finishes, but the run no longer depends on it.
        pool.shutdown(wait=False)
    for index, task in enumerate(tasks):
        if results[index] is _PENDING:
            _count(metrics, "parallel.task_retries", executor=executor)
            _count(metrics, "parallel.serial_fallbacks",
                   executor=executor)
            log.warning("parallel.serial_fallback", task=index,
                        executor=executor)
            results[index] = function(task)
    return results


# ----------------------------------------------------------------------
# the per-file task: parse, summarize, sweep


@dataclass
class ParseOutcome:
    """What parsing one file produced: a unit summary, a parse error, or
    a contained parser-internal crash.

    This is the ``PARSE_TAG`` cache entry, and it is token-free: the
    full model behind :attr:`summary` never leaves the task that parsed
    and swept it.
    """

    path: str
    summary: Optional[UnitSummary] = None
    error: Optional[SourceError] = None
    #: A non-``SourceError`` raised inside the parser, contained (unless
    #: the run is strict); the file counts as unparseable and the run
    #: as degraded.
    crash: Optional[CheckerCrash] = None


@dataclass
class ParseTask:
    """One worker's share of the per-file stage: every item is parsed,
    summarized and — when it parses — swept by ``checkers``.

    A task carries sources, never cache keys or store paths: the parent
    looks up and writes every cache entry itself.
    """

    items: List[Tuple[str, str]]
    worker: int
    #: The run's per-unit checkers (see :func:`~repro.checkers.base.
    #: split_checkers`); each reads the text it checks off the unit.
    checkers: List[Checker] = field(default_factory=list)
    traced: bool = False
    #: Re-raise parser and checker crashes instead of containing them.
    strict: bool = False
    #: Record structured events into a shipped-back worker buffer.
    logged: bool = False


def parse_one(path: str, source: str, strict: bool = False
              ) -> Tuple[ParseOutcome, Optional[TranslationUnit]]:
    """Parse and summarize one file, containing both failure modes.

    Returns the outcome and, when the file parsed, its full unit for
    the sweep.  An expected :class:`SourceError` (malformed input)
    lands in ``error``; any other exception is a parser bug, contained
    as a ``crash`` record unless ``strict``.
    """
    try:
        unit = parse_translation_unit(source, path)
    except SourceError as error:
        return ParseOutcome(path, error=error), None
    except Exception as error:
        if strict:
            raise
        return ParseOutcome(path, crash=make_crash(
            "parse", "parse", error, path=path)), None
    return ParseOutcome(path, summary=summarize_unit(unit)), unit


def _worker_context(task) -> Tuple[Tracer, EventLog]:
    """A task's own tracer and event buffer."""
    tracer = Tracer() if task.traced else NULL_TRACER
    log = BufferLog(worker=task.worker) if task.logged else NULL_LOG
    return tracer, log


def run_parse_task(task: ParseTask
                   ) -> Tuple[List[ParseOutcome],
                              Dict[str, Bundle],
                              Optional[Tracer], Optional[List[Dict]]]:
    """Parse, summarize and sweep one chunk of ``(path, source)`` pairs.

    Per-file :class:`SourceError`\\ s (and, unless strict, parser and
    checker crashes) are contained, so a poisoned file never kills the
    pool.  Each full unit is dropped as soon as its sweep is done: only
    token-free results leave the task.  The task is a pure function of
    its sources and checkers: it opens no store and writes no file.

    Returns ``(outcomes, {path: {checker name: per-unit report}},
    worker tracer or None, worker events or None)``; the parent grafts
    the last two back into its own trace and event log.
    """
    tracer, log = _worker_context(task)
    timings = tracer.metrics.histogram("pipeline.parse_seconds")
    outcomes: List[ParseOutcome] = []
    bundles: Dict[str, Bundle] = {}
    with tracer.span("parse_worker", worker=task.worker) as worker_span:
        for path, source in task.items:
            with tracer.span("parse_file", path=path) as span:
                outcome, unit = parse_one(path, source, strict=task.strict)
                if unit is None:
                    span.set("failed", 1)
            if tracer.enabled:
                timings.observe(span.duration)
            outcomes.append(outcome)
            if unit is not None:
                bundles[path] = fused_unit_bundle(
                    task.checkers, unit, strict=task.strict, log=log)
            unit = None  # drop the full unit before the next parse
        failures = len(outcomes) - len(bundles)
        worker_span.set("files", len(task.items))
        worker_span.set("failures", failures)
        worker_span.set("units", len(bundles))
        log.debug("worker.check", units=len(bundles),
                  checkers=len(task.checkers))
        log.debug("worker.parse", files=len(task.items),
                  failures=failures)
    return (outcomes, bundles, tracer if task.traced else None,
            log.events if task.logged else None)


@dataclass
class CheckTask:
    """A sweep-only task over already-parsed units, for callers that
    hold full units themselves; the pipeline's one task is
    :class:`ParseTask`.
    """

    checkers: List[Checker]
    units: List[TranslationUnit]
    worker: int
    traced: bool = False
    strict: bool = False
    logged: bool = False


def run_check_task(task: CheckTask
                   ) -> Tuple[Dict[str, Bundle],
                              Optional[Tracer], Optional[List[Dict]]]:
    """Sweep one chunk of units: ``({path: {checker name: per-unit
    report}}, worker tracer or None, worker events or None)``."""
    tracer, log = _worker_context(task)
    bundles: Dict[str, Bundle] = {}
    with tracer.span("checker_worker", worker=task.worker) as span:
        for unit in task.units:
            bundles[unit.filename] = fused_unit_bundle(
                task.checkers, unit, strict=task.strict, log=log)
        span.set("units", len(task.units))
        span.set("checkers", len(task.checkers))
        log.debug("worker.check", units=len(task.units),
                  checkers=len(task.checkers))
    return (bundles, tracer if task.traced else None,
            log.events if task.logged else None)


def bundle_has_crash(bundle: Dict[str, CheckerReport]) -> bool:
    """True when any report in a per-unit bundle contains a crash.

    Crashed bundles are kept out of the result cache: the fault may be
    transient (and, under ``--strict``, must reproduce, not replay)."""
    return any(report.crashes for report in bundle.values())


# ----------------------------------------------------------------------
# telemetry fan-in


def graft_worker_trace(tracer: Tracer, parent: Span,
                       worker_tracer: Optional[Tracer]) -> None:
    """Reattach a worker's span forest and metrics to the parent trace.

    Worker spans become children of ``parent`` (timestamps come from
    the worker's own monotonic clock, which is process-consistent on
    the platforms we run on), and the worker's counters and histograms
    fold into the parent registry.
    """
    if worker_tracer is None or not tracer.enabled:
        return
    for root in worker_tracer.roots:
        root.parent = parent
        parent.children.append(root)
    tracer.metrics.merge(worker_tracer.metrics)
