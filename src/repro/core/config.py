"""Configuration of the assessment pipeline, and the command-line
options every pipeline front end (``repro-assess``, ``repro-serve``)
shares."""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, TextIO, Tuple

from ..checkers.architecture import ArchitectureConfig, module_from_path
from ..checkers.style import StyleConfig
from ..errors import ConfigError
from ..iso26262.asil import Asil, TARGET_ASIL
from ..iso26262.compliance import ComplianceThresholds
from ..obs import LEVELS, EventLog, Tracer
from ..rules import REGISTRY, Baseline, RuleProfile, profile_from_globs
from ..store.objects import ObjectStore


@dataclass
class PipelineConfig:
    """Everything tunable about one assessment run.

    Attributes:
        target_asil: the ASIL the verdicts are computed against (the paper
            argues ASIL D for the full AD pipeline).
        thresholds: verdict cut-offs.
        style: style-checker limits (Google defaults).
        architecture: architectural-design limits.
        module_of: maps a file path to its module name.
        skip_unparseable: tolerate files the fuzzy parser rejects
            (they are recorded, not fatal) — industrial trees always
            contain a few.
        tracer: telemetry sink (spans + metrics) threaded through every
            pipeline stage; ``None`` means the zero-cost
            :data:`~repro.obs.NULL_TRACER`.
        log: structured event sink (:class:`~repro.obs.EventLog`)
            receiving leveled JSONL events from every load-bearing
            failure-handling point (parse failures, checker crashes,
            worker faults, cache corruption); ``None`` means the
            zero-cost :data:`~repro.obs.NULL_LOG`.  Worker chunks
            buffer their events and the pipeline grafts them back,
            exactly as worker traces are grafted.
        jobs: worker-process count for the parse and per-unit
            checker fan-out; 1 (the default) is the fully serial path,
            0 means one worker per CPU this process may run on.
            Results are identical at any setting.
        executor: a leftover kept only for the benchmark harness,
            which builds ``PipelineConfig(executor="process")``; its
            one legal value is ``"process"`` (the default), and the
            pipeline passes it to :func:`~repro.core.parallel.run_tasks`
            as a fault-counter label.
        cache: optional content-addressed :class:`~repro.store.
            objects.ObjectStore`; unchanged files short-circuit to
            cached parse results and per-unit checker reports.  A
            store-backed cache (:meth:`repro.store.store.Store.
            object_store`) can also redirect writes into a per-process
            shard directory for later ``repro-store merge``.
        shard: optional ``"K/N"`` slice — assess only every Nth file
            of the sorted corpus starting at the Kth (1-based), so N
            cooperating processes cover the corpus disjointly and a
            merge of their stores replays byte-identically.  ``None``
            (the default) assesses everything.
        rules: optional :class:`~repro.rules.RuleProfile` — enable/
            disable globs and per-rule severity overrides applied at
            finding-emission time.  ``None`` (the default) leaves every
            registered rule at its registry defaults and keeps results
            byte-identical to earlier releases; a profile also folds
            into each checker's fingerprint so cached bundles
            invalidate when the effective rule set changes.
        baseline: optional :class:`~repro.rules.Baseline` snapshot of a
            previous run's findings; when set, the assessment result
            carries a comparison reporting only findings absent from
            the snapshot.
        strict: abort on the first internal fault (a checker raising a
            non-:class:`~repro.errors.ReproError`, a parser-internal
            crash) instead of containing it.  The default ``False``
            contains faults as :class:`~repro.checkers.base.
            CheckerCrash` records: the run completes with the remaining
            checkers and the result is marked
            :attr:`~repro.core.assessment.AssessmentResult.degraded`.
        task_timeout: per-task deadline in seconds for the worker pool
            (``jobs > 1``), a finite positive number; a task that
            exceeds it is abandoned and its chunk recomputed serially
            in the parent.  ``None`` (the default) waits forever.
        extra_checkers: additional :class:`~repro.checkers.base.
            Checker` instances appended after the built-in nine.  They
            feed findings and degradations but no ISO evidence keys;
            the fault-injection harness (:mod:`repro.testing.faults`)
            uses this seam.

    An invalid configuration cannot be constructed: a negative
    ``jobs``, a ``task_timeout`` that is not a finite positive number,
    a malformed ``shard`` or an unknown ``executor`` raises
    :class:`~repro.errors.ConfigError`.
    """

    target_asil: Asil = TARGET_ASIL
    thresholds: ComplianceThresholds = field(
        default_factory=ComplianceThresholds)
    style: StyleConfig = field(default_factory=StyleConfig)
    architecture: ArchitectureConfig = field(
        default_factory=ArchitectureConfig)
    module_of: Callable[[str], str] = module_from_path
    skip_unparseable: bool = True
    tracer: Optional[Tracer] = None
    log: Optional[EventLog] = None
    jobs: int = 1
    executor: str = "process"
    cache: Optional[ObjectStore] = None
    shard: Optional[str] = None
    rules: Optional[RuleProfile] = None
    baseline: Optional[Baseline] = None
    strict: bool = False
    task_timeout: Optional[float] = None
    extra_checkers: tuple = ()

    def __post_init__(self) -> None:
        if self.executor != "process":
            raise ConfigError(
                f"executor must be 'process', got {self.executor!r}: "
                f"jobs now means worker processes")
        if self.jobs < 0:
            raise ConfigError(f"jobs must be >= 0, got {self.jobs}")
        timeout = self.task_timeout
        if timeout is not None and not (math.isfinite(timeout)
                                        and timeout > 0):
            raise ConfigError(f"task_timeout must be a finite number "
                              f"of seconds > 0, got {timeout}")
        parse_shard_spec(self.shard)


def parse_shard_spec(spec: Optional[str]) -> Optional[Tuple[int, int]]:
    """Validate a ``"K/N"`` shard slice into ``(K, N)``.

    ``K`` is 1-based; ``1 <= K <= N``.  ``None`` means "the whole
    corpus".  Raises :class:`~repro.errors.ConfigError` on anything
    else.
    """
    if spec is None:
        return None
    head, separator, tail = spec.partition("/")
    if (not separator or not head.strip().isdigit()
            or not tail.strip().isdigit()):
        raise ConfigError(
            f"shard must look like K/N (e.g. 2/4), got {spec!r}")
    index, count = int(head), int(tail)
    if count < 1 or not 1 <= index <= count:
        raise ConfigError(
            f"shard K/N needs 1 <= K <= N, got {spec!r}")
    return index, count


def add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    """Declare the flags every pipeline front end shares; read them
    back with :func:`pipeline_config_from_args`."""
    parser.add_argument("--enable", action="append", metavar="GLOB",
                        default=None,
                        help="enable only rules matching GLOB "
                             "(repeatable; default: all rules)")
    parser.add_argument("--disable", action="append", metavar="GLOB",
                        default=None,
                        help="disable rules matching GLOB (repeatable; "
                             "applied after --enable)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for each assessment's "
                             "parse/checker fan-out (default 1 = "
                             "serial, 0 = one per CPU); results are "
                             "identical at any setting")
    parser.add_argument("--strict", action="store_true",
                        help="abort on the first internal fault "
                             "(checker crash, parser bug) instead of "
                             "containing it; without this flag a "
                             "faulted assessment completes degraded "
                             "(repro-assess exits 3, a served reply "
                             "reads \"degraded\": true)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task deadline for --jobs > 1; a "
                             "task exceeding it is abandoned and its "
                             "chunk recomputed serially")
    parser.add_argument("--log-json", metavar="FILE",
                        help="write structured JSONL events (parse "
                             "failures, skipped files, checker "
                             "crashes, worker faults, cache "
                             "corruption, served requests) to FILE")
    parser.add_argument("--log-level", choices=tuple(LEVELS),
                        default=None,
                        help="minimum level written to --log-json "
                             "(default info)")


def pipeline_config_from_args(args: argparse.Namespace, *, run_id: str,
                              **fields
                              ) -> Tuple[PipelineConfig, Optional[TextIO]]:
    """The validated configuration the :func:`add_pipeline_options`
    flags in ``args`` describe, plus the opened ``--log-json`` handle
    (``None`` without one), which the caller closes.

    ``fields`` are the front end's own :class:`PipelineConfig` fields
    (``repro-assess`` passes its tracer, cache, shard and baseline),
    validated in the same construction; ``run_id`` stamps the event
    log.  Raises :class:`~repro.errors.ConfigError` or
    :class:`~repro.errors.RuleError` whose text is the one line a front
    end prints before exiting 2; no log file is created for a
    configuration that fails.
    """
    if args.log_level is not None and not args.log_json:
        raise ConfigError("--log-level has no effect without --log-json")
    rules = profile_from_globs(args.enable, args.disable, REGISTRY)
    try:
        config = PipelineConfig(rules=rules, jobs=args.jobs,
                                strict=args.strict,
                                task_timeout=args.task_timeout, **fields)
    except ConfigError as error:
        raise ConfigError(f"bad pipeline configuration: {error}") from None
    if not args.log_json:
        return config, None
    try:
        handle = open(args.log_json, "w", encoding="utf-8")
    except OSError as error:
        raise ConfigError(f"cannot open event log: {error}") from None
    config.log = EventLog(handle, level=args.log_level or "info",
                          run_id=run_id)
    return config, handle
