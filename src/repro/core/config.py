"""Configuration of the assessment pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..checkers.architecture import ArchitectureConfig, module_from_path
from ..checkers.style import StyleConfig
from ..errors import ConfigError
from ..iso26262.asil import Asil, TARGET_ASIL
from ..iso26262.compliance import ComplianceThresholds
from ..obs import EventLog, Tracer
from ..rules import Baseline, RuleProfile
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
            (``jobs > 1``); a task that exceeds it is abandoned and its
            chunk recomputed serially in the parent.  ``None`` (the
            default) waits forever.
        extra_checkers: additional :class:`~repro.checkers.base.
            Checker` instances appended after the built-in nine.  They
            feed findings and degradations but no ISO evidence keys;
            the fault-injection harness (:mod:`repro.testing.faults`)
            uses this seam.
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
