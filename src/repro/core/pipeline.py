"""The assessment pipeline: sources in, ISO 26262 verdicts out.

This orchestrates the paper's whole methodology:

1. parse every translation unit into the fuzzy C++ model;
2. compute per-module size/complexity metrics (Figure 3);
3. run all static checkers;
4. assemble the evidence set;
5. apply the compliance engine to the three ISO 26262-6 tables;
6. derive the numbered observations.

The per-file work of stages 1 and 3 — parse, summarize, and sweep the
per-unit checkers — is one task of the execution engine in
:mod:`repro.core.parallel`, run inline when serial and fanned out over
a pool of worker processes when :attr:`PipelineConfig.jobs` > 1.  With a
:attr:`PipelineConfig.cache` configured, both cache entries of every
file are looked up before dispatch, and only the files they do not
settle are handed to the one fan-out.  The parent is the store's only
reader and writer: a task gets sources and returns results, and the
parent caches them, pooled or serial.  Either way the produced
:class:`AssessmentResult` is identical to a serial, cold-cache run:
chunks are cut from the sorted path list and merged back in that
order, and only checkers whose project report is a pure per-unit merge
are swept in the task.

A full :class:`~repro.lang.cppmodel.TranslationUnit` lives only inside
the task that parses and sweeps it, one file at a time.  Every later
stage — metrics, the checkers' project-level finish, the project-level
checkers — reads the compact :class:`~repro.lang.summary.UnitSummary`
taken right after parsing, and that summary is what the parse cache
entry holds.  A file whose parse entry hits but whose checker entry
misses (a changed profile or checker) is re-parsed in the task for its
sweep.

Stages 2–6 (metrics, the checkers' project-level finish, evidence,
compliance, observations) read nothing but the per-file outputs, the
checkers and a few config values.  Every cache-backed result carries a
:class:`ProjectSignature` of exactly those inputs and a private
:class:`ProjectParts` record of the per-file summaries and bundles the
stages consumed.  Each project part is a fold over files:
:meth:`AssessmentPipeline.run` handed a ``previous`` result whose
signature matches in everything but the files rebuilds each part from
the files whose :data:`FileKey` changed and takes the rest from
``previous`` — a module's metrics are re-measured only when one of its
files changed, a per-unit checker's report subtracts the changed files'
old per-unit reports and adds their new ones, unit design and
architecture recompute only the partials those files touch, and the
evidence reads the folded rule counts.  A cold run is the same fold
starting from nothing, and an unchanged tree is the empty fold: every
part, down to the tables and observations, is shared (``repro-serve``
does this for a repeat ``assess``).  Either way the result equals a
cold one.  Shared parts are never mutated, by the pipeline or by any
reader.
"""

from __future__ import annotations

import gc
from typing import (Callable, Dict, FrozenSet, List, Mapping, NamedTuple,
                    Optional, Tuple)

from ..checkers.architecture import ArchitectureChecker, ArchitectureConfig
from ..checkers.base import (
    Checker,
    CheckerCrash,
    CheckerReport,
    ProjectChange,
    finish_checkers,
    split_checkers,
)
from ..checkers.casts import CastChecker
from ..checkers.defensive import DefensiveChecker
from ..checkers.globals_check import GlobalVariableChecker
from ..checkers.gpu_subset import GpuSubsetChecker
from ..checkers.misra import MisraChecker
from ..checkers.naming import NamingChecker
from ..checkers.style import StyleChecker
from ..checkers.unitdesign import UnitDesignChecker
from ..errors import ConfigError
from ..iso26262.asil import Asil
from ..iso26262.compliance import (
    ComplianceEngine,
    ComplianceThresholds,
    TableAssessment,
)
from ..iso26262.evidence import EvidenceSet
from ..iso26262.observations import Observation, generate_observations
# Re-exported only: files are parsed inside the tasks of .parallel.
from ..lang.cppmodel import parse_translation_unit  # noqa: F401
from ..lang.summary import UnitSummary
from ..metrics.report import ModuleMetrics, measure_module
from ..obs import NULL_LOG, NULL_TRACER, EventLog, Span, Tracer
from .assessment import AssessmentResult
from .cache import CACHE_MISS, CHECK_TAG, PARSE_TAG
from .config import PipelineConfig
from .parallel import (
    Bundle,
    ParseOutcome,
    ParseTask,
    bundle_has_crash,
    chunk_evenly,
    graft_worker_trace,
    run_parse_task,
    run_tasks,
    worker_count,
)


def parse_shard_spec(spec: Optional[str]) -> Optional[Tuple[int, int]]:
    """Validate a ``"K/N"`` shard slice into ``(K, N)``.

    ``K`` is 1-based; ``1 <= K <= N``.  ``None`` (and ``"1/1"``'s
    degenerate cousins) mean "the whole corpus".  Raises
    :class:`~repro.errors.ConfigError` on anything else, so a bad
    ``--shard`` fails before any work starts.
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


def shard_slice(paths: List[str], shard: Optional[Tuple[int, int]]
                ) -> List[str]:
    """This shard's slice of the sorted path list.

    Round-robin (``sorted(paths)[K-1::N]``): every path lands in
    exactly one of the N shards, and the N slices concatenate —
    order aside — to the full corpus, so N shard runs plus a merge
    cover exactly what one full run covers.
    """
    if shard is None:
        return paths
    index, count = shard
    return paths[index - 1::count]


#: One file's inputs to the project-level stages: ``(path, parse key,
#: check key)``, the check key ``None`` for a file that did not parse.
FileKey = Tuple[str, str, Optional[str]]


class ProjectSignature(NamedTuple):
    """Everything stages 2–6 of a run read, for :meth:`AssessmentPipeline.
    run`'s reuse test; two runs with equal signatures produce equal
    project-level parts.

    ``module_of`` compares by identity, the (frozen) config dataclasses
    by value.
    """

    files: Tuple[FileKey, ...]
    fingerprints: Tuple[str, ...]
    module_of: Callable[[str], str]
    architecture: ArchitectureConfig
    target_asil: Asil
    thresholds: ComplianceThresholds
    skip_unparseable: bool


class ProjectParts(NamedTuple):
    """What the next run's fold reads off a cache-backed result.

    Private to the pipeline and the serve layer.  The summaries and
    bundles are the ones the project stages consumed — live in the
    cache anyway — keyed by path in path order; the checkers' own
    partials ride on their reports (:attr:`~repro.checkers.base.
    CheckerReport.partials`).  ``reused`` and ``recomputed`` count this
    run's project parts (module metrics, checker reports, and the
    evidence/compliance/observations stage) by how they were obtained.
    """

    files: Dict[str, FileKey]
    units: Dict[str, UnitSummary]
    bundles: Dict[str, Bundle]
    module_of: Dict[str, str]
    reused: int
    recomputed: int


class _FoldBase(NamedTuple):
    """A previous result the project stages fold from, and the paths
    changed, added or removed since."""

    previous: AssessmentResult
    changed: FrozenSet[str]
    change: ProjectChange


class _ProjectStages(NamedTuple):
    """The parts of a result stages 2–6 produce."""

    modules: List[ModuleMetrics]
    reports: Dict[str, CheckerReport]
    evidence: EvidenceSet
    tables: Dict[str, TableAssessment]
    observations: List[Observation]


class AssessmentPipeline:
    """Runs the full assessment over a path -> source mapping.

    When :attr:`PipelineConfig.tracer` is set, every stage is traced:
    a ``pipeline`` root span with ``parse`` (one ``parse_file`` child
    per translation unit, grouped under one ``parse_worker`` span per
    task), ``metrics`` (one ``measure_module`` child per module),
    ``checkers`` (one ``checker`` child per checker, with its finding
    count), ``evidence``, ``compliance``, and ``observations`` children —
    plus counters for units parsed, parse failures, findings per
    checker, and cache hits/misses per stage.  The default is the
    no-op NULL_TRACER.  A run that shares a previous result's stages
    2–6 still opens each of their spans (marked ``reused``) and fires
    the per-checker finding counters, plus ``pipeline.project_reused``.
    A run folded from a previous result counts
    ``pipeline.files_refolded`` and ``pipeline.modules_remeasured``, and
    every run counts its project parts under ``pipeline.parts_reused``
    and ``pipeline.parts_recomputed``.
    """

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        self.tracer: Tracer = (self.config.tracer
                               if self.config.tracer is not None
                               else NULL_TRACER)
        self.log: EventLog = (self.config.log
                              if self.config.log is not None
                              else NULL_LOG)
        #: Resolved worker-process count; the configuration is
        #: validated eagerly so a bad one fails before any work starts.
        self.jobs = worker_count(self.config.jobs)
        #: Validated ``(K, N)`` corpus slice, or ``None`` for all files.
        self.shard = parse_shard_spec(self.config.shard)
        if self.config.cache is not None:
            self.config.cache.attach(self.tracer.metrics, self.log)

    # ------------------------------------------------------------------

    def run(self, sources: Mapping[str, str],
            previous: Optional[AssessmentResult] = None
            ) -> AssessmentResult:
        """Assess a codebase given as ``{path: source_text}``.

        With ``previous`` — an earlier result of a cache-backed run —
        the per-file stage runs as always (every cache lookup counted),
        and when this run's :class:`ProjectSignature` equals
        ``previous``'s in everything but the files and ``previous`` was
        not degraded, stages 2–6 are folded from ``previous``: each part
        is rebuilt only from the files whose :data:`FileKey` changed.
        With no file changed and nothing crashed this time, the
        returned result shares ``previous``'s modules, reports,
        evidence, tables and observations.  The baseline comparison
        always runs.

        Unless :attr:`PipelineConfig.strict` is set, internal faults
        (a checker or the parser raising outside the
        :class:`~repro.errors.ReproError` hierarchy) are contained: the
        run completes with the surviving checkers and the result
        carries the :class:`~repro.checkers.base.CheckerCrash` records
        with :attr:`~repro.core.assessment.AssessmentResult.degraded`
        set.
        """
        tracer = self.tracer
        log = self.log
        if self.shard is not None:
            # The shard's slice IS its corpus: every stage, report, and
            # manifest below sees only these files, and the cache
            # entries it writes are exactly the ones a later merged
            # full run replays.
            sliced = shard_slice(sorted(sources), self.shard)
            sources = {path: sources[path] for path in sliced}
        crashes: List[CheckerCrash] = []
        log.info("run.start", files=len(sources), jobs=self.jobs,
                 **({"shard": self.config.shard}
                    if self.shard is not None else {}))
        # A cold run allocates millions of long-lived tokens and model
        # objects; the cyclic collector re-scans them on every generation
        # sweep for no benefit (the object graph is acyclic by
        # construction).  Pause automatic collection for the batch and
        # restore the caller's setting afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(sources, crashes, tracer, log, previous)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, sources: Mapping[str, str],
             crashes: List[CheckerCrash], tracer, log,
             previous: Optional[AssessmentResult]) -> AssessmentResult:
        with tracer.span("pipeline") as root:
            checkers = self._checkers()
            per_unit, _ = split_checkers(checkers)
            units, bundles, unparseable, files = self._parse_all(
                sources, per_unit, crashes)
            signature = self._signature(checkers, files)
            units_by_path = {unit.filename: unit for unit in units}
            keys = ({key[0]: key for key in signature.files}
                    if signature is not None else None)
            base = self._fold_base(signature, keys, previous,
                                   units_by_path, bundles)
            project, module_of, (reused, recomputed) = \
                self._project_stages(checkers, units, bundles, crashes,
                                     base)
            root.set("units", len(units))
            root.set("jobs", self.jobs)
        reports = project.reports
        log.info("run.finish", units=len(units),
                 findings=sum(report.finding_count
                              for report in reports.values()),
                 degraded=bool(crashes))
        baseline = (self.config.baseline.compare(reports)
                    if self.config.baseline is not None else None)
        parts = None
        if signature is not None:
            parts = ProjectParts(
                files=keys, units=units_by_path, bundles=bundles,
                module_of=module_of, reused=reused, recomputed=recomputed)
        return AssessmentResult(
            **project._asdict(),
            unit_count=len(units),
            unparseable=unparseable,
            profile=self.config.rules,
            baseline=baseline,
            crashes=crashes,
            signature=signature,
            project_reused=base is not None and base.change.empty,
            parts=parts,
        )

    def _fold_base(self, signature: Optional[ProjectSignature],
                   keys: Optional[Dict[str, FileKey]],
                   previous: Optional[AssessmentResult],
                   units: Dict[str, UnitSummary],
                   bundles: Dict[str, Bundle]) -> Optional[_FoldBase]:
        """What stages 2–6 fold from: ``previous`` and the files changed
        since, or ``None`` to start from nothing (no usable previous
        result, or one read under different checkers or config)."""
        if (previous is None or signature is None
                or previous.parts is None or previous.degraded
                or signature[1:] != previous.signature[1:]):
            return None
        old = previous.parts
        before = old.files
        changed = frozenset(
            [path for path, key in keys.items() if before.get(path) != key]
            + [path for path in before if path not in keys])
        ordered = sorted(changed)
        change = ProjectChange(
            previous.reports,
            [(old.units[path], old.bundles[path]) for path in ordered
             if path in old.units],
            [(units[path], bundles[path]) for path in ordered
             if path in units])
        self.tracer.metrics.counter("pipeline.files_refolded").inc(
            len(changed))
        return _FoldBase(previous, changed, change)

    def _project_stages(self, checkers: List[Checker],
                        units: List[UnitSummary],
                        bundles: Dict[str, Bundle],
                        crashes: List[CheckerCrash],
                        base: Optional[_FoldBase]
                        ) -> Tuple[_ProjectStages, Dict[str, str],
                                   Tuple[int, int]]:
        """Stages 2–6 folded from ``base`` (from nothing when ``None``):
        ``(stages, module of each unit's path, (parts reused, parts
        recomputed))``.

        Every part whose inputs are unchanged is ``previous``'s own
        object; its stage span is marked ``reused``.
        """
        tracer = self.tracer
        metrics = tracer.metrics
        previous = base.previous if base is not None else None
        modules, module_of, remeasured = self._measure_modules(units, base)
        with tracer.span("checkers") as span:
            reports = finish_checkers(
                checkers, units,
                [bundles[unit.filename] for unit in units],
                tracer=tracer, log=self.log, strict=self.config.strict,
                change=base.change if base is not None else None)
            shared = sum(1 for name, report in reports.items()
                         if previous is not None
                         and report is previous.reports.get(name))
            if previous is not None \
                    and shared == len(reports) == len(previous.reports):
                reports = previous.reports
                span.set("reused", 1)
        for name in reports:
            crashes.extend(reports[name].crashes)
        if crashes:
            metrics.counter("pipeline.crashes").inc(len(crashes))
            self.log.warning("run.degraded", crashes=len(crashes))
        if (previous is not None and modules is previous.modules
                and reports is previous.reports):
            metrics.counter("pipeline.project_reused").inc()
            for stage in ("evidence", "compliance"):
                with tracer.span(stage, reused=1):
                    pass
            with tracer.span("observations", reused=1) as span:
                span.set("observations", len(previous.observations))
            evidence, tables, observations = (
                previous.evidence, previous.tables, previous.observations)
            verdicts_reused = 1
        else:
            with tracer.span("evidence"):
                evidence = self._assemble_evidence(modules, reports)
            with tracer.span("compliance"):
                engine = ComplianceEngine(
                    target_asil=self.config.target_asil,
                    thresholds=self.config.thresholds)
                tables = engine.assess_all(evidence)
            with tracer.span("observations") as span:
                observations = generate_observations(evidence)
                span.set("observations", len(observations))
            verdicts_reused = 0
        reused = len(modules) - remeasured + shared + verdicts_reused
        recomputed = len(modules) + len(reports) + 1 - reused
        metrics.counter("pipeline.parts_reused").inc(reused)
        metrics.counter("pipeline.parts_recomputed").inc(recomputed)
        return (_ProjectStages(modules, reports, evidence, tables,
                               observations), module_of,
                (reused, recomputed))

    def _signature(self, checkers: List[Checker],
                   files: Optional[Tuple[FileKey, ...]]
                   ) -> Optional[ProjectSignature]:
        """This run's :class:`ProjectSignature`, or ``None`` when there
        are no ``files`` keys to identify the per-file inputs by."""
        if files is None:
            return None
        config = self.config
        return ProjectSignature(
            files=files,
            fingerprints=tuple(checker.fingerprint()
                               for checker in checkers),
            module_of=config.module_of,
            architecture=config.architecture,
            target_asil=config.target_asil,
            thresholds=config.thresholds,
            skip_unparseable=config.skip_unparseable)

    # ------------------------------------------------------------------
    # stage 1: parse, summarize, and sweep the per-unit checkers

    def _parse_all(self, sources: Mapping[str, str],
                   per_unit: List[Checker], crashes: List[CheckerCrash]
                   ) -> Tuple[List[UnitSummary], Dict[str, Bundle],
                              List[str], Optional[Tuple[FileKey, ...]]]:
        """Per-file stage: ``(summaries, per-unit checker bundles by
        path, unparseable paths, file keys)``, summaries and file keys
        in sorted path order.  The file keys are ``None`` without a
        cache, or when a file's parse or sweep crashed this run.

        Every file's cache entries are looked up before dispatch; the
        files they do not settle go to :meth:`_parse_pending`.  A parse
        hit whose checker entry misses (a changed profile or checker)
        is re-parsed there for its sweep, counted under
        ``pipeline.units_reparsed`` rather than as a parse miss.
        """
        tracer = self.tracer
        cache = self.config.cache
        metrics = tracer.metrics
        parsed = metrics.counter("pipeline.units_parsed")
        failed = metrics.counter("pipeline.parse_failures")
        units: List[UnitSummary] = []
        unparseable: List[str] = []
        with tracer.span("parse") as parse_span:
            paths = sorted(sources)
            outcomes: Dict[str, ParseOutcome] = {}
            bundles: Dict[str, Bundle] = {}
            pending: List[str] = []
            all_parse_keys: List[str] = []
            parse_keys: Dict[str, str] = {}  # the parse-missed files
            check_keys: Dict[str, str] = {}
            if cache is None:
                pending = paths
            else:
                bundle_tag = "|".join(checker.fingerprint()
                                      for checker in per_unit)
                reparsed = metrics.counter("pipeline.units_reparsed")
                cache.prune_key_memo(sources)
                for path in paths:
                    key = cache.cached_key(PARSE_TAG, path, sources[path])
                    all_parse_keys.append(key)
                    outcome = self._lookup("parse", key)
                    if outcome is CACHE_MISS:
                        parse_keys[path] = key
                    else:
                        outcomes[path] = outcome
                for path in paths:
                    outcome = outcomes.get(path)
                    if outcome is not None and outcome.summary is None:
                        continue  # a cached parse failure
                    check_keys[path] = cache.cached_key(
                        CHECK_TAG, path, sources[path], bundle_tag)
                    if outcome is not None:
                        bundle = self._lookup("check", check_keys[path])
                        if bundle is not CACHE_MISS:
                            bundles[path] = bundle
                            continue
                        reparsed.inc()
                    pending.append(path)
            self._parse_pending(pending, sources, per_unit, parse_keys,
                                check_keys, outcomes, bundles, parse_span)
            for path in paths:
                outcome = outcomes[path]
                if outcome.crash is not None:
                    failed.inc()
                    unparseable.append(path)
                    crashes.append(outcome.crash)
                    self.log.error(
                        "parse.crash", path=path, span=parse_span.id,
                        error=(f"{outcome.crash.exc_type}: "
                               f"{outcome.crash.message}"))
                elif outcome.error is not None:
                    if not self.config.skip_unparseable:
                        raise outcome.error
                    failed.inc()
                    unparseable.append(path)
                    self.log.warning("parse.failure", path=path,
                                     span=parse_span.id,
                                     error=str(outcome.error))
                else:
                    parsed.inc()
                    units.append(outcome.summary)
            parse_span.set("files", len(sources))
            parse_span.set("failures", len(unparseable))
        # Only this run's sweeps can have crashed: cached bundles never
        # hold a crash (see bundle_has_crash).
        files = None
        if cache is not None and not crashes and not any(
                bundle_has_crash(bundles[path])
                for path in pending if path in bundles):
            files = tuple(
                (path, key, check_keys[path]
                 if outcomes[path].summary is not None else None)
                for path, key in zip(paths, all_parse_keys))
        return units, bundles, unparseable, files

    def _lookup(self, stage: str, key: str):
        """One cache lookup, counted per stage."""
        value = self.config.cache.get(key)
        self.tracer.metrics.counter(
            "cache.misses" if value is CACHE_MISS else "cache.hits",
            stage=stage).inc()
        return value

    def _parse_pending(self, paths: List[str], sources: Mapping[str, str],
                       per_unit: List[Checker], parse_keys: Dict[str, str],
                       check_keys: Dict[str, str],
                       outcomes: Dict[str, ParseOutcome],
                       bundles: Dict[str, Bundle], parse_span: Span
                       ) -> None:
        """Parse, summarize and sweep ``paths`` in one
        :func:`run_parse_task` fan-out (a single inline task when
        serial), filing the results into ``outcomes`` and ``bundles``.

        A parse-missed file's checker entry is looked up only now that
        the file is known to parse; a hit there wins over the task's
        bundle.  The parent caches every result, pooled or serial: the
        tasks themselves never touch the store.
        """
        if not paths:
            return
        tracer = self.tracer
        cache = self.config.cache
        tasks = [
            ParseTask(items=[(path, sources[path]) for path in chunk],
                      worker=index,
                      checkers=per_unit,
                      traced=tracer.enabled, strict=self.config.strict,
                      logged=self.log.enabled)
            for index, chunk in enumerate(chunk_evenly(paths, self.jobs))]
        for (chunk_outcomes, chunk_bundles, worker_tracer,
             worker_events) in run_tasks(
                run_parse_task, tasks, jobs=self.jobs,
                # Only a fault-counter label, kept because the benchmark
                # harness sizes pool IPC by it.
                executor=self.config.executor,
                timeout=self.config.task_timeout,
                metrics=tracer.metrics, log=self.log):
            graft_worker_trace(tracer, parse_span, worker_tracer)
            self.log.graft(worker_events)
            for outcome in chunk_outcomes:
                # A re-parse for the sweep leaves the cached outcome in
                # place.  Contained parser crashes are never cached: the
                # fault may be transient, and strict runs must
                # reproduce it.
                if outcome.path in outcomes:
                    continue
                outcomes[outcome.path] = outcome
                if cache is not None and outcome.crash is None:
                    cache.put(parse_keys[outcome.path], outcome)
            for path, bundle in chunk_bundles.items():
                cached = (self._lookup("check", check_keys[path])
                          if path in parse_keys else CACHE_MISS)
                if cached is not CACHE_MISS:
                    bundle = cached
                elif cache is not None and not bundle_has_crash(bundle):
                    # Crashed bundles are never cached (see
                    # bundle_has_crash).
                    cache.put(check_keys[path], bundle)
                bundles[path] = bundle

    # ------------------------------------------------------------------
    # stage 2: metrics

    def _measure_modules(self, units: List[UnitSummary],
                         base: Optional[_FoldBase]
                         ) -> Tuple[List[ModuleMetrics], Dict[str, str],
                                    int]:
        """Module metrics, each module's re-measured only when one of its
        files changed since ``base``: ``(modules in name order, module of
        each unit's path, modules measured)``."""
        module_of = self.config.module_of
        known: Dict[str, str] = {}
        previous: Dict[str, ModuleMetrics] = {}
        dirty = set()
        if base is not None:
            known = base.previous.parts.module_of
            previous = {module.name: module
                        for module in base.previous.modules}
            dirty.update(known[path] for path in base.changed
                         if path in known)
        by_module: Dict[str, List[UnitSummary]] = {}
        modules_of: Dict[str, str] = {}
        for unit in units:
            path = unit.filename
            module = known.get(path)
            if module is None:
                module = module_of(path)
            modules_of[path] = module
            by_module.setdefault(module, []).append(unit)
        if base is not None:
            dirty.update(modules_of[path] for path in base.changed
                         if path in modules_of)
        measured = 0
        with self.tracer.span("metrics") as span:
            modules: List[ModuleMetrics] = []
            for name, members in sorted(by_module.items()):
                metrics = (previous.get(name) if name not in dirty
                           else None)
                if metrics is None:
                    metrics = measure_module(name, members, tracer=self.tracer)
                    measured += 1
                modules.append(metrics)
            if base is not None and not measured \
                    and len(modules) == len(previous):
                modules = base.previous.modules
                span.set("reused", 1)
            span.set("modules", len(modules))
        counters = self.tracer.metrics
        counters.counter("pipeline.modules_measured").inc(measured)
        if base is not None:
            counters.counter("pipeline.modules_remeasured").inc(measured)
        return modules, modules_of, measured

    # ------------------------------------------------------------------
    # stage 3: checkers

    def _checkers(self) -> List[Checker]:
        checkers: List[Checker] = [
            MisraChecker(),
            CastChecker(),
            DefensiveChecker(),
            GlobalVariableChecker(),
            NamingChecker(),
            StyleChecker(self.config.style),
            UnitDesignChecker(),
            ArchitectureChecker(self.config.architecture,
                                self.config.module_of),
            GpuSubsetChecker(),
        ]
        checkers.extend(self.config.extra_checkers)
        if self.config.rules is not None:
            for checker in checkers:
                checker.profile = self.config.rules
        return checkers

    # ------------------------------------------------------------------
    # stage 4: evidence

    def _assemble_evidence(self, modules: List[ModuleMetrics],
                           reports: Dict[str, CheckerReport]
                           ) -> EvidenceSet:
        evidence = EvidenceSet()
        evidence.put("complexity", {
            "moderate_or_higher": sum(
                module.complexity.moderate_or_higher
                for module in modules),
            "functions": sum(module.function_count for module in modules),
            "max_complexity": max(
                (module.complexity.max_complexity for module in modules),
                default=0),
        }, source="metrics:complexity")
        checker_backed = (
            ("language_subset", "language_subset"),
            ("strong_typing", "casts"),
            ("defensive", "defensive"),
            ("design_principles", "globals"),
            ("globals", "globals"),
            ("style", "style"),
            ("naming", "naming"),
            ("unit_design", "unit_design"),
            ("architecture", "architecture"),
        )
        for key, checker in checker_backed:
            report = reports[checker]
            partials = report.partials
            evidence.put(key, report.stats,
                         source=f"checker:{checker}",
                         rule_counts=(partials.rule_counts
                                      if partials is not None
                                      else report.count_by_rule()))
        return evidence


def assess_sources(sources: Mapping[str, str],
                   config: Optional[PipelineConfig] = None
                   ) -> AssessmentResult:
    """One-call API: assess a ``{path: source}`` mapping."""
    return AssessmentPipeline(config).run(sources)


def assess_corpus(corpus, config: Optional[PipelineConfig] = None
                  ) -> AssessmentResult:
    """Assess a generated :class:`~repro.corpus.generator.Corpus`."""
    return AssessmentPipeline(config).run(corpus.sources())
