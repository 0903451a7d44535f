"""Checker framework: findings, reports, and the checker base class.

Each checker inspects the fuzzy model (:class:`~repro.lang.cppmodel.
TranslationUnit`) of one or more source files and produces a
:class:`CheckerReport` — a list of located :class:`Finding` objects plus a
dictionary of aggregate statistics.  The statistics are the *evidence* the
ISO 26262 compliance engine consumes (see
:mod:`repro.iso26262.compliance`); the findings are what a developer would
fix.

Findings flow through the rules layer (:mod:`repro.rules`): every rule id
a checker emits is registered in :data:`~repro.rules.REGISTRY`, and
reports created with :meth:`Checker.new_report` route each finding past
the active :class:`~repro.rules.RuleProfile` (enable/disable globs,
severity overrides) and any inline ``DEVIATION(...)`` comments before it
lands.  With no profile and no deviations the routing layer is not even
constructed, so the default path is byte-identical to the pre-rules
behavior.

A per-unit checker's project report is a *fold* of its per-unit
reports: :meth:`Checker.finish_from_units` handed a :class:`ProjectDelta`
(the previous run's project report plus the old and new reports of the
files that changed) subtracts the old reports and adds the new ones
instead of merging every unit again.  A cold run is the same fold
starting from nothing.  What the fold needs beyond the report rides on
:attr:`CheckerReport.partials`.
"""

from __future__ import annotations

import traceback as traceback_module
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from ..engine.index import function_line_index
from ..engine.interests import UnitSweep
from ..errors import ReproError
from ..lang.cppmodel import TranslationUnit
from ..lang.summary import UnitSummary
from ..obs import NULL_LOG, NULL_TRACER
from ..rules import (
    CHECKER_CRASH,
    DEVIATION_RULES,
    DeviationIndex,
    MISSING_RATIONALE,
    REGISTRY,
    RuleProfile,
    Severity,
    UNKNOWN_RULE,
)

__all__ = [
    "Checker",
    "CheckerCrash",
    "CheckerReport",
    "DeferredList",
    "Finding",
    "ProjectChange",
    "ProjectDelta",
    "ReportPartials",
    "RuleView",
    "Severity",
    "StatTally",
    "UnitLayout",
    "UnitMerge",
    "crash_report",
    "enclosing_function_name",
    "finish_checkers",
    "make_crash",
    "require_unique_checker",
    "run_checkers",
    "split_checkers",
]


@dataclass(frozen=True)
class Finding:
    """One located rule violation or noteworthy fact.

    Attributes:
        rule: stable rule identifier, e.g. ``"M15.1"`` or ``"UD9.goto"``.
        message: human-readable description.
        filename: source file of the finding.
        line: 1-based line number (0 for file-level findings).
        severity: blocking strength.
        function: qualified name of the enclosing function, when known.
    """

    rule: str
    message: str
    filename: str
    line: int = 0
    severity: Severity = Severity.MINOR
    function: str = ""

    def located(self) -> str:
        """``file:line rule message`` string for reports."""
        location = f"{self.filename}:{self.line}" if self.line else self.filename
        return f"{location}: [{self.rule}] {self.message}"


class RuleView:
    """The routing context a report's findings pass through.

    Built by :meth:`Checker.new_report` only when a rule profile is
    configured or the checked units declare deviations; carries no
    registry reference, only plain picklable state, so reports cross
    process pools and the result cache unchanged.
    """

    def __init__(self, checker: str,
                 profile: Optional[RuleProfile] = None,
                 deviations: Optional[DeviationIndex] = None) -> None:
        self.checker = checker
        self.profile = profile
        self.deviations = deviations

    def route(self, report: "CheckerReport", finding: Finding) -> bool:
        """File ``finding`` into ``report``; True when it was reported.

        Disabled rules drop the finding entirely; a matching justified
        deviation moves it to :attr:`CheckerReport.suppressed` (counted
        under the ``deviations`` stat); severity overrides rewrite it in
        place.
        """
        if self.profile is not None:
            if not self.profile.enabled(finding.rule):
                return False
            severity = self.profile.severity_for(finding.rule,
                                                 finding.severity)
            if severity is not finding.severity:
                finding = replace(finding, severity=severity)
        if self.deviations is not None and self.deviations.suppressing(
                finding.rule, finding.filename, finding.line):
            report.suppressed.append(finding)
            report.stats["deviations"] = \
                report.stats.get("deviations", 0) + 1
            return False
        report.findings.append(finding)
        return True


@dataclass(frozen=True)
class CheckerCrash:
    """One contained checker fault: what crashed, where, and how.

    Plain strings only, so crash records survive process-pool result
    queues, the result cache, and JSON serialization unchanged.

    Attributes:
        checker: name of the crashed checker (or ``"parse"`` for a
            parser-internal fault).
        stage: the call that raised — ``"check_unit"``,
            ``"check_project"``, ``"finalize"``, or ``"parse"``.
        exc_type: qualified exception class name.
        message: ``str(exception)``.
        path: file being processed when known, else ``""``.
        traceback: the formatted traceback, for the degradation report.
    """

    checker: str
    stage: str
    exc_type: str
    message: str
    path: str = ""
    traceback: str = ""

    def describe(self) -> str:
        where = f" on {self.path}" if self.path else ""
        return (f"checker {self.checker!r} crashed in {self.stage}"
                f"{where}: {self.exc_type}: {self.message}")


def make_crash(checker: str, stage: str, error: BaseException,
               path: str = "") -> CheckerCrash:
    """A :class:`CheckerCrash` record for a just-caught exception."""
    return CheckerCrash(
        checker=checker,
        stage=stage,
        exc_type=type(error).__name__,
        message=str(error),
        path=path,
        traceback="".join(traceback_module.format_exception(
            type(error), error, error.__traceback__)),
    )


@dataclass
class CheckerReport:
    """The outcome of running one checker over one or more units."""

    checker: str
    findings: List[Finding] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    #: Findings reclassified by a justified ``DEVIATION(...)`` comment;
    #: kept out of :attr:`findings` but reported separately.
    suppressed: List[Finding] = field(default_factory=list)
    #: Contained faults this checker hit; a non-empty list marks the
    #: owning assessment as degraded.
    crashes: List[CheckerCrash] = field(default_factory=list)
    #: Routing context, or ``None`` for the direct (default) path.
    rules: Optional[RuleView] = field(default=None, repr=False,
                                      compare=False)
    #: What a project report was folded from (:class:`ReportPartials`),
    #: read by the next run's fold; ``None`` on per-unit reports and on
    #: reports of checkers that do not fold.
    partials: Optional["ReportPartials"] = field(default=None, repr=False,
                                                 compare=False)

    @property
    def finding_count(self) -> int:
        return len(self.findings)

    def count_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def emit(self, finding: Finding) -> bool:
        """Report ``finding``; True when it landed in :attr:`findings`.

        Checkers gate sibling counters on the return value so disabled
        or deviated findings vanish from the evidence statistics too.
        """
        if self.rules is None:
            self.findings.append(finding)
            return True
        return self.rules.route(self, finding)

    def merge(self, other: "CheckerReport") -> None:
        """Fold another report of the same checker into this one.

        Statistics are summed; derived ratios must be recomputed by the
        owning checker afterwards.
        """
        if other.checker != self.checker:
            raise ValueError(
                f"cannot merge report of {other.checker!r} into "
                f"{self.checker!r}")
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.crashes.extend(other.crashes)
        for key, value in other.stats.items():
            self.stats[key] = self.stats.get(key, 0) + value

    def record_crash(self, crash: CheckerCrash) -> None:
        """Attach a contained fault: crash record plus a
        :data:`~repro.rules.CHECKER_CRASH` finding, bypassing profile
        routing so a degraded run can never silence its own evidence."""
        self.crashes.append(crash)
        self.findings.append(Finding(
            rule=CHECKER_CRASH,
            message=crash.describe(),
            filename=crash.path or "<internal>",
            severity=Severity.CRITICAL,
        ))


def crash_report(checker: str, crash: CheckerCrash) -> CheckerReport:
    """A fresh report carrying nothing but one contained crash."""
    report = CheckerReport(checker=checker)
    report.record_crash(crash)
    return report


class StatTally(NamedTuple):
    """Integer stat sums and rule counts of a set of per-unit reports.

    ``carriers`` counts the reports holding each stat key and
    ``floats`` those whose value for it is a float: a float stat is a
    derived ratio, which :meth:`Checker.finalize` rewrites, so only the
    integer contributions are summed.  Folding a report in or out is
    O(its stats and findings), and the tally equals the one of a fresh
    left-to-right merge exactly.  Tallies are never mutated:
    :meth:`folded` builds new dicts.
    """

    sums: Dict[str, int]
    carriers: Dict[str, int]
    floats: Dict[str, int]
    rules: Dict[str, int]

    @classmethod
    def of(cls, reports: Iterable[CheckerReport]) -> "StatTally":
        return cls({}, {}, {}, {}).folded((), reports)

    def folded(self, removed: Iterable[CheckerReport],
               added: Iterable[CheckerReport]) -> "StatTally":
        """This tally with ``removed`` subtracted and ``added`` added."""
        tally = StatTally(dict(self.sums), dict(self.carriers),
                          dict(self.floats), dict(self.rules))
        for report in removed:
            tally._count(report, -1)
        for report in added:
            tally._count(report, 1)
        return tally

    def _count(self, report: CheckerReport, sign: int) -> None:
        sums, carriers, floats = self.sums, self.carriers, self.floats
        for key, value in report.stats.items():
            carried = carriers.get(key, 0) + sign
            if not carried:
                del carriers[key]
                sums.pop(key, None)
                floats.pop(key, None)
                continue
            carriers[key] = carried
            if isinstance(value, float):
                floats[key] = floats.get(key, 0) + sign
                if not floats[key]:
                    del floats[key]
            else:
                sums[key] = sums.get(key, 0) + sign * value
        rules = self.rules
        for finding in report.findings:
            count = rules.get(finding.rule, 0) + sign
            if count:
                rules[finding.rule] = count
            else:
                del rules[finding.rule]

    def stats(self) -> Dict[str, int]:
        """The merged integer stats (keys some report carries, none of
        them as a float)."""
        floats = self.floats
        return {key: value for key, value in self.sums.items()
                if key not in floats}


class UnitLayout(NamedTuple):
    """Where each per-unit report sits in a merged project report: per
    unit, in unit order, how many findings, suppressed findings and
    crashes it contributed.  The per-unit part of each list is these
    segments back to back, so a fold copies the unchanged units' runs
    as slices (see :meth:`Checker.merge_units`)."""

    findings: Tuple[int, ...]
    suppressed: Tuple[int, ...]
    crashes: Tuple[int, ...]


#: The :class:`CheckerReport` lists a :class:`UnitLayout` describes.
_LAYOUT_FIELDS = ("findings", "suppressed", "crashes")


class UnitMerge(NamedTuple):
    """What :meth:`Checker.merge_units` merged: the per-unit reports'
    :class:`StatTally` and the merged report's :class:`UnitLayout`."""

    tally: StatTally
    layout: UnitLayout


class ReportPartials(NamedTuple):
    """What a project report was folded from.

    Attributes:
        rule_counts: :meth:`CheckerReport.count_by_rule` of the report,
            folded rather than recounted (the evidence reads it).
        unit_findings: how many leading findings of the report are its
            per-unit reports' findings, concatenated in unit order (the
            rest are project-level findings).
        tally: the per-unit reports' :class:`StatTally` (``None`` for
            a project-level checker).
        extra: the checker's own project-level partials.
        layout: the per-unit reports' :class:`UnitLayout` (``None`` for
            a project-level checker).
    """

    rule_counts: Dict[str, int]
    unit_findings: int = 0
    tally: Optional[StatTally] = None
    extra: Any = None
    layout: Optional[UnitLayout] = None


class DeferredList(Sequence):
    """A list built by ``build`` on first read.

    The fold hands a checker its per-unit reports this way: a fold
    reads only the changed files' reports, so the O(files) list is
    built only when something (a fold-free merge, :meth:`Checker.
    settle`'s float stats, an override) actually reads it.
    """

    def __init__(self, build: Callable[[], List[Any]]) -> None:
        self._build: Optional[Callable[[], List[Any]]] = build
        self._items: List[Any] = []

    def _list(self) -> List[Any]:
        if self._build is not None:
            self._items = self._build()
            self._build = None
        return self._items

    def __getitem__(self, index):
        return self._list()[index]

    def __len__(self) -> int:
        return len(self._list())

    def __iter__(self) -> Iterator[Any]:
        return iter(self._list())


#: One file's side of a fold: its summary and, for a per-unit checker,
#: its per-unit report (``None`` for a project-level checker).
FoldedUnit = Tuple[UnitSummary, Optional[CheckerReport]]


def _call_pairs(unit: UnitSummary) -> List[Tuple[str, Tuple[str, ...]]]:
    return [(function.name, function.calls) for function in unit.functions]


class ProjectDelta(NamedTuple):
    """One checker's fold input: its previous project report (with
    :attr:`~CheckerReport.partials` set) and the files changed since.

    ``removed`` holds the old side of every changed or removed file,
    ``added`` the new side of every changed or added file, each in path
    order.  A file that stopped (or started) parsing appears on one
    side only.  ``order`` lists the previous run's unit paths in unit
    order, which the previous report's :class:`UnitLayout` follows.
    """

    previous: CheckerReport
    removed: Sequence[FoldedUnit]
    added: Sequence[FoldedUnit]
    order: Sequence[str]

    def paths(self) -> set:
        """Every changed, added or removed path."""
        return ({unit.filename for unit, _ in self.removed}
                | {unit.filename for unit, _ in self.added})

    def calls_changed(self) -> bool:
        """True when the project call graph may differ: a file was added
        or removed, or a changed file's ``(function name, calls)``
        pairs differ."""
        before = {unit.filename: unit for unit, _ in self.removed}
        after = {unit.filename: unit for unit, _ in self.added}
        if before.keys() != after.keys():
            return True
        return any(_call_pairs(before[path]) != _call_pairs(after[path])
                   for path in after)


class ProjectChange(NamedTuple):
    """What :func:`finish_checkers` folds: the previous run's project
    reports, the ``(summary, bundle)`` of every changed file, old side
    and new side, and the previous run's unit paths in order (see
    :class:`ProjectDelta`)."""

    reports: Dict[str, CheckerReport]
    removed: Sequence[Tuple[UnitSummary, Dict[str, CheckerReport]]]
    added: Sequence[Tuple[UnitSummary, Dict[str, CheckerReport]]]
    order: Sequence[str]

    @property
    def empty(self) -> bool:
        return not self.removed and not self.added

    def delta(self, checker: "Checker", per_unit: bool) -> ProjectDelta:
        name = checker.name
        return ProjectDelta(
            self.reports[name],
            [(unit, bundle[name] if per_unit else None)
             for unit, bundle in self.removed],
            [(unit, bundle[name] if per_unit else None)
             for unit, bundle in self.added],
            self.order)


class Checker:
    """Base class for all static checkers.

    A checker's per-unit analysis is its :meth:`unit_visitor`: handlers
    registered on a :class:`~repro.engine.interests.UnitSweep`.  That
    is the only implementation, run by the pipeline's shared sweep and
    by :meth:`check_unit` alike.  Project-level checkers that need
    cross-file information (call graphs, include graphs) additionally
    override :meth:`finish_from_units` or :meth:`check_project`.

    Everything a per-unit check reads rides on the unit — its tokens,
    model, and source text — so one checker instance serves every file
    and every pool task unchanged.
    """

    #: Stable checker name, used as the report key.
    name: str = "checker"

    #: Cache-invalidation tag: bump whenever the checker's output for an
    #: unchanged unit can change (new rules, changed heuristics).
    version: str = "1"

    #: Active rule profile; ``None`` (the default) reports every
    #: registered rule at its default severity.  The pipeline assigns
    #: :attr:`PipelineConfig.rules` here before checking starts.
    profile: Optional[RuleProfile] = None

    #: Exactly one checker flags deviations naming unregistered rules
    #: (they have no owner, so per-owner flagging cannot reach them).
    audits_unknown_deviations: bool = False

    def check_unit(self, unit: TranslationUnit) -> CheckerReport:
        """Analyze one translation unit with a one-checker sweep.

        Runs exactly the handlers :meth:`unit_visitor` registers, on a
        sweep of ``unit`` that no other checker shares.  An external
        checker may override this instead of :meth:`unit_visitor`; the
        engine then calls it after the shared sweep.
        """
        sweep = UnitSweep(unit)
        sweep.owner = self
        report = self.new_report((unit,))
        self.unit_visitor(unit, report, sweep)
        sweep.run()
        return report

    def unit_visitor(self, unit: TranslationUnit, report: CheckerReport,
                     sweep: UnitSweep) -> None:
        """Register this checker's analysis of ``unit`` on ``sweep``.

        The registered handlers emit into ``report``, a fresh
        :meth:`new_report`, in the sweep's phase order (see
        :class:`~repro.engine.interests.UnitSweep`); work that must
        land later buffers its findings and flushes them from an
        :meth:`~repro.engine.interests.UnitSweep.at_end` hook.

        A checker that overrides neither this nor :meth:`check_unit`
        has no analysis at all, so the base raises
        :class:`NotImplementedError` rather than silently reporting
        nothing: contained as an ``internal.checker_crash``, or raised
        under ``strict``.
        """
        raise NotImplementedError(
            f"checker {self.name!r} overrides neither unit_visitor nor "
            f"check_unit")

    def finish_from_units(self,
                          units: List[Union[TranslationUnit, UnitSummary]],
                          unit_reports: List[CheckerReport],
                          fold: Optional[ProjectDelta] = None
                          ) -> CheckerReport:
        """Assemble the project report from per-unit reports.

        ``units`` are the checked files — in the pipeline their
        :class:`~repro.lang.summary.UnitSummary` records, since the full
        units are gone by now.  An override must read only summary
        fields; other callers may pass full units, which it converts
        with :func:`~repro.lang.summary.unit_summaries`.
        ``unit_reports`` are this checker's per-unit reports in unit
        order — produced by the fused engine or :meth:`check_unit`, and
        possibly replayed from the result cache.  The default is merge +
        :meth:`finalize`; a checker with extra project-level work (e.g.
        unit design's call-graph recursion pass) overrides this so the
        pipeline can still distribute and cache its per-unit portion.

        ``fold`` (see :meth:`merge_units`) makes the merge incremental,
        and the result equals the fold-free one.  The pipeline passes it
        exactly when the previous report carries
        :attr:`~CheckerReport.partials`, which this default sets through
        :meth:`settle`: an override that calls :meth:`settle` or sets
        partials must declare ``fold`` too; one that sets none is never
        passed it.
        """
        report = CheckerReport(checker=self.name)
        merged = self.merge_units(report, unit_reports, fold)
        self.settle(report, merged, unit_reports)
        return report

    def merge_units(self, report: CheckerReport,
                    unit_reports: Sequence[CheckerReport],
                    fold: Optional[ProjectDelta] = None) -> UnitMerge:
        """Merge ``unit_reports`` into the fresh, empty ``report``;
        returns their :class:`StatTally` and the merged
        :class:`UnitLayout`.

        Findings, suppressed findings and crashes come out concatenated
        in unit order and the integer stats set from the tally, exactly
        as :meth:`CheckerReport.merge` over every unit would.  With
        ``fold`` the tally is the previous report's, with the changed
        files' old reports subtracted and their new ones added, and the
        lists are the previous report's with each changed file's
        segment cut out and its new report's lists put in (located by
        the previous :class:`UnitLayout` and ``fold.order``), so
        nothing reads ``unit_reports``: the Python work is O(change),
        and the unchanged units' runs are copied as slices.  Float
        stats are left to :meth:`settle`.
        """
        assert not (report.findings or report.suppressed
                    or report.crashes), "unit findings lead the report"
        if fold is None:
            tally = StatTally.of(unit_reports)
        else:
            tally = fold.previous.partials.tally.folded(
                [unit_report for _, unit_report in fold.removed],
                [unit_report for _, unit_report in fold.added])
        report.stats.update(tally.stats())
        if fold is not None and fold.previous.partials.layout is not None:
            return UnitMerge(tally, _splice_units(
                report, fold, fold.previous.partials.layout))
        findings, suppressed, crashes = (report.findings,
                                         report.suppressed, report.crashes)
        for unit_report in unit_reports:
            findings.extend(unit_report.findings)
            if unit_report.suppressed:
                suppressed.extend(unit_report.suppressed)
            if unit_report.crashes:
                crashes.extend(unit_report.crashes)
        return UnitMerge(tally, UnitLayout(*(
            tuple(map(len, map(attrgetter(name), unit_reports)))
            for name in _LAYOUT_FIELDS)))

    def settle(self, report: CheckerReport, merged: UnitMerge,
               unit_reports: Sequence[CheckerReport],
               rule_counts: Optional[Dict[str, int]] = None,
               extra: Any = None) -> None:
        """:meth:`finalize` a merged report and record its partials.

        A float stat the units carry and :meth:`finalize` did not
        rewrite gets its left-to-right sum, as a plain merge would have
        left it (the one thing here that reads ``unit_reports``).
        ``rule_counts`` defaults to the tally's (a checker adding
        project-level findings passes the combined counts); ``extra``
        is the checker's own partial state.
        """
        tally = merged.tally
        self.finalize(report)
        for key in tally.floats:
            if key not in report.stats:
                total = 0
                for unit_report in unit_reports:
                    if key in unit_report.stats:
                        total = total + unit_report.stats[key]
                report.stats[key] = total
        report.partials = ReportPartials(
            rule_counts=tally.rules if rule_counts is None else rule_counts,
            unit_findings=sum(tally.rules.values()), tally=tally,
            extra=extra, layout=merged.layout)

    def rules(self):
        """The :class:`~repro.rules.Rule` records this checker emits."""
        return REGISTRY.rules_for(self.name)

    def new_report(self,
                   units: Iterable[Union[TranslationUnit, UnitSummary]] = (),
                   flag_deviations: bool = True,
                   fold: Optional[ProjectDelta] = None) -> CheckerReport:
        """A report wired to the rules layer for checking ``units``.

        ``units`` may be full units or their summaries: both carry the
        file's :class:`~repro.rules.DeviationIndex`, scanned once when
        the file was parsed.  With no profile and no ``DEVIATION(...)``
        comments in ``units`` this returns a bare report (no
        :class:`RuleView`), keeping the default path identical to the
        pre-rules behavior.  Otherwise the report routes findings
        through the view, and — unless ``flag_deviations`` is off, as in
        project-level reports whose per-unit reports already did it —
        malformed deviations owned by this checker are emitted as
        findings up front.

        With ``fold`` the merged index is folded from the previous
        report's instead (see :func:`_folded_deviations`), and ``units``
        is not read.
        """
        deviations: Optional[DeviationIndex] = None
        if fold is not None:
            deviations = _folded_deviations(fold)
        else:
            for unit in units:
                index = unit.deviations
                if index:
                    if deviations is None:
                        deviations = DeviationIndex()
                    deviations.extend(index)
        report = CheckerReport(checker=self.name)
        if self.profile is None and deviations is None:
            return report
        report.rules = RuleView(self.name, self.profile, deviations)
        if deviations is not None and flag_deviations:
            self._flag_malformed_deviations(deviations, report)
        return report

    def _flag_malformed_deviations(self, deviations: DeviationIndex,
                                   report: CheckerReport) -> None:
        """Report this checker's unjustified or unknown-rule deviations."""
        for deviation in deviations:
            owner = REGISTRY.checker_of(deviation.rule)
            if owner == self.name and not deviation.rationale:
                rule = REGISTRY.get(MISSING_RATIONALE)
                report.emit(Finding(
                    rule=MISSING_RATIONALE,
                    message=(f"deviation from {deviation.rule} states "
                             f"no rationale"),
                    filename=deviation.filename,
                    line=deviation.line,
                    severity=rule.severity,
                ))
            elif not owner and self.audits_unknown_deviations:
                rule = REGISTRY.get(UNKNOWN_RULE)
                report.emit(Finding(
                    rule=UNKNOWN_RULE,
                    message=(f"deviation names unregistered rule "
                             f"{deviation.rule!r}"),
                    filename=deviation.filename,
                    line=deviation.line,
                    severity=rule.severity,
                ))

    def fingerprint(self) -> str:
        """Key material for the per-unit result cache.

        Covers everything that can change this checker's per-unit
        output: the implementation identity, the :attr:`version` tag,
        a ``config`` dataclass's deterministic ``repr`` when present,
        and — when a rule profile is active — how the profile alters
        this checker's rule resolution.  A profile that leaves this
        checker's rules (and the deviation process rules) at their
        defaults contributes nothing, so unaffected cache entries
        survive profile changes targeting other checkers.
        """
        config = getattr(self, "config", None)
        suffix = f"/{config!r}" if config is not None else ""
        if self.profile is not None:
            tag = self.profile.fingerprint_for(
                list(REGISTRY.rules_for(self.name)) + list(DEVIATION_RULES))
            if tag:
                suffix += f"@rules:{tag}"
        return (f"{type(self).__module__}.{type(self).__qualname__}"
                f":{self.version}{suffix}")

    def check_project(self,
                      units: Iterable[TranslationUnit]) -> CheckerReport:
        """Analyze a set of translation units.

        The default checks each unit with :meth:`check_unit` and hands
        the reports to :meth:`finish_from_units`, which is how the
        pipeline replays it from per-unit reports.  A checker
        overriding only this method is project-level, and the pipeline
        hands it the files' :class:`~repro.lang.summary.UnitSummary`
        records.  Such an override is passed ``fold=`` exactly when its
        previous report carries :attr:`~CheckerReport.partials`: one
        that sets partials declares ``fold`` (as architecture's does),
        and one that sets none keeps this signature.
        """
        units = list(units)
        return self.finish_from_units(
            units, [self.check_unit(unit) for unit in units])

    def finalize(self, report: CheckerReport) -> None:
        """Recompute derived statistics after merging; default no-op."""

    @staticmethod
    def ratio(numerator: float, denominator: float) -> float:
        """A safe ratio: 0.0 when the denominator is zero."""
        if denominator == 0:
            return 0.0
        return numerator / denominator


def _folded_deviations(fold: ProjectDelta) -> Optional[DeviationIndex]:
    """The merged :class:`~repro.rules.DeviationIndex` of a folded
    report's units: the previous report's, shared as it is unless a
    changed file declares deviations (before or after), and otherwise
    rebuilt with the changed files' deviations replaced.

    Only the changed files' indexes are read.  A unit's deviations all
    name its own file, and a fold's units are in path order, so the
    rebuilt index lists deviations in path order, each file's in source
    order, as a merge over every unit would.
    """
    rules = fold.previous.rules
    previous = rules.deviations if rules is not None else None
    added = [unit.deviations for unit, _ in fold.added]
    if not (any(added) or any(unit.deviations for unit, _ in fold.removed)):
        return previous
    paths = fold.paths()
    kept = [deviation for deviation in previous or ()
            if deviation.filename not in paths]
    merged = DeviationIndex(sorted(
        kept + [deviation for index in added for deviation in index],
        key=attrgetter("filename")))
    return merged or None


def _splice_units(report: CheckerReport, fold: ProjectDelta,
                  layout: UnitLayout) -> UnitLayout:
    """Fill ``report``'s findings, suppressed findings and crashes from
    the previous report's per-unit part with the changed files'
    segments replaced; returns the new :class:`UnitLayout`.

    Each list is copied once and each changed path's segment (located
    by its place in ``fold.order`` and the previous layout) is then
    cut out and its new report's list put in, from the last change
    back, so the earlier changes' offsets still hold.  Two changes at
    one place (a path added before a changed one) come out in path
    order.  A list that is empty before and after (typically the
    suppressed findings and crashes) just gets the new unit count's
    zeros.
    """
    order = fold.order
    removed = {unit.filename for unit, _ in fold.removed}
    added = {unit.filename: unit_report for unit, unit_report in fold.added}
    #: ``(unit index, whether the previous run had this path there,
    #: its new per-unit report or None)`` per changed path, in order.
    changes = [(bisect_left(order, path), path in removed, added.get(path))
               for path in sorted(removed | added.keys())]
    previous = fold.previous
    spliced = []
    for name, counts in zip(_LAYOUT_FIELDS, layout):
        if not getattr(previous, name) and not any(
                getattr(unit_report, name) for unit_report in added.values()):
            spliced.append((0,) * (len(counts) - len(removed) + len(added)))
            continue
        starts = []
        offset = unit = 0
        for index, _, _ in changes:
            offset += sum(counts[unit:index])
            starts.append(offset)
            unit = index
        items = getattr(report, name)
        items.extend(getattr(previous, name))
        # cut the previous project-level part
        del items[offset + sum(counts[unit:]):]
        sizes = list(counts)
        for (index, present, unit_report), start in zip(reversed(changes),
                                                        reversed(starts)):
            new = getattr(unit_report, name) if unit_report is not None \
                else []
            items[start:start + (counts[index] if present else 0)] = new
            sizes[index:index + 1 if present else index] = \
                [len(new)] if unit_report is not None else []
        spliced.append(tuple(sizes))
    return UnitLayout(*spliced)


def require_unique_checker(checker: Checker,
                           reports: Dict[str, CheckerReport]) -> None:
    """Reject a checker whose name already has a report.

    Two checkers sharing a ``name`` would silently shadow each other's
    report (and the evidence derived from it), so every checker-running
    loop calls this before filing a report.
    """
    if checker.name in reports:
        raise ValueError(
            f"duplicate checker name {checker.name!r}: its report "
            f"would silently overwrite an earlier checker's")


def _finishes_from_units(checker: Checker) -> bool:
    """True when ``checker``'s project report is replayed from its
    per-unit reports (see :func:`split_checkers`)."""
    return (type(checker).check_project is Checker.check_project
            or type(checker).finish_from_units
            is not Checker.finish_from_units)


def split_checkers(checkers: Sequence[Checker]
                   ) -> Tuple[List[Checker], List[Checker]]:
    """Partition into (per-unit, project-level) checkers.

    A checker that keeps the base :meth:`~Checker.check_project` is a
    per-unit sweep plus :meth:`~Checker.finish_from_units`, so its
    project report can be replayed from distributed (or cached)
    per-unit reports.  So can one that overrides
    :meth:`~Checker.finish_from_units`: its per-unit portion
    distributes, and the override runs the project-wide remainder over
    the merged result (unit design's recursion pass).  Anything else
    overriding :meth:`~Checker.check_project` needs the whole unit set
    at once.
    """
    return ([checker for checker in checkers
             if _finishes_from_units(checker)],
            [checker for checker in checkers
             if not _finishes_from_units(checker)])


def finish_checkers(checkers: Sequence[Checker],
                    units: Sequence[Union[TranslationUnit, UnitSummary]],
                    bundles: Sequence[Dict[str, CheckerReport]],
                    tracer=NULL_TRACER, log=NULL_LOG,
                    strict: bool = False,
                    change: Optional[ProjectChange] = None
                    ) -> Dict[str, CheckerReport]:
    """Every checker's project report: name -> report, in checker order.

    ``bundles`` holds one ``{checker name: per-unit report}`` dict per
    unit, aligned with ``units``.  A per-unit checker (see
    :func:`split_checkers`) is finished from its per-unit reports with
    :meth:`~Checker.finish_from_units`; a project-level one runs
    :meth:`~Checker.check_project` over ``units``.

    With ``change`` — the previous run's reports over the same checkers,
    and the files changed since — an empty change shares every previous
    report, and a checker whose previous report carries
    :attr:`~CheckerReport.partials` is handed its :class:`ProjectDelta`
    as ``fold=`` instead of starting from nothing.  The contract: an
    implementation that sets partials (through :meth:`Checker.settle`
    or by hand) declares ``fold``; one that sets none is never passed
    it.  The reports equal fold-free ones either way.

    This is the one place project-level work is contained: a checker
    raising a non-:class:`~repro.errors.ReproError` gets a
    :func:`crash_report` (stage ``"finalize"`` or ``"check_project"``),
    logged as a ``checker.crash`` event, and the remaining checkers
    still run.  ``strict=True`` re-raises instead.  Each checker gets a
    ``checker`` span with its finding count (marked ``reused`` when
    shared), and findings are counted under
    ``checker.findings{checker=...}``.  Duplicate checker names are a
    :class:`ValueError` (see :func:`require_unique_checker`).
    """
    reports: Dict[str, CheckerReport] = {}
    for checker in checkers:
        require_unique_checker(checker, reports)
        with tracer.span("checker", name=checker.name) as span:
            per_unit = _finishes_from_units(checker)
            if per_unit:
                stage = "finalize"
                finish = checker.finish_from_units
            else:
                stage = "check_project"
                finish = checker.check_project
            previous = (change.reports.get(checker.name)
                        if change is not None else None)
            fold = None
            if previous is not None and change.empty:
                report = previous
                span.set("reused", 1)
            else:
                if previous is not None and previous.partials is not None:
                    fold = change.delta(checker, per_unit)
                try:
                    args = (DeferredList(
                        lambda name=checker.name: [bundle[name]
                                                   for bundle in bundles]),
                    ) if per_unit else ()
                    report = (finish(units, *args) if fold is None
                              else finish(units, *args, fold=fold))
                except ReproError:
                    raise
                except Exception as error:
                    if strict:
                        raise
                    log.error("checker.crash", checker=checker.name,
                              stage=stage, span=span.id,
                              error=f"{type(error).__name__}: {error}")
                    report = crash_report(checker.name, make_crash(
                        checker.name, stage, error))
                    tracer.metrics.counter(
                        "pipeline.checker_crashes").inc()
                    span.set("crashed", 1)
            span.set("findings", report.finding_count)
        tracer.metrics.counter("checker.findings",
                               checker=checker.name).inc(
            report.finding_count)
        reports[checker.name] = report
    return reports


def run_checkers(checkers: Iterable[Checker],
                 units: Iterable[TranslationUnit],
                 tracer=None,
                 strict: bool = False,
                 log=None,
                 ) -> Dict[str, CheckerReport]:
    """Run several checkers over the same units; returns name -> report.

    The same code the pipeline runs: per-unit checkers sweep each unit
    together (:func:`repro.engine.driver.fused_unit_bundle`) and are
    finished by :func:`finish_checkers`, which also runs the
    project-level ones.  Containment therefore has the pipeline's
    grain: a checker crashing on one unit costs a ``check_unit`` crash
    record for that unit only, and its other units' findings stand.

    Args:
        tracer: optional :class:`~repro.obs.Tracer` for the per-checker
            spans and counters of :func:`finish_checkers`.
        strict: re-raise checker crashes instead of containing them.
        log: optional :class:`~repro.obs.EventLog`; contained crashes
            are logged as ``checker.crash`` events.
    """
    # Imported here: the driver builds on this module.
    from ..engine.driver import fused_unit_bundle

    log = log if log is not None else NULL_LOG
    checkers = list(checkers)
    units = list(units)
    per_unit, _ = split_checkers(checkers)
    bundles = [fused_unit_bundle(per_unit, unit, strict=strict, log=log)
               for unit in units]
    return finish_checkers(
        checkers, units, bundles,
        tracer=tracer if tracer is not None else NULL_TRACER,
        log=log, strict=strict)


def enclosing_function_name(unit: TranslationUnit, line: int) -> str:
    """Qualified name of the innermost function containing ``line``.

    Backed by the memoized per-line index
    (:func:`repro.engine.index.function_line_index`): the first call on
    a unit flattens its function intervals, every further call is a
    list access — the legacy per-call function scan made this O(units ×
    findings × functions) across a run.
    """
    return function_line_index(unit).lookup(line)
