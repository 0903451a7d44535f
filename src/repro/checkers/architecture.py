"""Architectural-design checks — paper Table 2 (ISO 26262-6 Table 3).

Section 3.4: hierarchy of components, restricted component/interface size,
cohesion, coupling, scheduling properties, and restricted interrupt use.
The paper notes "Main modules of Apollo have from 5k to 60k lines of code"
and concludes (Observation 13) that AD frameworks do not comply with the
size/interface restrictions, though compliance is reachable with
non-negligible effort.

This checker is project-level: modules are derived from file paths (first
path component by default), and the cohesion/coupling metrics need the
whole include and call graphs.  It is assembled from per-module counts
over the member files (size, depth, fan-out, plus cohesion) and per-rule
runs of the per-file findings (oversized interfaces, scheduling and
interrupt call sites), so a fold across runs reads only the changed
files: their shares are taken out of and put into their modules' counts
and their findings spliced into the runs — cohesion is recomputed
everywhere only when the call graph may have changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from ..lang.cppmodel import TranslationUnit
from ..lang.summary import UnitSummary, splice_files, unit_summaries
from ..rules import REGISTRY, Rule
from .base import (
    Checker,
    CheckerReport,
    Finding,
    ProjectDelta,
    ReportPartials,
    Severity,
)

RULES = REGISTRY.register_many("architecture", (
    Rule("AR2.component_size", "Components shall respect the size limit",
         Severity.MAJOR, table="architectural_design",
         topic="restricted_component_size"),
    Rule("AR3.interface_size", "Interfaces shall respect the method limit",
         Severity.MINOR, table="architectural_design",
         topic="restricted_interface_size"),
    Rule("AR4.cohesion", "Modules shall be cohesive",
         Severity.MINOR, table="architectural_design",
         topic="high_cohesion"),
    Rule("AR5.coupling", "Module fan-out shall respect the limit",
         Severity.MAJOR, table="architectural_design",
         topic="restricted_coupling"),
    Rule("AR6.scheduling", "Scheduling properties shall be static",
         Severity.MINOR, table="architectural_design",
         topic="scheduling_properties"),
    Rule("AR7.interrupt", "Interrupt use shall be restricted",
         Severity.MINOR, table="architectural_design",
         topic="restricted_interrupts"),
))

#: Thread-creation and asynchronous-execution identifiers (Table 3 item 6).
SCHEDULING_CALLS = frozenset({
    "pthread_create", "thread", "async", "CreateThread", "std::thread",
    "detach", "Spin", "spin", "Timer", "CreateTimer", "usleep", "sleep_for",
})

#: Interrupt/signal-handling identifiers (Table 3 item 7).
INTERRUPT_CALLS = frozenset({
    "signal", "sigaction", "raise", "kill", "irq_request", "attachInterrupt",
})


@dataclass(frozen=True)
class ArchitectureConfig:
    """Thresholds for the size/coupling checks.

    Defaults reflect common ASIL-D review practice: components of at most
    10k LOC, interfaces of at most 20 public methods, and at most 15
    cross-module include dependencies per module.
    """

    max_component_loc: int = 10_000
    max_interface_methods: int = 20
    max_module_fanout: int = 15
    min_cohesion: float = 0.5


def module_from_path(filename: str) -> str:
    """Default module mapper: first path component (``perception/x.cc``)."""
    normalized = filename.replace("\\", "/").lstrip("./")
    if "/" in normalized:
        return normalized.split("/", 1)[0]
    return "<root>"


#: A finding to emit and the call sites it stands for.
_CallSite = Tuple[Finding, int]


class _Run(NamedTuple):
    """One per-file rule's findings, routed: those that landed, those a
    deviation suppressed, and the landed ones' call sites (an interface
    violation is one site).  A file's run holds its own findings; the
    report's, every file's, grouped by file in path order."""

    findings: Sequence[Finding]
    suppressed: Sequence[Finding]
    sites: int


_NO_RUN = _Run((), (), 0)

#: A file's AR3, AR6 and AR7 runs (:meth:`ArchitectureChecker.
#: _unit_partial`).
_UnitRuns = Tuple[_Run, _Run, _Run]

_NO_RUNS: _UnitRuns = (_NO_RUN,) * 3


class _Share(NamedTuple):
    """One file's share of its module's counts: the module, the file's
    size and path depth, and the other modules it includes into."""

    module: str
    loc: int
    depth: int
    targets: FrozenSet[str]


class _ModulePartial(NamedTuple):
    """One module's share of the architecture report, as counts over its
    member files, so a changed file's share is taken out and put in."""

    members: Tuple[str, ...]  # in path order
    loc: int
    depths: Dict[int, int]  # members per path depth
    targets: Dict[str, int]  # members including into each other module
    cohesion: float

    @property
    def depth(self) -> int:
        return max(self.depths)

    @property
    def fanout(self) -> int:
        return len(self.targets)


class _Partials(NamedTuple):
    """The architecture report's partials: per module, the report's AR3,
    AR6 and AR7 runs, and the landed sites per run of each file with
    any (what taking a file's runs out must subtract)."""

    modules: Dict[str, _ModulePartial]
    runs: _UnitRuns
    sites: Dict[str, Tuple[int, int, int]]


_NO_MODULE = _ModulePartial((), 0, {}, {}, 1.0)

#: What a fold from nothing starts from.
_NOTHING = _Partials({}, _NO_RUNS, {})


class ArchitectureChecker(Checker):
    """Implements the seven Table 3 architectural-design checks."""

    name = "architecture"

    def __init__(self, config: ArchitectureConfig = ArchitectureConfig(),
                 module_of: Callable[[str], str] = module_from_path) -> None:
        self.config = config
        self.module_of = module_of

    def check_project(self,
                      units: Iterable[Union[TranslationUnit, UnitSummary]],
                      fold: Optional[ProjectDelta] = None
                      ) -> CheckerReport:
        """The seven project-level checks, over the files' summaries
        (full units are summarized first).

        A fold from nothing by default.  With ``fold`` only the changed
        files are read: their old and new shares are taken out of and
        put into the previous module counts, their findings spliced into
        the previous runs (:func:`~repro.lang.summary.splice_files`),
        and cohesion is recomputed only when the call graph may have
        changed, the one use of ``units`` a fold makes.  Findings come
        out in the same order either way.
        """
        if fold is None:
            units = unit_summaries(units)
            previous, removed, added = _NOTHING, [], units
        else:
            previous = fold.previous.partials.extra
            removed = [unit for unit, _ in fold.removed]
            added = [unit for unit, _ in fold.added]
        report = self.new_report(units, fold=fold)
        modules = _folded_modules(
            previous.modules,
            [(unit.filename, self._share(unit)) for unit in removed],
            [(unit.filename, self._share(unit)) for unit in added])
        if fold is None or fold.calls_changed():
            members: Dict[str, List[UnitSummary]] = {}
            for unit in units:
                members.setdefault(self.module_of(unit.filename),
                                   []).append(unit)
            cohesion = self._cohesion(members)
            modules = {name: part._replace(cohesion=cohesion[name])
                       for name, part in modules.items()}
        gone = [unit.filename for unit in removed]
        fresh = {unit.filename: self._unit_partial(unit) for unit in added}
        sites = dict(previous.sites)
        for path in gone:
            sites.pop(path, None)
        sites.update((path, tuple(run.sites for run in file_runs))
                     for path, file_runs in fresh.items()
                     if any(run.sites for run in file_runs))
        runs = tuple(_folded_run(run, gone, [
            (path, file_runs[index]) for path, file_runs in fresh.items()],
            sum(previous.sites[path][index] for path in gone
                if path in previous.sites))
            for index, run in enumerate(previous.runs))
        interfaces, scheduling, interrupts = runs

        config = self.config
        ordered = sorted(modules.items())
        rule_counts: Dict[str, int] = {}
        _count(rule_counts, report.findings)
        oversized = _emit(report, rule_counts, [Finding(
            rule="AR2.component_size",
            message=(f"module {name!r} has {part.loc} LOC "
                     f"(limit {config.max_component_loc})"),
            filename=name,
            severity=Severity.MAJOR,
        ) for name, part in ordered if part.loc > config.max_component_loc])
        _append_run(report, rule_counts, interfaces)
        _emit(report, rule_counts, [Finding(
            rule="AR5.coupling",
            message=(f"module {name!r} depends on {part.fanout} "
                     f"other modules "
                     f"(limit {config.max_module_fanout})"),
            filename=name,
            severity=Severity.MAJOR,
        ) for name, part in ordered
            if part.fanout > config.max_module_fanout])
        _append_run(report, rule_counts, scheduling)
        _append_run(report, rule_counts, interrupts)
        flagged_cohesion = _emit(report, rule_counts, [Finding(
            rule="AR4.cohesion",
            message=(f"module {name!r} cohesion "
                     f"{part.cohesion:.2f} below "
                     f"{config.min_cohesion:.2f}"),
            filename=name,
            severity=Severity.MINOR,
        ) for name, part in ordered if part.cohesion < config.min_cohesion])

        parts = modules.values()
        fanouts = [part.fanout for part in parts]
        report.stats.update({
            "modules": len(modules),
            "hierarchy_depth": max((part.depth for part in parts),
                                   default=0),
            "oversized_components": oversized,
            "oversized_interfaces": interfaces.sites,
            # summed in order of first appearance in the (path-ordered)
            # units
            "mean_cohesion": (sum(part.cohesion for part in sorted(
                parts, key=lambda part: part.members[0])) / len(modules)
                if modules else 1.0),
            "low_cohesion_modules": flagged_cohesion,
            "max_module_fanout": max(fanouts, default=0),
            "coupled_module_pairs": sum(fanouts),
            "scheduling_sites": scheduling.sites,
            "interrupt_sites": interrupts.sites,
        })
        report.partials = ReportPartials(
            rule_counts=rule_counts,
            extra=_Partials(modules, runs, sites))
        return report

    # ------------------------------------------------------------------

    def _share(self, unit: UnitSummary) -> _Share:
        module = self.module_of(unit.filename)
        return _Share(
            module=module,
            loc=unit.line_count,
            depth=unit.filename.replace("\\", "/").count("/"),
            targets=frozenset(
                target for target in (self.module_of(include.target)
                                      for include in unit.local_includes)
                if target not in ("<root>", module)))

    def _unit_partial(self, unit: UnitSummary) -> _UnitRuns:
        """One file's AR3, AR6 and AR7 runs, routed as the project report
        routes them (a deviation suppresses only in its own file)."""
        runs = []
        for sites in (
                [(finding, 1) for finding in self._interface_findings(unit)],
                list(self._call_sites(unit, SCHEDULING_CALLS,
                                      "AR6.scheduling",
                                      "dynamic thread/timer creation")),
                list(self._call_sites(unit, INTERRUPT_CALLS,
                                      "AR7.interrupt",
                                      "signal/interrupt handling"))):
            if not sites:
                runs.append(_NO_RUN)
                continue
            report = self.new_report((unit,), flag_deviations=False)
            landed = sum(hits for finding, hits in sites
                         if report.emit(finding))
            runs.append(_Run(tuple(report.findings),
                             tuple(report.suppressed), landed))
        return tuple(runs)

    def _interface_findings(self, unit: UnitSummary) -> Iterable[Finding]:
        for class_info in unit.classes:
            if class_info.interface_size > self.config.max_interface_methods:
                yield Finding(
                    rule="AR3.interface_size",
                    message=(f"class {class_info.qualified_name!r} "
                             f"exposes {class_info.interface_size} "
                             f"public methods (limit "
                             f"{self.config.max_interface_methods})"),
                    filename=unit.filename,
                    line=class_info.start_line,
                    severity=Severity.MINOR,
                )

    def _cohesion(self, modules: Dict[str, List[UnitSummary]]
                  ) -> Dict[str, float]:
        """Fraction of resolvable calls staying inside the module.

        A proxy for "high cohesion": a module whose functions mostly call
        each other is self-contained; one whose calls mostly resolve into
        other modules is doing another module's work.
        """
        owner: Dict[str, str] = {}
        for name, members in modules.items():
            for unit in members:
                for function in unit.functions:
                    owner.setdefault(function.name, name)
        cohesion: Dict[str, float] = {}
        for name, members in modules.items():
            internal = 0
            resolvable = 0
            for unit in members:
                for function in unit.functions:
                    for call in function.calls:
                        target = owner.get(call)
                        if target is None:
                            continue
                        resolvable += 1
                        if target == name:
                            internal += 1
            cohesion[name] = internal / resolvable if resolvable else 1.0
        return cohesion

    @staticmethod
    def _call_sites(unit: UnitSummary, names: frozenset, rule: str,
                    description: str) -> Iterable[_CallSite]:
        for function in unit.functions:
            hits = [call for call in function.calls if call in names]
            if hits:
                yield Finding(
                    rule=rule,
                    message=(f"{function.name!r} performs "
                             f"{description} "
                             f"({sorted(set(hits))})"),
                    filename=unit.filename,
                    line=function.start_line,
                    severity=Severity.MINOR,
                    function=function.qualified_name,
                ), len(hits)


def _folded_modules(previous: Dict[str, _ModulePartial],
                    removed: List[Tuple[str, _Share]],
                    added: List[Tuple[str, _Share]]
                    ) -> Dict[str, _ModulePartial]:
    """``previous`` with the ``removed`` files' shares taken out of
    their modules and the ``added`` files' put in; a module left
    without files is dropped.  Cohesion is kept (a new module's reads
    1.0 until the caller recomputes it)."""
    modules = dict(previous)
    changes: Dict[str, Tuple[list, list]] = {}
    for side, files in enumerate((removed, added)):
        for path, part in files:
            changes.setdefault(part.module, ([], []))[side].append(
                (path, part))
    for name, (out, into) in changes.items():
        old = modules.get(name, _NO_MODULE)
        left = {path for path, _ in out}
        joined = {path for path, _ in into}
        members = (old.members if left == joined
                   else tuple(sorted(set(old.members) - left | joined)))
        if not members:
            del modules[name]
            continue
        modules[name] = _ModulePartial(
            members,
            old.loc - sum(part.loc for _, part in out)
            + sum(part.loc for _, part in into),
            _recounted(old.depths, [part.depth for _, part in out],
                       [part.depth for _, part in into]),
            _recounted(old.targets,
                       [target for _, part in out for target in part.targets],
                       [target for _, part in into
                        for target in part.targets]),
            old.cohesion)
    return modules


def _folded_run(run: _Run, removed: List[str],
                added: List[Tuple[str, _Run]], removed_sites: int) -> _Run:
    """``run`` with the ``removed`` files' findings taken out (their
    landed sites summing to ``removed_sites``) and the ``added`` files'
    runs put in."""
    if not (run.findings or run.suppressed) \
            and all(part is _NO_RUN for _, part in added):
        return _NO_RUN
    return _Run(
        splice_files(run.findings, removed,
                     [(path, part.findings) for path, part in added]),
        splice_files(run.suppressed, removed,
                     [(path, part.suppressed) for path, part in added]),
        run.sites - removed_sites + sum(part.sites for _, part in added))


def _recounted(counts: Dict, removed: Iterable, added: Iterable) -> Dict:
    """A copy of ``counts`` with ``removed`` counted out (keys reaching
    zero dropped) and ``added`` counted in."""
    counts = dict(counts)
    for key in removed:
        counts[key] -= 1
        if not counts[key]:
            del counts[key]
    for key in added:
        counts[key] = counts.get(key, 0) + 1
    return counts


def _count(rule_counts: Dict[str, int], findings: Iterable[Finding]) -> None:
    for finding in findings:
        rule_counts[finding.rule] = rule_counts.get(finding.rule, 0) + 1


def _emit(report: CheckerReport, rule_counts: Dict[str, int],
          findings: List[Finding]) -> int:
    """Emit ``findings``; returns (and counts) the ones that landed."""
    landed = [finding for finding in findings if report.emit(finding)]
    _count(rule_counts, landed)
    return len(landed)


def _append_run(report: CheckerReport, rule_counts: Dict[str, int],
                run: _Run) -> None:
    """Append a per-file rule's (already routed) run to ``report``."""
    report.findings.extend(run.findings)
    report.suppressed.extend(run.suppressed)
    if run.suppressed:
        report.stats["deviations"] = \
            report.stats.get("deviations", 0) + len(run.suppressed)
    if run.findings:  # one rule per run
        rule = run.findings[0].rule
        rule_counts[rule] = rule_counts.get(rule, 0) + len(run.findings)
