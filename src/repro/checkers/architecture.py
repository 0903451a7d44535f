"""Architectural-design checks — paper Table 2 (ISO 26262-6 Table 3).

Section 3.4: hierarchy of components, restricted component/interface size,
cohesion, coupling, scheduling properties, and restricted interrupt use.
The paper notes "Main modules of Apollo have from 5k to 60k lines of code"
and concludes (Observation 13) that AD frameworks do not comply with the
size/interface restrictions, though compliance is reachable with
non-negligible effort.

This checker is project-level: modules are derived from file paths (first
path component by default), and the cohesion/coupling metrics need the
whole include and call graphs.  It is assembled from per-module partials
(size, depth, fan-out, cohesion) and per-file partials (oversized
interfaces, scheduling and interrupt call sites), so a fold across runs
recomputes only the partials of changed files and their modules —
cohesion everywhere only when the call graph may have changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Set, Tuple, Union)

from ..lang.cppmodel import TranslationUnit
from ..lang.summary import UnitSummary, unit_summaries
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


class _UnitPartial(NamedTuple):
    """One file's share of the architecture report."""

    module: str
    interfaces: Tuple[Finding, ...]
    scheduling: Tuple[_CallSite, ...]
    interrupts: Tuple[_CallSite, ...]


class _ModulePartial(NamedTuple):
    """One module's share of the architecture report."""

    loc: int
    depth: int
    fanout: int
    cohesion: float


class _Partials(NamedTuple):
    """The architecture report's partials, per file and per module (in
    order of first appearance)."""

    units: Dict[str, _UnitPartial]
    modules: Dict[str, _ModulePartial]


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

        With ``fold`` only the changed files' partials and their
        modules' are recomputed, and cohesion only when the call graph
        may have changed; findings come out in the same order.
        """
        units = unit_summaries(units)
        report = self.new_report(units)
        previous: Optional[_Partials] = (
            fold.previous.partials.extra if fold is not None else None)
        changed = fold.paths() if fold is not None else set()
        unit_parts: Dict[str, _UnitPartial] = {}
        modules: Dict[str, List[UnitSummary]] = {}
        for unit in units:
            path = unit.filename
            part = (previous.units.get(path)
                    if previous is not None and path not in changed
                    else None)
            if part is None:
                part = self._unit_partial(unit)
            unit_parts[path] = part
            modules.setdefault(part.module, []).append(unit)
        dirty = {unit_parts[path].module for path in changed
                 if path in unit_parts}
        if previous is not None:
            dirty.update(previous.units[path].module for path in changed
                         if path in previous.units)
        cohesion = (self._cohesion(modules)
                    if fold is None or fold.calls_changed() else None)
        module_parts: Dict[str, _ModulePartial] = {}
        for name, members in modules.items():
            part = (previous.modules.get(name)
                    if previous is not None and name not in dirty else None)
            if part is None:
                part = self._module_partial(
                    name, members, cohesion[name] if cohesion is not None
                    else previous.modules[name].cohesion)
            elif cohesion is not None:
                part = part._replace(cohesion=cohesion[name])
            module_parts[name] = part

        ordered = sorted(module_parts.items())
        oversized = 0
        for name, part in ordered:
            if part.loc > self.config.max_component_loc:
                if report.emit(Finding(
                        rule="AR2.component_size",
                        message=(f"module {name!r} has {part.loc} LOC "
                                 f"(limit {self.config.max_component_loc})"),
                        filename=name,
                        severity=Severity.MAJOR,
                )):
                    oversized += 1
        parts = [unit_parts[unit.filename] for unit in units]
        interface_violations = sum(
            1 for part in parts for finding in part.interfaces
            if report.emit(finding))
        for name, part in ordered:
            if part.fanout > self.config.max_module_fanout:
                report.emit(Finding(
                    rule="AR5.coupling",
                    message=(f"module {name!r} depends on {part.fanout} "
                             f"other modules "
                             f"(limit {self.config.max_module_fanout})"),
                    filename=name,
                    severity=Severity.MAJOR,
                ))
        scheduling_sites = sum(hits for part in parts
                               for finding, hits in part.scheduling
                               if report.emit(finding))
        interrupt_sites = sum(hits for part in parts
                              for finding, hits in part.interrupts
                              if report.emit(finding))

        flagged_cohesion = 0
        for name, part in ordered:
            if part.cohesion < self.config.min_cohesion:
                if report.emit(Finding(
                        rule="AR4.cohesion",
                        message=(f"module {name!r} cohesion "
                                 f"{part.cohesion:.2f} below "
                                 f"{self.config.min_cohesion:.2f}"),
                        filename=name,
                        severity=Severity.MINOR,
                )):
                    flagged_cohesion += 1

        fanouts = [part.fanout for part in module_parts.values()]
        report.stats.update({
            "modules": len(module_parts),
            "hierarchy_depth": max((part.depth
                                    for part in module_parts.values()),
                                   default=0),
            "oversized_components": oversized,
            "oversized_interfaces": interface_violations,
            "mean_cohesion": (sum(part.cohesion
                                  for part in module_parts.values())
                              / len(module_parts)
                              if module_parts else 1.0),
            "low_cohesion_modules": flagged_cohesion,
            "max_module_fanout": max(fanouts, default=0),
            "coupled_module_pairs": sum(fanouts),
            "scheduling_sites": scheduling_sites,
            "interrupt_sites": interrupt_sites,
        })
        report.partials = ReportPartials(
            rule_counts=report.count_by_rule(),
            extra=_Partials(unit_parts, module_parts))
        return report

    # ------------------------------------------------------------------

    def _unit_partial(self, unit: UnitSummary) -> _UnitPartial:
        return _UnitPartial(
            module=self.module_of(unit.filename),
            interfaces=tuple(self._interface_findings(unit)),
            scheduling=tuple(self._call_sites(
                unit, SCHEDULING_CALLS, "AR6.scheduling",
                "dynamic thread/timer creation")),
            interrupts=tuple(self._call_sites(
                unit, INTERRUPT_CALLS, "AR7.interrupt",
                "signal/interrupt handling")))

    def _module_partial(self, name: str, members: List[UnitSummary],
                        cohesion: float) -> _ModulePartial:
        return _ModulePartial(
            loc=sum(unit.line_count for unit in members),
            depth=max(unit.filename.replace("\\", "/").count("/")
                      for unit in members),
            fanout=self._fanout(name, members),
            cohesion=cohesion)

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

    def _fanout(self, name: str, members: List[UnitSummary]) -> int:
        """Cross-module include fan-out of one module (Table 3 item 5)."""
        targets: Set[str] = set()
        for unit in members:
            for include in unit.local_includes:
                target_module = self.module_of(include.target)
                if target_module not in ("<root>", name):
                    targets.add(target_module)
        return len(targets)

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
