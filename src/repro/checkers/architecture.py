"""Architectural-design checks — paper Table 2 (ISO 26262-6 Table 3).

Section 3.4: hierarchy of components, restricted component/interface size,
cohesion, coupling, scheduling properties, and restricted interrupt use.
The paper notes "Main modules of Apollo have from 5k to 60k lines of code"
and concludes (Observation 13) that AD frameworks do not comply with the
size/interface restrictions, though compliance is reachable with
non-negligible effort.

This checker is project-level: modules are derived from file paths (first
path component by default), and the cohesion/coupling metrics need the
whole include and call graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Set, Union

from ..lang.cppmodel import TranslationUnit
from ..lang.summary import UnitSummary, unit_summaries
from ..rules import REGISTRY, Rule
from .base import Checker, CheckerReport, Finding, Severity

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


class ArchitectureChecker(Checker):
    """Implements the seven Table 3 architectural-design checks."""

    name = "architecture"

    def __init__(self, config: ArchitectureConfig = ArchitectureConfig(),
                 module_of: Callable[[str], str] = module_from_path) -> None:
        self.config = config
        self.module_of = module_of

    def check_project(self,
                      units: Iterable[Union[TranslationUnit, UnitSummary]]
                      ) -> CheckerReport:
        """The seven project-level checks, over the files' summaries
        (full units are summarized first)."""
        units = unit_summaries(units)
        report = self.new_report(units)
        modules = self._group_by_module(units)

        hierarchy_depth = self._hierarchy_depth(units)
        oversized = self._check_component_sizes(modules, report)
        interface_violations = self._check_interfaces(units, report)
        cohesion = self._cohesion(modules)
        fanout = self._coupling(modules, report)
        scheduling_sites = self._count_calls(units, SCHEDULING_CALLS,
                                             "AR6.scheduling", report,
                                             "dynamic thread/timer creation")
        interrupt_sites = self._count_calls(units, INTERRUPT_CALLS,
                                            "AR7.interrupt", report,
                                            "signal/interrupt handling")

        low_cohesion = [name for name, value in cohesion.items()
                        if value < self.config.min_cohesion]
        flagged_cohesion = 0
        for name in sorted(low_cohesion):
            if report.emit(Finding(
                    rule="AR4.cohesion",
                    message=(f"module {name!r} cohesion "
                             f"{cohesion[name]:.2f} below "
                             f"{self.config.min_cohesion:.2f}"),
                    filename=name,
                    severity=Severity.MINOR,
            )):
                flagged_cohesion += 1

        report.stats.update({
            "modules": len(modules),
            "hierarchy_depth": hierarchy_depth,
            "oversized_components": oversized,
            "oversized_interfaces": interface_violations,
            "mean_cohesion": (sum(cohesion.values()) / len(cohesion)
                              if cohesion else 1.0),
            "low_cohesion_modules": flagged_cohesion,
            "max_module_fanout": max(fanout.values(), default=0),
            "coupled_module_pairs": sum(fanout.values()),
            "scheduling_sites": scheduling_sites,
            "interrupt_sites": interrupt_sites,
        })
        return report

    # ------------------------------------------------------------------

    def _group_by_module(self, units: List[UnitSummary]
                         ) -> Dict[str, List[UnitSummary]]:
        modules: Dict[str, List[UnitSummary]] = {}
        for unit in units:
            modules.setdefault(self.module_of(unit.filename), []).append(unit)
        return modules

    @staticmethod
    def _hierarchy_depth(units: List[UnitSummary]) -> int:
        depth = 0
        for unit in units:
            normalized = unit.filename.replace("\\", "/")
            depth = max(depth, normalized.count("/"))
        return depth

    def _check_component_sizes(self,
                               modules: Dict[str, List[UnitSummary]],
                               report: CheckerReport) -> int:
        oversized = 0
        for name, members in sorted(modules.items()):
            loc = sum(unit.line_count for unit in members)
            if loc > self.config.max_component_loc:
                if report.emit(Finding(
                        rule="AR2.component_size",
                        message=(f"module {name!r} has {loc} LOC "
                                 f"(limit {self.config.max_component_loc})"),
                        filename=name,
                        severity=Severity.MAJOR,
                )):
                    oversized += 1
        return oversized

    def _check_interfaces(self,
                          units: List[Union[TranslationUnit, UnitSummary]],
                          report: CheckerReport) -> int:
        violations = 0
        for unit in units:
            for class_info in unit.classes:
                if class_info.interface_size > self.config.max_interface_methods:
                    if report.emit(Finding(
                            rule="AR3.interface_size",
                            message=(f"class {class_info.qualified_name!r} "
                                     f"exposes {class_info.interface_size} "
                                     f"public methods (limit "
                                     f"{self.config.max_interface_methods})"),
                            filename=unit.filename,
                            line=class_info.start_line,
                            severity=Severity.MINOR,
                    )):
                        violations += 1
        return violations

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

    def _coupling(self, modules: Dict[str, List[UnitSummary]],
                  report: CheckerReport) -> Dict[str, int]:
        """Cross-module include fan-out per module (Table 3 item 5)."""
        fanout: Dict[str, int] = {}
        for name, members in sorted(modules.items()):
            targets: Set[str] = set()
            for unit in members:
                for include in unit.local_includes:
                    target_module = self.module_of(include.target)
                    if target_module not in ("<root>", name):
                        targets.add(target_module)
            fanout[name] = len(targets)
            if len(targets) > self.config.max_module_fanout:
                report.emit(Finding(
                    rule="AR5.coupling",
                    message=(f"module {name!r} depends on {len(targets)} "
                             f"other modules "
                             f"(limit {self.config.max_module_fanout})"),
                    filename=name,
                    severity=Severity.MAJOR,
                ))
        return fanout

    @staticmethod
    def _count_calls(units: List[UnitSummary], names: frozenset,
                     rule: str, report: CheckerReport,
                     description: str) -> int:
        sites = 0
        for unit in units:
            for function in unit.functions:
                hits = [call for call in function.calls if call in names]
                if hits:
                    if report.emit(Finding(
                            rule=rule,
                            message=(f"{function.name!r} performs "
                                     f"{description} "
                                     f"({sorted(set(hits))})"),
                            filename=unit.filename,
                            line=function.start_line,
                            severity=Severity.MINOR,
                            function=function.qualified_name,
                    )):
                        sites += len(hits)
        return sites
