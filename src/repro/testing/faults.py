"""Deterministic fault injection for the assessment pipeline.

The fault-isolation layer (crash containment in the checker stages,
worker retry and serial fallback in :mod:`repro.core.parallel`, corrupt
cache recovery in :mod:`repro.store.objects`) must be *exercised*, not
believed.  This module provides the controlled failures the
``tests/robustness`` suites inject:

* :class:`FaultPlan` — a declarative plan of faults, each fired at a
  specific call site either on the N-th call or on a specific file
  path.  Path triggers are the deterministic choice when worker chunks
  run in separate processes (each process holds its own pickled copy of
  the plan, so call counters do not aggregate across workers).
* :class:`FaultyChecker` — a benign per-unit checker that detonates the
  plan from inside the checker stage, via
  :attr:`~repro.core.config.PipelineConfig.extra_checkers`.
* :func:`corrupt_cache_entries` / :func:`plant_stale_tmp` — disk-level
  damage for :class:`~repro.store.objects.ObjectStore` recovery tests.

Run ``python -m repro.testing.faults`` for a self-contained smoke test
(used by CI): it injects a crashing checker into a small synthetic
corpus and asserts both the degraded completion and the ``strict``
abort.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..checkers.base import Checker, CheckerReport
from ..lang.cppmodel import TranslationUnit
from ..store.objects import ObjectStore

#: Recognized fault kinds.
FAULT_KINDS = ("raise", "hang", "unpicklable", "exit")


class FaultInjected(RuntimeError):
    """The injected crash.

    Deliberately *not* a :class:`~repro.errors.ReproError`: expected
    analysis errors pass through containment untouched, so the harness
    must raise from outside that hierarchy to hit the containment path.
    """


class WorkerExit(RuntimeError):
    """Raised in place of ``os._exit`` when an ``exit`` fault fires in
    the originating process (where killing would take the test down)."""


@dataclass
class Fault:
    """One planned failure.

    Attributes:
        kind: one of :data:`FAULT_KINDS` — ``raise`` (crash with
            :class:`FaultInjected`), ``hang`` (sleep ``seconds``),
            ``unpicklable`` (poison the result so it cannot cross a
            process boundary or enter the cache), ``exit`` (kill the
            worker process outright, for ``BrokenProcessPool`` drills).
        site: logical call site the fault arms, e.g. ``"check_unit"``.
        on_call: 1-based call index (per site) that triggers, when no
            ``path`` is given.
        path: trigger on this file instead of a call count —
            deterministic across process-pool workers.
        seconds: sleep duration for ``hang``.
        message: exception text for ``raise``.
        exit_code: status for ``exit``.
    """

    kind: str
    site: str = "check_unit"
    on_call: int = 1
    path: str = ""
    seconds: float = 0.25
    message: str = "injected fault"
    exit_code: int = 13

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS}, "
                             f"got {self.kind!r}")


@dataclass
class FaultPlan:
    """A deterministic schedule of faults; each fires exactly once.

    Picklable (it rides inside :class:`FaultyChecker` across process
    pools).  ``origin_pid`` is recorded at construction so an ``exit``
    fault only kills *worker* processes: fired in the originating
    process — e.g. during the engine's serial fallback — it raises
    :class:`WorkerExit` instead, keeping the test process alive while
    still being observable.
    """

    faults: List[Fault] = field(default_factory=list)
    calls: Dict[str, int] = field(default_factory=dict)
    fired: List[str] = field(default_factory=list)
    spent: Set[int] = field(default_factory=set)
    origin_pid: int = field(default_factory=os.getpid)

    def fire(self, site: str, path: str = "") -> Optional[str]:
        """Advance the ``site`` call counter and detonate any matching
        armed fault.  Returns the kind it applied (``raise`` raises
        instead), or ``None``."""
        call = self.calls.get(site, 0) + 1
        self.calls[site] = call
        for index, fault in enumerate(self.faults):
            if index in self.spent or fault.site != site:
                continue
            if fault.path:
                if fault.path != path:
                    continue
            elif call != fault.on_call:
                continue
            self.spent.add(index)
            self.fired.append(f"{fault.kind}@{site}:{path or call}")
            if fault.kind == "raise":
                raise FaultInjected(fault.message)
            if fault.kind == "hang":
                time.sleep(fault.seconds)
                return "hang"
            if fault.kind == "exit":
                if os.getpid() != self.origin_pid:
                    os._exit(fault.exit_code)
                raise WorkerExit(
                    f"exit fault fired in the originating process "
                    f"(pid {self.origin_pid})")
            return fault.kind
        return None


def unpicklable_value() -> object:
    """A value :mod:`pickle` rejects (``TypeError``) on any protocol."""
    return threading.Lock()


class FaultyChecker(Checker):
    """A per-unit checker whose only job is detonating a fault plan.

    Benign by default: with an empty (or exhausted) plan every unit
    yields an empty report, so a fault-free run with the injector
    installed is a valid comparison baseline for a faulted one.
    """

    name = "fault_injector"
    version = "fault-injector:1"

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()

    def check_unit(self, unit: TranslationUnit) -> CheckerReport:
        kind = self.plan.fire("check_unit", unit.filename)
        report = CheckerReport(checker=self.name)
        if kind == "unpicklable":
            # Ride outside ``stats`` (whose values get summed on merge);
            # the attribute still poisons any pickle of the report.
            report.payload = unpicklable_value()
        return report

    def fingerprint(self) -> str:
        # Key cached bundles on the *planned* faults (not the mutable
        # spent/counter state): two benign runs share entries, while a
        # faulted run never replays a differently-faulted run's cache.
        return f"{super().fingerprint()}@faults:{self.plan.faults!r}"


# ----------------------------------------------------------------------
# disk-level damage


def corrupt_cache_entries(cache: ObjectStore, count: int = 1,
                          junk: bytes = b"\x80\x05corrupt") -> int:
    """Overwrite up to ``count`` cache entries with garbage, in sorted
    path order (deterministic).  Returns how many were damaged."""
    damaged = 0
    try:
        subdirectories = sorted(os.listdir(cache.root))
    except OSError:
        return 0
    for subdirectory in subdirectories:
        directory = os.path.join(cache.root, subdirectory)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".pkl"):
                continue
            with open(os.path.join(directory, name), "wb") as handle:
                handle.write(junk)
            damaged += 1
            if damaged >= count:
                return damaged
    return damaged


def plant_stale_tmp(cache: ObjectStore, count: int = 1) -> List[str]:
    """Create ``count`` stale ``*.tmp.<pid>`` leftovers (dead pid 0),
    as a crashed writer would; returns their paths."""
    directory = os.path.join(cache.root, "00")
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index in range(count):
        path = os.path.join(directory, f"stale{index}.pkl.tmp.0")
        with open(path, "wb") as handle:
            handle.write(b"partial write")
        paths.append(path)
    return paths


# ----------------------------------------------------------------------
# CI smoke


def _smoke() -> int:
    """End-to-end self-check of the containment stack (used by CI)."""
    from ..core.config import PipelineConfig
    from ..core.pipeline import assess_sources
    from ..corpus.apollo import apollo_spec
    from ..corpus.generator import generate_corpus

    sources = generate_corpus(
        apollo_spec(scale=0.05, seed=26262)).sources()
    target = sorted(sources)[0]

    plan = FaultPlan([Fault("raise", site="check_unit", path=target)])
    result = assess_sources(sources, PipelineConfig(
        jobs=2, extra_checkers=(FaultyChecker(plan),)))
    assert result.degraded, "injected crash was not contained"
    assert any(crash.checker == "fault_injector"
               for crash in result.crashes), result.crashes
    document = result.to_dict()
    assert document["degraded"] is True
    assert document["degradations"][0]["checker"] == "fault_injector"

    clean = assess_sources(sources, PipelineConfig(
        jobs=2, extra_checkers=(FaultyChecker(FaultPlan()),)))
    assert not clean.degraded
    for name, report in clean.reports.items():
        if name == "fault_injector":
            continue
        faulted = result.reports[name]
        assert [f.located() for f in report.findings] == \
            [f.located() for f in faulted.findings], \
            f"checker {name} findings changed under an unrelated fault"

    strict_plan = FaultPlan([Fault("raise", site="check_unit",
                                   path=target)])
    try:
        assess_sources(sources, PipelineConfig(
            strict=True,
            extra_checkers=(FaultyChecker(strict_plan),)))
    except FaultInjected:
        pass
    else:
        raise AssertionError("strict mode did not abort on the fault")

    print("fault-injection smoke: OK "
          f"({len(result.crashes)} contained crash, strict aborts)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_smoke())
