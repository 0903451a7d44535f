"""The fused checker driver: all checkers over one unit in one sweep.

:func:`fused_unit_bundle` returns one unit's ``{checker name: per-unit
report}`` bundle.  It builds one :class:`~repro.engine.interests.
UnitSweep`, lets every checker's
:meth:`~repro.checkers.base.Checker.unit_visitor` register its
interests, and walks the unit once.  A checker's visitor is its only
analysis code, and :meth:`~repro.checkers.base.Checker.check_unit` runs
the same visitor on a sweep of its own, so each report here equals that
checker's ``check_unit(unit)``.  External checkers that override only
``check_unit`` are called after the shared sweep.

Crash containment is per checker per unit: a checker whose handler
raises outside the :class:`~repro.errors.ReproError` hierarchy is
contained to a ``crash_report`` for this unit while every other
checker's report is unaffected.  Because a fused sweep interleaves
checkers, containment is retry-based: the sweep aborts, the crashed
checker is dropped, and the unit is re-swept with the survivors — their
reports are rebuilt from scratch, which discards the aborted sweep's
partial emissions, the crashed checker's included.  Crashes are rare
(fault injection and genuine bugs), so the retry costs nothing in the
steady state.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..checkers.base import (
    Checker,
    CheckerReport,
    crash_report,
    make_crash,
)
from ..errors import ReproError
from ..lang.cppmodel import TranslationUnit
from ..obs import NULL_LOG, EventLog
from .interests import UnitSweep

__all__ = ["fused_unit_bundle"]


def fused_unit_bundle(checkers: Sequence[Checker], unit: TranslationUnit,
                      strict: bool = False,
                      log: EventLog = NULL_LOG
                      ) -> Dict[str, CheckerReport]:
    """Run every checker over one unit in a single fused sweep.

    Returns ``{checker name: report}`` with each report equal to
    ``checker.check_unit(unit)``.  ``strict=True`` re-raises checker
    crashes instead of containing them; a contained crash is logged as
    a ``checker.crash`` event at stage ``"check_unit"``.
    """
    checkers = list(checkers)
    active = checkers
    crashed: Dict[str, CheckerReport] = {}
    while True:
        sweep = UnitSweep(unit)
        try:
            fresh = _sweep_unit(active, unit, sweep)
        except ReproError:
            raise
        except Exception as error:
            owner = sweep.owner
            if strict or owner is None:
                raise
            log.error("checker.crash", checker=owner.name,
                      stage="check_unit", path=unit.filename,
                      error=f"{type(error).__name__}: {error}")
            crashed[owner.name] = crash_report(owner.name, make_crash(
                owner.name, "check_unit", error, path=unit.filename))
            active = [checker for checker in active
                      if checker is not owner]
            continue
        break
    if not crashed:
        return fresh
    return {checker.name: crashed.get(checker.name,
                                      fresh.get(checker.name))
            for checker in checkers}


def _sweep_unit(checkers: List[Checker], unit: TranslationUnit,
                sweep: UnitSweep) -> Dict[str, CheckerReport]:
    """One attempt: register every checker, run the sweep once.

    ``sweep.owner`` tracks whose code is executing at all times, so the
    caller can attribute an escape to the offending checker.
    """
    reports: Dict[str, CheckerReport] = {}
    fallback: List[Checker] = []
    for checker in checkers:
        sweep.owner = checker
        if type(checker).unit_visitor is Checker.unit_visitor:
            # No visitor: its own check_unit runs after the sweep.
            fallback.append(checker)
            continue
        report = checker.new_report((unit,))
        checker.unit_visitor(unit, report, sweep)
        reports[checker.name] = report
    sweep.run()
    for checker in fallback:
        sweep.owner = checker
        reports[checker.name] = checker.check_unit(unit)
    return reports
