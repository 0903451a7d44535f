"""Watch-mode streaming: finding-level diffs between live assessments.

:mod:`repro.core.diff` compares two assessments at the verdict level —
which ISO 26262 techniques improved or regressed.  The watch loop needs
one level finer: *which findings* appeared or disappeared when a file
changed, and *which rules* those findings belong to.  Both layers ride
in every streamed event, so a CI tail sees "edit to ``control.cpp``
added two ``M15.1`` findings and flipped goto-usage to non-compliant"
in a single JSON line.

Findings are compared as multisets of their :meth:`~repro.checkers.
base.Finding.located` strings — two identical findings on different
lines of the same file are distinct, two byte-identical ones collapse —
so an identical-rewrite touch produces an empty diff by construction.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Dict, Iterator, List

from ..errors import ReproError

__all__ = ["finding_diff", "watch_events"]


def _located_counts(result) -> Counter:
    """Multiset of ``(checker, located-string, rule)`` across reports."""
    counts: Counter = Counter()
    for name, report in result.reports.items():
        for finding in report.findings:
            counts[(name, finding.located(), finding.rule)] += 1
    return counts


def finding_diff(before, after) -> Dict[str, Any]:
    """Findings that appeared (``new``) or disappeared (``fixed``).

    Both operands are live :class:`~repro.core.assessment.
    AssessmentResult` objects (a saved ``--json`` baseline carries only
    per-checker counts, not individual findings — verdict-level diffing
    via :func:`~repro.core.diff.diff_assessments` covers that case).
    """
    before_counts = _located_counts(before)
    after_counts = _located_counts(after)
    new: List[str] = []
    fixed: List[str] = []
    rules_changed = set()
    for key, count in (after_counts - before_counts).items():
        _, located, rule = key
        new.extend([located] * count)
        rules_changed.add(rule)
    for key, count in (before_counts - after_counts).items():
        _, located, rule = key
        fixed.extend([located] * count)
        rules_changed.add(rule)
    return {"new": sorted(new), "fixed": sorted(fixed),
            "rules_changed": sorted(rules_changed)}


def watch_events(server, root: str, *, iterations: int = 0,
                 interval: float = 2.0,
                 sleep=time.sleep) -> Iterator[Dict[str, Any]]:
    """The ``--watch`` loop: yield one event per (re-)assessment.

    The first event is the baseline (``"event": "baseline"``); each
    later poll that observed a *material* delta (content added, changed,
    or removed — identical rewrites do not count) re-assesses through
    the server's hot cache and yields an ``"update"`` event carrying the
    delta, the fresh assessment reply, and the verdict- plus
    finding-level diff against the previous iteration.

    Args:
        server: the :class:`~repro.serve.server.AssessmentServer`
            holding cache, profile, and store state.
        root: tree to watch.
        iterations: total polls *after* the baseline; ``0`` means run
            until interrupted.  Finite values make the loop
            deterministic for tests and CI.
        interval: seconds between polls.
        sleep: injectable clock for tests.

    A degraded assessment (contained checker crash) yields its event
    with ``"degraded": true`` and the loop continues — the containment
    boundary is per-iteration, matching the serve protocol's
    per-request boundary.
    """
    baseline = server.assess(root)
    yield {"event": "baseline", "iteration": 0, **baseline}
    count = 0
    while iterations == 0 or count < iterations:
        count += 1
        sleep(interval)
        delta = server.refresh(root)
        if not delta.material:
            continue
        previous = server.results.get(root)
        try:
            reply = server.assess(root, refresh=False)
        except ReproError as error:
            # Per-iteration containment: a tree emptying out (or any
            # other expected fault) degrades this event, not the loop.
            yield {"event": "error", "iteration": count,
                   "delta": delta.to_dict(), "error": str(error),
                   "degraded": True}
            continue
        event: Dict[str, Any] = {
            "event": "update", "iteration": count,
            "delta": delta.to_dict(), **reply,
        }
        if previous is not None:
            # One diff reply carries both layers: the assess above
            # made ``previous`` the server's "before" side.
            diff = server.diff(root)
            event["diff"] = diff["verdicts"]
            event["finding_diff"] = diff["findings"]
        yield event
