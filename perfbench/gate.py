"""The correctness gate and failure accounting.

Every timed operation is checked: an assessment's result must equal the
serial reference for the same seed (the full ``to_dict()`` plus every
finding), the reference must reproduce the paper's anchors, and a serve
reply must be ``ok``, not degraded, and show exactly the cache misses
its request implies.  Each mismatch counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

#: The paper anchors pinned by ``benchmarks/test_bench_observations.py``
#: and ``benchmarks/test_bench_tables.py``.
MIN_CASTS = 1400
STATIC_OBSERVATIONS = 11
MIN_NON_COMPLIANT = 8

#: Cache misses a serve ``assess`` must show: a one-file edit re-runs
#: that file's parse and check stages; an unchanged tree re-runs none.
EDIT_MISSES = 2
NOOP_MISSES = 0


def served_findings(result) -> Dict[str, List[str]]:
    """Findings per checker, in the shape a serve reply carries them."""
    return {name: sorted(finding.located() for finding in report.findings)
            for name, report in sorted(result.reports.items())}


def fingerprint(result) -> Dict[str, Any]:
    """What must not change across configurations: ``to_dict()`` plus
    every finding (``to_dict`` alone carries only finding counts)."""
    return {"result": result.to_dict(), "findings": served_findings(result)}


def digest(document: Any) -> str:
    """A stable hash of a JSON-able document."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def anchors(result) -> Dict[str, Any]:
    document = result.to_dict()
    return {
        "casts": result.evidence.get("strong_typing").stat("explicit_casts"),
        "observations": len(document["observations"]),
        "non_compliant": document["verdicts"]["non-compliant"],
    }


def anchor_failures(found: Dict[str, Any]) -> List[str]:
    """The paper anchors a reference result misses (empty when all met)."""
    problems = []
    if not found["casts"] > MIN_CASTS:
        problems.append(f"casts {found['casts']} <= {MIN_CASTS}")
    if found["observations"] != STATIC_OBSERVATIONS:
        problems.append(f"{found['observations']} static observations, "
                        f"want {STATIC_OBSERVATIONS}")
    if found["non_compliant"] < MIN_NON_COMPLIANT:
        problems.append(f"{found['non_compliant']} non-compliant "
                        f"verdicts, want >= {MIN_NON_COMPLIANT}")
    return problems


def assessment_problem(out: Dict[str, Any], reference: Optional[str],
                       misses: Optional[int] = None,
                       hits: Optional[int] = None) -> str:
    """Why one assessment fails the gate ('' when it passes).

    ``out`` carries the result's ``digest`` (of :func:`fingerprint`),
    ``degraded`` flag and cache counts; ``misses``/``hits`` are the
    counts the configuration implies (a cold store hits nothing, a warm
    one misses nothing).
    """
    problems = []
    if out["degraded"]:
        problems.append("degraded")
    if reference is not None and out["digest"] != reference:
        problems.append("result differs from the serial reference")
    cache = out.get("cache") or {}
    if misses is not None and cache.get("misses") != misses:
        problems.append(f"{cache.get('misses')} misses, want {misses}")
    if hits is not None and cache.get("hits") != hits:
        problems.append(f"{cache.get('hits')} hits, want {hits}")
    return "; ".join(problems)


def reply_problem(reply: Dict[str, Any],
                  expected_misses: Optional[int]) -> str:
    """Why a serve ``assess`` reply fails the gate ('' when it passes);
    ``expected_misses=None`` skips the cache check (a first assess)."""
    if not reply.get("ok"):
        return f"not ok: {reply.get('error', '?')}"
    if reply.get("degraded"):
        return "degraded"
    misses = reply.get("cache", {}).get("misses")
    if expected_misses is not None and misses != expected_misses:
        return f"{misses} cache misses, want {expected_misses}"
    return ""


class Tally:
    """Operations attempted and failed, with the reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: List[str] = []

    def record(self, problem: str, what: str = "") -> bool:
        """Count one operation; ``problem`` non-empty marks it failed."""
        self.attempted += 1
        if problem:
            self.problems.append(f"{what}: {problem}" if what else problem)
        return not problem

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
