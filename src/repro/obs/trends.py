"""Trend and regression reporting over the run history: ``repro-trends``.

The paper's claim is longitudinal — how a framework tracks the ISO
26262-6 tables *over time* — and so is a CI fleet's: the interesting
question is rarely one run's finding count but whether the latest run
*spiked* relative to recent history.  This module reads a store's run
history (:mod:`repro.store.history`) back and answers exactly that::

    repro-trends                            # table over .repro's runs
    repro-trends --store .repro --json t.json --min-delta 1

Any directory holding a ``runs.jsonl`` reads the same way, so an old
run-ledger directory works as ``--store`` too.

Two regression detectors run over the last N comparable records
(records whose config + rules fingerprints match the latest run's —
a finding spike means nothing across a profile change):

* **finding spike** — a rule whose latest count exceeds the rolling
  median of the prior runs by at least ``--min-delta`` findings *and*
  by a ``--spike-factor`` multiple;
* **stage slowdown** — a pipeline stage whose latest wall time exceeds
  the rolling median by a ``--slowdown-factor`` multiple and at least
  ``--min-seconds``.

Exit codes: 0 clean, 1 when any regression fired (so CI can gate on
it), 2 for unusable invocations (missing history, bad flags).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..store.history import RunHistory, RunRecord

__all__ = [
    "Regression",
    "detect_regressions",
    "finding_spikes",
    "render_trends",
    "stage_slowdowns",
    "trends_document",
    "main",
]

#: Default look-back window, in runs.
DEFAULT_LAST = 20
#: Latest count must be at least this multiple of the rolling median.
DEFAULT_SPIKE_FACTOR = 2.0
#: ... and exceed it by at least this many findings.
DEFAULT_MIN_DELTA = 3
#: Latest stage seconds must be at least this multiple of the median.
DEFAULT_SLOWDOWN_FACTOR = 2.0
#: ... and exceed it by at least this many seconds (absorbs noise on
#: sub-millisecond stages).
DEFAULT_MIN_SECONDS = 0.05


@dataclass(frozen=True)
class Regression:
    """One detected regression in the latest run vs its history.

    Attributes:
        kind: ``"finding_spike"`` or ``"stage_slowdown"``.
        subject: the rule id or stage name.
        latest: the latest run's value (count or seconds).
        median: the rolling median over the prior runs.
        run_id: the offending (latest) run.
    """

    kind: str
    subject: str
    latest: float
    median: float
    run_id: str

    def describe(self) -> str:
        if self.kind == "finding_spike":
            return (f"REGRESSION [rule {self.subject}] "
                    f"{int(self.latest)} finding(s) in run {self.run_id} "
                    f"vs rolling median {self.median:g}")
        return (f"REGRESSION [stage {self.subject}] "
                f"{self.latest:.3f}s in run {self.run_id} "
                f"vs rolling median {self.median:.3f}s")

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "latest": self.latest,
            "median": self.median,
            "run_id": self.run_id,
        }


def comparable_window(records: List[RunRecord]) -> List[RunRecord]:
    """The trailing run of records comparable to the latest one.

    Walks backwards from the newest record and keeps records while the
    ``config_fingerprint`` + ``rules_fingerprint`` pair matches the
    latest run's — a configuration change starts trend history afresh
    rather than reporting spurious spikes across it.
    """
    if not records:
        return []
    latest = records[-1]
    key = (latest.config_fingerprint, latest.rules_fingerprint)
    window: List[RunRecord] = []
    for record in reversed(records):
        if (record.config_fingerprint, record.rules_fingerprint) != key:
            break
        window.append(record)
    window.reverse()
    return window


def finding_spikes(records: List[RunRecord],
                   spike_factor: float = DEFAULT_SPIKE_FACTOR,
                   min_delta: int = DEFAULT_MIN_DELTA
                   ) -> List[Regression]:
    """Per-rule finding-count spikes in the latest record vs the rest."""
    if len(records) < 2:
        return []
    latest, history = records[-1], records[:-1]
    rules = set(latest.findings_by_rule)
    for record in history:
        rules.update(record.findings_by_rule)
    regressions: List[Regression] = []
    for rule in sorted(rules):
        current = latest.findings_by_rule.get(rule, 0)
        median = statistics.median(
            record.findings_by_rule.get(rule, 0) for record in history)
        if (current - median >= min_delta
                and current >= spike_factor * max(median, 1)):
            regressions.append(Regression(
                kind="finding_spike", subject=rule,
                latest=current, median=median, run_id=latest.run_id))
    return regressions


def stage_slowdowns(records: List[RunRecord],
                    slowdown_factor: float = DEFAULT_SLOWDOWN_FACTOR,
                    min_seconds: float = DEFAULT_MIN_SECONDS
                    ) -> List[Regression]:
    """Per-stage wall-time slowdowns in the latest record vs the rest."""
    if len(records) < 2:
        return []
    latest, history = records[-1], records[:-1]
    regressions: List[Regression] = []
    for stage in sorted(latest.stages):
        current = latest.stages[stage]
        samples = [record.stages[stage] for record in history
                   if stage in record.stages]
        if not samples:
            continue
        median = statistics.median(samples)
        if (median > 0 and current - median >= min_seconds
                and current >= slowdown_factor * median):
            regressions.append(Regression(
                kind="stage_slowdown", subject=stage,
                latest=current, median=median, run_id=latest.run_id))
    return regressions


def detect_regressions(records: List[RunRecord],
                       spike_factor: float = DEFAULT_SPIKE_FACTOR,
                       min_delta: int = DEFAULT_MIN_DELTA,
                       slowdown_factor: float = DEFAULT_SLOWDOWN_FACTOR,
                       min_seconds: float = DEFAULT_MIN_SECONDS
                       ) -> List[Regression]:
    """Both detectors over the comparable trailing window."""
    window = comparable_window(records)
    return (finding_spikes(window, spike_factor, min_delta)
            + stage_slowdowns(window, slowdown_factor, min_seconds))


# ----------------------------------------------------------------------
# rendering


def _series(values: List[float], integral: bool) -> str:
    rendered = []
    for value in values:
        rendered.append(str(int(value)) if integral else f"{value:.3f}")
    return " ".join(rendered)


def render_trends(records: List[RunRecord],
                  regressions: List[Regression],
                  rule_limit: int = 12) -> str:
    """The console report: run table, per-rule and per-stage series,
    and the regression verdicts."""
    lines: List[str] = []
    header = (f"{'run':<13}{'timestamp':<21}{'units':>6}{'findings':>9}"
              f"{'degr':>5}{'seconds':>9}")
    lines.append(f"Run ledger trends — last {len(records)} run(s)")
    lines.append(header)
    lines.append("-" * max(48, len(header)))
    for record in records:
        lines.append(
            f"{record.run_id[:12]:<13}{record.timestamp[:20]:<21}"
            f"{record.corpus.get('units', 0):>6}"
            f"{record.total_findings:>9}{record.degradations:>5}"
            f"{record.total_seconds:>9.3f}")
    window = comparable_window(records)
    if len(window) < len(records):
        lines.append(f"(trend window: last {len(window)} run(s) share "
                     f"the latest configuration)")

    rules = sorted(
        {rule for record in window for rule in record.findings_by_rule},
        key=lambda rule: -window[-1].findings_by_rule.get(rule, 0))
    if rules:
        lines.append("")
        lines.append(f"Findings per rule (oldest -> newest, top "
                     f"{min(rule_limit, len(rules))} of {len(rules)})")
        for rule in rules[:rule_limit]:
            series = [record.findings_by_rule.get(rule, 0)
                      for record in window]
            lines.append(f"  {rule:<24} {_series(series, True)}")

    stages = sorted({stage for record in window for stage in record.stages})
    if stages:
        lines.append("")
        lines.append("Stage seconds (oldest -> newest)")
        for stage in stages:
            series = [record.stages.get(stage, 0.0) for record in window]
            lines.append(f"  {stage:<24} {_series(series, False)}")

    lines.append("")
    if regressions:
        for regression in regressions:
            lines.append(regression.describe())
    else:
        lines.append("No regressions detected.")
    return "\n".join(lines)


def trends_document(records: List[RunRecord],
                    regressions: List[Regression]) -> Dict:
    """The machine-readable report written by ``--json``.

    ``window`` lists the run ids the detectors actually compared;
    ``window_meta`` says *why* that window is what it is — how many
    records were read, how many matched the latest run's configuration,
    and the config/rules fingerprint pair defining the match — so a
    consumer can tell "quiet because stable" from "quiet because the
    fingerprint changed and history restarted".
    """
    window = comparable_window(records)
    latest = records[-1] if records else None
    return {
        "runs": [record.to_dict() for record in records],
        "window": [record.run_id for record in window],
        "window_meta": {
            "size": len(records),
            "matched": len(window),
            "config_fingerprint": (latest.config_fingerprint
                                   if latest else ""),
            "rules_fingerprint": (latest.rules_fingerprint
                                  if latest else ""),
        },
        "regressions": [regression.to_dict()
                        for regression in regressions],
        "regressed": bool(regressions),
    }


# ----------------------------------------------------------------------
# CLI


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trends",
        description="Trend and regression report over the repro-assess "
                    "run history; exits 1 when the latest run regressed.")
    parser.add_argument("--store", default=".repro", metavar="DIR",
                        help="the repro-assess --store directory to "
                             "read (default .repro); unmerged shard run "
                             "tables are unioned in by run id, so "
                             "trends cover the fleet's merged history")
    parser.add_argument("--last", type=int, default=DEFAULT_LAST,
                        metavar="N",
                        help=f"look-back window in runs "
                             f"(default {DEFAULT_LAST})")
    parser.add_argument("--spike-factor", type=float,
                        default=DEFAULT_SPIKE_FACTOR, metavar="F",
                        help="finding spike: latest must be at least F "
                             "times the rolling median "
                             f"(default {DEFAULT_SPIKE_FACTOR})")
    parser.add_argument("--min-delta", type=int,
                        default=DEFAULT_MIN_DELTA, metavar="N",
                        help="finding spike: latest must exceed the "
                             "median by at least N findings "
                             f"(default {DEFAULT_MIN_DELTA})")
    parser.add_argument("--slowdown-factor", type=float,
                        default=DEFAULT_SLOWDOWN_FACTOR, metavar="F",
                        help="stage slowdown: latest must be at least F "
                             "times the rolling median "
                             f"(default {DEFAULT_SLOWDOWN_FACTOR})")
    parser.add_argument("--min-seconds", type=float,
                        default=DEFAULT_MIN_SECONDS, metavar="S",
                        help="stage slowdown: latest must exceed the "
                             "median by at least S seconds "
                             f"(default {DEFAULT_MIN_SECONDS})")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the report (runs, window, "
                             "regressions) as JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.last < 1:
        print(f"--last must be a positive integer, got {args.last}",
              file=sys.stderr)
        return 2
    history = RunHistory(args.store)
    try:
        records = history.tail(args.last)
    except OSError as error:
        print(f"cannot read run ledger: {error}", file=sys.stderr)
        return 2
    if not records:
        print(f"run ledger {history.path} holds no readable records",
              file=sys.stderr)
        return 2
    regressions = detect_regressions(
        records, spike_factor=args.spike_factor,
        min_delta=args.min_delta,
        slowdown_factor=args.slowdown_factor,
        min_seconds=args.min_seconds)
    print(render_trends(records, regressions))
    if history.corrupt_lines:
        print(f"({history.corrupt_lines} corrupt ledger line(s) skipped)",
              file=sys.stderr)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(trends_document(records, regressions), handle,
                          indent=2)
        except OSError as error:
            print(f"cannot write trends JSON: {error}", file=sys.stderr)
            return 2
        print(f"\ntrends JSON written to {args.json}")
    return 1 if regressions else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
