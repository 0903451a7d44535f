"""The run-history table: one JSON manifest per assessment run.

A history is one ``runs.jsonl`` of :class:`RunRecord` objects, one
``os.O_APPEND`` JSON line per run.  The format is the one the run
ledger always wrote, so an old ledger directory *is* a valid run
history.  On top of the flat table this module provides:

* **Shard union.**  A history living at a store root also reads the
  run tables of the store's ``shard-*/`` directories, deduplicated by
  run id, so ``repro-trends`` and the report bridge see a live view of
  a fleet's runs even before a merge folds the shards in.
* **Canonical rewrite.**  :meth:`RunHistory.rewrite` serializes a set
  of raw manifests deterministically (sorted by timestamp + run id,
  canonical JSON) — the primitive :func:`~repro.store.merge.merge_into`
  uses to make merged masters byte-identical regardless of merge
  order.
* **Raw access.**  :meth:`RunHistory.raw_records` returns the parsed
  JSON objects unfiltered, so merging preserves fields this version of
  the reader does not know about.
* **Record assembly.**  :func:`build_run_record` knows the pipeline,
  tracer, and cache shapes well enough to distill one finished
  assessment into a schema-stable manifest.

Design points:

* **Append-only JSONL.**  One ``os.O_APPEND`` write per run keeps
  concurrent assessments from torn interleaving on POSIX, and a
  corrupt line (a crashed writer, a merge artifact) costs exactly that
  line: :meth:`RunHistory.records` skips it and counts it.
* **Schema-versioned.**  Every record carries ``schema``
  (:data:`LEDGER_SCHEMA`); readers default missing fields so old
  tables survive new readers and vice versa.
* **Fingerprinted.**  ``config_fingerprint`` and ``rules_fingerprint``
  let the trend layer refuse to compare apples to oranges — a finding
  spike means nothing across a rule-profile change, and a shard run
  (a slice of the corpus) is never compared against a full run.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

from .layout import list_shards

__all__ = [
    "FAULT_COUNTERS",
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA",
    "PART_COUNTERS",
    "RunHistory",
    "RunRecord",
    "STAGE_NAMES",
    "build_run_record",
    "new_run_id",
]

#: Bump when a :class:`RunRecord` field changes meaning (readers
#: tolerate added/removed fields without a bump).
LEDGER_SCHEMA = 1

#: Run-table file name inside a history (store or shard) directory.
LEDGER_FILENAME = "runs.jsonl"

#: The pipeline stages whose wall times a record carries, in order.
STAGE_NAMES = ("parse", "metrics", "checkers", "evidence", "compliance",
               "observations")

#: Parallel-engine fault counters folded into every record.
FAULT_COUNTERS = ("task_timeouts", "worker_deaths", "task_errors",
                  "task_retries", "serial_fallbacks")

#: Project-part counters folded into every traced record: which parts
#: of stages 2–6 a run folded from its previous result and which it
#: recomputed (see :meth:`~repro.core.pipeline.AssessmentPipeline.run`).
PART_COUNTERS = ("files_refolded", "modules_remeasured", "parts_reused",
                 "parts_recomputed")


def new_run_id() -> str:
    """A fresh 12-hex-digit run id."""
    return uuid.uuid4().hex[:12]


@dataclass
class RunRecord:
    """One assessment run's manifest — everything the trend layer needs.

    Attributes:
        run_id: the run's correlation id (also stamped into the event
            log and printed by the CLI).
        timestamp: ISO-8601 UTC wall time the record was built.
        schema: :data:`LEDGER_SCHEMA` at write time.
        config_fingerprint: digest over the assessment-relevant pipeline
            configuration (ASIL target, thresholds, style and
            architecture limits, strictness, shard slice).
        rules_fingerprint: how the active rule profile deviates from
            registry defaults (``""`` when no profile or no deviation).
        corpus: input statistics — ``files``, ``units``,
            ``unparseable``, ``loc``, ``functions``.
        jobs / executor: the fan-out configuration the run used.
        shard: the corpus slice this run assessed (``"K/N"``; ``""``
            for a full run).
        stages: per-stage wall seconds (``STAGE_NAMES`` keys; empty
            when the run was not traced).
        total_seconds: end-to-end assessment wall time.
        faults: parallel fault counters (``FAULT_COUNTERS``).
        parts: project-part counters (``PART_COUNTERS``; empty when the
            run was not traced).
        cache: result-store accounting — ``hits``, ``misses``,
            ``puts``, ``corrupt_entries`` (empty when no cache).
        findings_by_rule: finding count per rule id.
        findings_by_severity: finding count per severity name.
        total_findings: sum over all checkers.
        degradations: contained faults (checker crashes, parser bugs).
        hotspots: top-K slowest files and checkers
            (see :func:`repro.obs.profile.hotspots`).
        exit_code: the CLI exit code the run reported (0 clean,
            3 degraded).
        objects: object keys this run read or wrote in its store —
            the GC retention set (empty for non-store-backed runs).
    """

    run_id: str
    timestamp: str
    schema: int = LEDGER_SCHEMA
    config_fingerprint: str = ""
    rules_fingerprint: str = ""
    corpus: Dict[str, int] = field(default_factory=dict)
    jobs: int = 1
    executor: str = "thread"
    shard: str = ""
    stages: Dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    faults: Dict[str, int] = field(default_factory=dict)
    parts: Dict[str, int] = field(default_factory=dict)
    cache: Dict[str, int] = field(default_factory=dict)
    findings_by_rule: Dict[str, int] = field(default_factory=dict)
    findings_by_severity: Dict[str, int] = field(default_factory=dict)
    total_findings: int = 0
    degradations: int = 0
    hotspots: Dict[str, List] = field(default_factory=dict)
    exit_code: int = 0
    objects: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """The JSON object written to the table (field order stable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, document: Dict) -> "RunRecord":
        """Rebuild a record, defaulting fields the document lacks.

        Unknown keys are dropped, so newer writers do not break older
        readers (and vice versa) — the schema-stability contract the
        trend layer depends on.
        """
        known = {f.name for f in fields(cls)}
        kept = {key: value for key, value in document.items()
                if key in known}
        kept.setdefault("run_id", "")
        kept.setdefault("timestamp", "")
        return cls(**kept)


def canonical_line(document: Dict) -> str:
    """One manifest serialized deterministically (sorted keys).

    Two histories holding the same set of manifests rewrite to the
    same bytes through this — the foundation of order-independent
    merges.
    """
    return json.dumps(document, sort_keys=True, separators=(", ", ": "))


def _sort_key(document: Dict) -> Tuple[str, str, str]:
    return (str(document.get("timestamp", "")),
            str(document.get("run_id", "")),
            canonical_line(document))


class RunHistory:
    """The run table of one store, shard, or legacy ledger directory.

    Attributes:
        directory: the history directory (created on first append).
        path: the ``runs.jsonl`` file inside it.
        corrupt_lines: unparseable lines skipped by the last
            :meth:`records` call.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.path = os.path.join(directory, LEDGER_FILENAME)
        self.corrupt_lines = 0

    # ------------------------------------------------------------------

    def append(self, record: RunRecord) -> str:
        """Write one record as a JSON line; returns the table path.

        Raises :class:`OSError` when the directory or file cannot be
        written — the CLI surfaces that as a clean exit 2, like any
        other unwritable output path.
        """
        os.makedirs(self.directory, exist_ok=True)
        line = json.dumps(record.to_dict()) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
        return self.path

    def _parse_file(self, path: str) -> List[Dict]:
        documents: List[Dict] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    document = json.loads(line)
                    if not isinstance(document, dict):
                        raise ValueError("record is not an object")
                    documents.append(document)
                except (ValueError, TypeError):
                    self.corrupt_lines += 1
        return documents

    def raw_records(self, shards: bool = True) -> List[Dict]:
        """Every parseable manifest as a raw JSON object, oldest first.

        The master table is read in file order, then each shard table
        (sorted by shard name), deduplicated by non-empty run id —
        first occurrence wins.  Corrupt lines are skipped and counted
        in :attr:`corrupt_lines`; a history with neither a table nor
        any shard raises :class:`OSError`.
        """
        self.corrupt_lines = 0
        shard_paths = ([os.path.join(shard, LEDGER_FILENAME)
                        for shard in list_shards(self.directory)]
                       if shards else [])
        try:
            documents = self._parse_file(self.path)
        except OSError:
            if not any(os.path.exists(path) for path in shard_paths):
                raise
            documents = []
        seen = {str(document.get("run_id", ""))
                for document in documents if document.get("run_id")}
        for path in shard_paths:
            try:
                shard_documents = self._parse_file(path)
            except OSError:
                continue
            for document in shard_documents:
                run_id = str(document.get("run_id", ""))
                if run_id and run_id in seen:
                    continue
                if run_id:
                    seen.add(run_id)
                documents.append(document)
        return documents

    def records(self) -> List[RunRecord]:
        """Every parseable record, oldest first (shard tables included).

        Corrupt lines are skipped and counted in :attr:`corrupt_lines`;
        a missing or unreadable history raises :class:`OSError`.
        """
        return [RunRecord.from_dict(document)
                for document in self.raw_records()]

    def tail(self, count: int) -> List[RunRecord]:
        """The last ``count`` records, oldest first."""
        records = self.records()
        return records[-max(0, count):] if count else []

    # ------------------------------------------------------------------

    def rewrite(self, documents: List[Dict]) -> str:
        """Atomically replace the table with a canonical serialization.

        Manifests are sorted by ``(timestamp, run_id)`` and written
        with sorted keys, so any two histories holding the same
        manifest set produce byte-identical tables — what makes
        merging commutative.  Returns the table path.
        """
        os.makedirs(self.directory, exist_ok=True)
        lines = [canonical_line(document) + "\n"
                 for document in sorted(documents, key=_sort_key)]
        temporary = f"{self.path}.tmp.{os.getpid()}"
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        os.replace(temporary, self.path)
        return self.path


# ----------------------------------------------------------------------
# record assembly


def _counter_total(metrics, name: str) -> int:
    """A counter's value summed over every label set."""
    return int(sum(counter.value for counter in metrics.counters
                   if counter.name == name))


def _config_fingerprint(config) -> str:
    """Digest of the assessment-relevant configuration.

    Covers what changes *verdicts or findings* for the same sources —
    ASIL target, thresholds, style/architecture limits, strictness,
    and the shard slice (a shard run assesses a different corpus, so
    its trends must never be compared against a full run's) — not what
    changes only the execution shape (jobs, executor, cache), which
    the record carries as plain fields instead.
    """
    material = repr((config.target_asil, config.thresholds, config.style,
                     config.architecture, config.strict,
                     config.skip_unparseable))
    shard = getattr(config, "shard", None)
    if shard:
        # Appended (rather than folded into the tuple) so full-run
        # fingerprints are byte-identical to pre-store releases and
        # existing trend windows survive the upgrade.
        material += f"|shard:{shard}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]


def _rules_fingerprint(config) -> str:
    if config.rules is None:
        return ""
    from ..rules import REGISTRY
    return config.rules.fingerprint_for(list(REGISTRY))


def build_run_record(result, *, run_id: str, duration: float,
                     exit_code: int, config=None, tracer=None,
                     cache=None, files: Optional[int] = None,
                     timestamp: Optional[str] = None,
                     hotspot_limit: int = 5) -> RunRecord:
    """Assemble a :class:`RunRecord` from one finished assessment.

    Args:
        result: the :class:`~repro.core.assessment.AssessmentResult`.
        run_id: the run's correlation id.
        duration: end-to-end wall seconds.
        exit_code: what the CLI is about to return.
        config: the :class:`~repro.core.config.PipelineConfig` used
            (``None`` skips the fingerprints and fan-out fields).
        tracer: the run's :class:`~repro.obs.Tracer`; supplies stage
            times, fault counters, and hotspots when present.
        cache: the run's :class:`~repro.store.objects.ObjectStore`,
            for its hit/miss/put/corruption accounting; a store-backed
            cache (``record_references`` set) additionally pins the
            object keys it touched into the manifest, for GC retention.
        files: input file count (defaults to units + unparseable).
        timestamp: ISO timestamp override for deterministic tests.
    """
    findings_by_rule: Dict[str, int] = {}
    findings_by_severity: Dict[str, int] = {}
    total_findings = 0
    for report in result.reports.values():
        for rule, count in report.count_by_rule().items():
            findings_by_rule[rule] = findings_by_rule.get(rule, 0) + count
        for finding in report.findings:
            name = finding.severity.name
            findings_by_severity[name] = \
                findings_by_severity.get(name, 0) + 1
        total_findings += report.finding_count

    stages: Dict[str, float] = {}
    faults: Dict[str, int] = {}
    parts: Dict[str, int] = {}
    hotspot_table: Dict[str, List] = {}
    if tracer is not None and tracer.enabled:
        for name in STAGE_NAMES:
            spans = tracer.find(name)
            if spans:
                stages[name] = round(
                    sum(span.duration for span in spans), 6)
        for name in FAULT_COUNTERS:
            faults[name] = _counter_total(tracer.metrics,
                                          f"parallel.{name}")
        for name in PART_COUNTERS:
            parts[name] = _counter_total(tracer.metrics,
                                         f"pipeline.{name}")
        from ..obs.profile import hotspots
        hotspot_table = hotspots(tracer, limit=hotspot_limit)

    cache_stats: Dict[str, int] = {}
    object_keys: List[str] = []
    if cache is not None:
        cache_stats = {
            "hits": cache.hits,
            "misses": cache.misses,
            "puts": getattr(cache, "puts", 0),
            "corrupt_entries": getattr(cache, "corrupt_entries", 0),
        }
        if getattr(cache, "record_references", False):
            object_keys = sorted(getattr(cache, "referenced", ()))

    units = result.unit_count
    unparseable = len(result.unparseable)
    record = RunRecord(
        run_id=run_id,
        timestamp=timestamp if timestamp is not None else
        datetime.now(timezone.utc).isoformat(timespec="seconds"),
        corpus={
            "files": files if files is not None else units + unparseable,
            "units": units,
            "unparseable": unparseable,
            "loc": result.total_loc,
            "functions": result.total_functions,
        },
        stages=stages,
        total_seconds=round(duration, 6),
        faults=faults,
        parts=parts,
        cache=cache_stats,
        findings_by_rule=dict(sorted(findings_by_rule.items())),
        findings_by_severity=dict(sorted(findings_by_severity.items())),
        total_findings=total_findings,
        degradations=len(result.crashes),
        hotspots=hotspot_table,
        exit_code=exit_code,
        objects=object_keys,
    )
    if config is not None:
        record.config_fingerprint = _config_fingerprint(config)
        record.rules_fingerprint = _rules_fingerprint(config)
        record.jobs = config.jobs
        record.executor = config.executor
        record.shard = getattr(config, "shard", None) or ""
    return record
