"""Run history: record schema stability, append/read round-trips, the
record builder, and the CLI ``--store`` run-recording integration."""

import json

import pytest

from repro.core import AssessmentPipeline, PipelineConfig
from repro.core.cli import main
from repro.obs import Tracer
from repro.store import (
    FAULT_COUNTERS,
    LEDGER_SCHEMA,
    STAGE_NAMES,
    ObjectStore,
    RunHistory,
    RunRecord,
    build_run_record,
    new_run_id,
)


def make_record(run_id="run-000000000", findings=None, stages=None,
                config_fp="cfg0", rules_fp=""):
    return RunRecord(
        run_id=run_id,
        timestamp="2026-08-08T12:00:00+00:00",
        config_fingerprint=config_fp,
        rules_fingerprint=rules_fp,
        corpus={"files": 4, "units": 4, "unparseable": 0,
                "loc": 200, "functions": 12},
        stages=stages or {"parse": 0.1, "checkers": 0.2},
        total_seconds=0.5,
        findings_by_rule=findings or {"SG.line_length": 3},
        total_findings=sum((findings or {"SG.line_length": 3}).values()),
    )


class TestRunRecord:
    def test_round_trip(self):
        record = make_record()
        rebuilt = RunRecord.from_dict(
            json.loads(json.dumps(record.to_dict())))
        assert rebuilt == record
        assert rebuilt.schema == LEDGER_SCHEMA

    def test_unknown_keys_dropped_missing_defaulted(self):
        # forward/backward schema stability: a newer writer's extra
        # field is ignored, an older writer's missing field defaults
        document = {"run_id": "abc", "timestamp": "t",
                    "future_field": {"x": 1}}
        record = RunRecord.from_dict(document)
        assert record.run_id == "abc"
        assert record.findings_by_rule == {}
        assert record.exit_code == 0
        assert not hasattr(record, "future_field")

    def test_new_run_id_shape(self):
        first, second = new_run_id(), new_run_id()
        assert len(first) == 12 and first != second
        int(first, 16)  # hex


class TestRunHistory:
    def test_append_and_read_back(self, tmp_path):
        ledger = RunHistory(str(tmp_path / "ledger"))
        for index in range(3):
            ledger.append(make_record(run_id=f"run-{index}"))
        records = ledger.records()
        assert [r.run_id for r in records] == ["run-0", "run-1", "run-2"]
        assert ledger.tail(2)[0].run_id == "run-1"

    def test_corrupt_line_skipped_and_counted(self, tmp_path):
        ledger = RunHistory(str(tmp_path))
        ledger.append(make_record(run_id="keep-1"))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write("{torn json\n")
            handle.write("[1, 2]\n")  # parseable but not an object
        ledger.append(make_record(run_id="keep-2"))
        records = ledger.records()
        assert [r.run_id for r in records] == ["keep-1", "keep-2"]
        assert ledger.corrupt_lines == 2

    def test_missing_ledger_raises(self, tmp_path):
        with pytest.raises(OSError):
            RunHistory(str(tmp_path / "absent")).records()


class TestBuildRunRecord:
    def test_full_record_from_traced_cached_run(self, tmp_path,
                                                small_corpus):
        sources = small_corpus.sources()
        tracer = Tracer()
        cache = ObjectStore(str(tmp_path))
        config = PipelineConfig(tracer=tracer, cache=cache, jobs=2)
        result = AssessmentPipeline(config).run(sources)
        record = build_run_record(
            result, run_id="abcdef012345", duration=1.25, exit_code=0,
            config=config, tracer=tracer, cache=cache,
            files=len(sources), timestamp="2026-08-08T00:00:00+00:00")
        assert record.corpus["files"] == len(sources)
        assert record.corpus["units"] == result.unit_count
        assert record.corpus["loc"] == result.total_loc
        assert set(record.stages) <= set(STAGE_NAMES)
        assert record.stages["parse"] > 0
        assert set(record.faults) == set(FAULT_COUNTERS)
        assert record.cache == {"hits": 0,
                                "misses": 2 * len(sources),
                                "puts": 2 * len(sources),
                                "corrupt_entries": 0}
        assert record.total_findings == sum(
            report.finding_count for report in result.reports.values())
        assert sum(record.findings_by_rule.values()) == \
            record.total_findings
        assert sum(record.findings_by_severity.values()) == \
            record.total_findings
        assert record.config_fingerprint and record.rules_fingerprint == ""
        assert record.jobs == 2 and record.executor == "thread"
        assert record.hotspots["files"] and record.hotspots["checkers"]
        assert len(record.hotspots["files"]) <= 5

    def test_untraced_record_is_still_valid(self, small_corpus):
        sources = small_corpus.sources()
        result = AssessmentPipeline(PipelineConfig()).run(sources)
        record = build_run_record(result, run_id="x", duration=0.1,
                                  exit_code=0)
        assert record.stages == {} and record.cache == {}
        assert record.total_findings > 0
        assert record.timestamp  # stamped from the wall clock


class TestCliLedger:
    def test_two_runs_append_two_records(self, tmp_path, capsys):
        store_dir = tmp_path / "ledger"
        for _ in range(2):
            assert main(["--corpus", "0.02",
                         "--store", str(store_dir)]) == 0
            out = capsys.readouterr().out
            assert "recorded to" in out
        records = RunHistory(str(store_dir)).records()
        assert len(records) == 2
        assert records[0].run_id != records[1].run_id
        # identical invocations share fingerprints (the trend window)
        assert records[0].config_fingerprint == \
            records[1].config_fingerprint
        assert records[0].stages and records[0].total_seconds > 0

    def test_default_output_unchanged_without_ledger(self, capsys):
        # the summary body must not grow a trailer when disabled
        assert main(["--corpus", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "recorded to" not in out
        assert "event log" not in out

    def test_unwritable_ledger_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory")
        assert main(["--corpus", "0.02",
                     "--store", str(blocker / "sub")]) == 2
        assert "cannot record run to store" in capsys.readouterr().err
