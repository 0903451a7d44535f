"""Structured event log: schema, levels, grafting, pipeline wiring.

The log's contract mirrors the tracer's: zero-cost when disabled
(pinned by the byte-identical suites), JSONL with run/seq correlation
when enabled, and worker-side buffers grafted back by the parent
exactly like worker span forests.
"""

import io
import json

import pytest

from repro.core import AssessmentPipeline, PipelineConfig
from repro.core.cli import main
from repro.obs import LEVELS, NULL_LOG, BufferLog, EventLog, NullLog
from repro.testing import Fault, FaultPlan, FaultyChecker

#: The pooled run the fan-in tests use: two worker processes.
POOLED = pytest.mark.parametrize("jobs", [2], ids=["process"])


def read_events(stream: io.StringIO):
    return [json.loads(line) for line in
            stream.getvalue().splitlines() if line]


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        self.now += 0.5
        return self.now


class TestEventLog:
    def test_jsonl_schema_and_sequencing(self):
        stream = io.StringIO()
        log = EventLog(stream, level="info", run_id="abc123",
                       clock=FakeClock())
        log.info("run.start", files=3, jobs=2)
        log.error("checker.crash", checker="style")
        first, second = read_events(stream)
        assert first == {"ts": 100.5, "run": "abc123", "seq": 0,
                         "level": "info", "event": "run.start",
                         "files": 3, "jobs": 2}
        assert second["seq"] == 1
        assert second["level"] == "error"
        assert second["checker"] == "style"

    def test_level_filtering_drops_below_threshold(self):
        stream = io.StringIO()
        log = EventLog(stream, level="warning")
        log.debug("noise")
        log.info("noise")
        log.warning("kept.warning")
        log.error("kept.error")
        events = read_events(stream)
        assert [e["event"] for e in events] == ["kept.warning",
                                                "kept.error"]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            EventLog(io.StringIO(), level="verbose")
        log = EventLog(io.StringIO())
        with pytest.raises(ValueError):
            log.emit("loud", "boom")

    def test_levels_are_ordered(self):
        assert (LEVELS["debug"] < LEVELS["info"] < LEVELS["warning"]
                < LEVELS["error"])

    def test_graft_restamps_and_refilters(self):
        buffer = BufferLog(worker=3, clock=FakeClock(50.0))
        buffer.debug("worker.parse", files=7)
        buffer.error("checker.crash", checker="style")
        assert all(e["worker"] == 3 for e in buffer.events)

        stream = io.StringIO()
        parent = EventLog(stream, level="warning", run_id="parent-run")
        parent.warning("local.first")
        parent.graft(buffer.events)
        events = read_events(stream)
        # the debug worker event was filtered by the parent's level
        assert [e["event"] for e in events] == ["local.first",
                                                "checker.crash"]
        grafted = events[1]
        assert grafted["run"] == "parent-run"
        assert grafted["seq"] == 1
        assert grafted["worker"] == 3
        assert grafted["ts"] == 51.0  # worker-side timestamp kept

    def test_graft_tolerates_none_and_empty(self):
        stream = io.StringIO()
        log = EventLog(stream)
        log.graft(None)
        log.graft([])
        assert stream.getvalue() == ""

    def test_null_log_is_inert(self):
        assert NULL_LOG.enabled is False
        assert isinstance(NULL_LOG, NullLog)
        NULL_LOG.debug("x")
        NULL_LOG.info("x")
        NULL_LOG.warning("x")
        NULL_LOG.error("x")
        NULL_LOG.graft([{"level": "error", "event": "x"}])

    def test_buffer_log_is_picklable(self):
        import pickle
        buffer = BufferLog(worker=1)
        buffer.info("worker.check", units=4)
        events = pickle.loads(pickle.dumps(buffer.events))
        assert events == buffer.events


class TestPipelineEvents:
    def test_run_start_and_finish(self, small_corpus):
        stream = io.StringIO()
        result = AssessmentPipeline(PipelineConfig(
            log=EventLog(stream))).run(small_corpus.sources())
        events = read_events(stream)
        assert events[0]["event"] == "run.start"
        assert events[0]["files"] == len(small_corpus.sources())
        finish = events[-1]
        assert finish["event"] == "run.finish"
        assert finish["units"] == result.unit_count
        assert finish["degraded"] is False
        assert "run.degraded" not in {e["event"] for e in events}

    def test_parse_failure_event(self, monkeypatch):
        from repro.core import parallel as parallel_module
        from repro.errors import ParseError
        real = parallel_module.parse_translation_unit

        def flaky(source, path):
            if path.startswith("broken/"):
                raise ParseError("boom", path, 1, 1)
            return real(source, path)

        monkeypatch.setattr(parallel_module, "parse_translation_unit",
                            flaky)
        from repro.obs import Tracer
        stream = io.StringIO()
        tracer = Tracer()
        AssessmentPipeline(PipelineConfig(
            log=EventLog(stream), tracer=tracer)).run(
            {"a.cc": "int x;\n", "broken/poison.cc": "int y;\n"})
        events = read_events(stream)
        failures = [e for e in events if e["event"] == "parse.failure"]
        assert len(failures) == 1
        assert failures[0]["path"] == "broken/poison.cc"
        assert failures[0]["level"] == "warning"
        # the event's span id resolves to the traced parse span
        assert failures[0]["span"] == tracer.find("parse")[0].id

    def test_checker_crash_and_degraded_events(self, small_corpus):
        sources = small_corpus.sources()
        target = sorted(sources)[0]
        plan = FaultPlan([Fault(kind="raise", path=target)])
        stream = io.StringIO()
        result = AssessmentPipeline(PipelineConfig(
            log=EventLog(stream),
            extra_checkers=(FaultyChecker(plan),))).run(sources)
        assert result.degraded
        events = read_events(stream)
        crashes = [e for e in events if e["event"] == "checker.crash"]
        assert crashes and crashes[0]["checker"] == "fault_injector"
        assert crashes[0]["level"] == "error"
        assert any(e["event"] == "run.degraded" for e in events)
        assert read_events(stream)[-1]["degraded"] is True

    @POOLED
    def test_worker_events_grafted(self, small_corpus, jobs):
        sources = small_corpus.sources()
        stream = io.StringIO()
        AssessmentPipeline(PipelineConfig(
            log=EventLog(stream, level="debug", run_id="fan-out"),
            jobs=jobs)).run(sources)
        events = read_events(stream)
        parse_chunks = [e for e in events
                        if e["event"] == "worker.parse"]
        check_chunks = [e for e in events
                        if e["event"] == "worker.check"]
        assert {e["worker"] for e in parse_chunks} == {0, 1}
        assert {e["worker"] for e in check_chunks} == {0, 1}
        assert sum(e["files"] for e in parse_chunks) == len(sources)
        # grafted events carry the parent's run id and sequencing
        assert all(e["run"] == "fan-out" for e in events)
        assert [e["seq"] for e in events] == list(range(len(events)))

    @POOLED
    def test_worker_crash_event_grafted(self, small_corpus, jobs):
        sources = small_corpus.sources()
        target = sorted(sources)[0]
        plan = FaultPlan([Fault(kind="raise", path=target)])
        stream = io.StringIO()
        result = AssessmentPipeline(PipelineConfig(
            log=EventLog(stream), jobs=jobs,
            extra_checkers=(FaultyChecker(plan),))).run(sources)
        assert result.degraded
        crashes = [e for e in read_events(stream)
                   if e["event"] == "checker.crash"]
        assert len(crashes) == 1
        assert crashes[0]["path"] == target
        assert "worker" in crashes[0]  # buffered inside a worker chunk


class TestCliLogFlags:
    def test_log_json_written(self, tmp_path, capsys):
        log_file = tmp_path / "events.jsonl"
        assert main(["--corpus", "0.02",
                     "--log-json", str(log_file)]) == 0
        out = capsys.readouterr().out
        assert f"event log written to {log_file}" in out
        events = [json.loads(line) for line in
                  log_file.read_text().splitlines()]
        assert events[0]["event"] == "run.start"
        assert events[-1]["event"] == "run.finish"
        run_ids = {e["run"] for e in events}
        assert len(run_ids) == 1 and len(run_ids.pop()) == 12

    def test_log_level_filters_cli_events(self, tmp_path):
        log_file = tmp_path / "events.jsonl"
        assert main(["--corpus", "0.02", "--log-json", str(log_file),
                     "--log-level", "error"]) == 0
        assert log_file.read_text() == ""  # clean run: nothing at error

    def test_log_level_requires_log_json(self, capsys):
        assert main(["--corpus", "0.02", "--log-level", "debug"]) == 2
        assert "--log-json" in capsys.readouterr().err

    def test_unwritable_log_json_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory")
        assert main(["--corpus", "0.02",
                     "--log-json", str(blocker / "events.jsonl")]) == 2
        assert "cannot open event log" in capsys.readouterr().err
