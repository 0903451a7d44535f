"""Trend reporting and regression gating: ``repro-trends``.

Detector unit tests run over hand-built records; the end-to-end test
builds a real run history from pipeline runs and injects a finding spike
with the fault harness, asserting the CI-gating non-zero exit.
"""

import json

import pytest

from repro.core import AssessmentPipeline, PipelineConfig
from repro.obs.trends import (
    comparable_window,
    detect_regressions,
    finding_spikes,
    main,
    render_trends,
    stage_slowdowns,
    trends_document,
)
from repro.store import ObjectStore, RunHistory, build_run_record
from repro.testing import Fault, FaultPlan, FaultyChecker

from .test_runlog import make_record


class TestDetectors:
    def test_finding_spike_fires(self):
        records = [make_record(run_id=f"r{i}",
                               findings={"MC.goto": 1})
                   for i in range(4)]
        records.append(make_record(run_id="spiked",
                                   findings={"MC.goto": 8}))
        spikes = finding_spikes(records)
        assert [s.subject for s in spikes] == ["MC.goto"]
        assert spikes[0].latest == 8 and spikes[0].median == 1
        assert spikes[0].run_id == "spiked"
        assert "REGRESSION [rule MC.goto]" in spikes[0].describe()

    def test_spike_needs_both_delta_and_factor(self):
        # +2 over a median of 20 is a big delta=no, factor=no case;
        # 20 -> 25 passes the delta but not the 2x factor
        history = [make_record(run_id=f"r{i}",
                               findings={"SG.x": 20}) for i in range(3)]
        assert finding_spikes(
            history + [make_record(run_id="l", findings={"SG.x": 25})]
        ) == []
        # a brand-new rule spiking from nothing fires
        assert finding_spikes(
            history + [make_record(run_id="l",
                                   findings={"SG.x": 20, "NEW.r": 5})])

    def test_single_record_no_regressions(self):
        assert detect_regressions([make_record()]) == []

    def test_stage_slowdown_fires(self):
        records = [make_record(run_id=f"r{i}",
                               stages={"parse": 0.1, "checkers": 0.2})
                   for i in range(3)]
        records.append(make_record(
            run_id="slow", stages={"parse": 0.4, "checkers": 0.2}))
        slow = stage_slowdowns(records)
        assert [s.subject for s in slow] == ["parse"]
        assert "stage parse" in slow[0].describe()

    def test_slowdown_absolute_floor_absorbs_noise(self):
        # 2x on a sub-millisecond stage is noise, not a regression
        records = [make_record(run_id=f"r{i}", stages={"parse": 0.001})
                   for i in range(3)]
        records.append(make_record(run_id="l", stages={"parse": 0.004}))
        assert stage_slowdowns(records) == []

    def test_comparable_window_resets_on_config_change(self):
        records = ([make_record(run_id=f"old{i}", config_fp="cfgA",
                                findings={"SG.x": 50})
                    for i in range(3)]
                   + [make_record(run_id=f"new{i}", config_fp="cfgB")
                      for i in range(2)])
        window = comparable_window(records)
        assert [r.run_id for r in window] == ["new0", "new1"]
        # the cfgA history cannot flag a spike against cfgB runs
        assert detect_regressions(records) == []


class TestRendering:
    def test_table_and_series(self):
        records = [make_record(run_id=f"run-{i}",
                               findings={"SG.x": i + 1})
                   for i in range(3)]
        text = render_trends(records, detect_regressions(records))
        assert "last 3 run(s)" in text
        assert "SG.x" in text and "1 2 3" in text
        assert "Stage seconds" in text
        assert "No regressions detected." in text

    def test_document_shape(self):
        records = [make_record(run_id=f"r{i}") for i in range(2)]
        document = trends_document(records, [])
        assert len(document["runs"]) == 2
        assert document["window"] == ["r0", "r1"]
        assert document["regressed"] is False

    def test_document_window_meta(self):
        records = ([make_record(run_id=f"old{i}", config_fp="cfgA")
                    for i in range(3)]
                   + [make_record(run_id=f"new{i}", config_fp="cfgB",
                                  rules_fp="prof1")
                      for i in range(2)])
        meta = trends_document(records, [])["window_meta"]
        assert meta["size"] == 5
        assert meta["matched"] == 2
        assert meta["config_fingerprint"] == "cfgB"
        assert meta["rules_fingerprint"] == "prof1"

    def test_console_output_has_no_meta(self, capsys):
        # the metadata is a --json addition; the table is unchanged
        records = [make_record(run_id=f"r{i}") for i in range(2)]
        text = render_trends(records, [])
        assert "window_meta" not in text
        assert "fingerprint" not in text


class TestMain:
    def _seed_ledger(self, directory, spiked=False):
        ledger = RunHistory(str(directory))
        for index in range(3):
            ledger.append(make_record(run_id=f"base-{index}",
                                      findings={"SG.x": 2}))
        if spiked:
            ledger.append(make_record(run_id="spike-run",
                                      findings={"SG.x": 9}))
        return ledger

    def test_clean_ledger_exits_0(self, tmp_path, capsys):
        self._seed_ledger(tmp_path)
        assert main(["--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "base-0" in out and "No regressions detected." in out

    def test_regression_exits_1(self, tmp_path, capsys):
        self._seed_ledger(tmp_path, spiked=True)
        assert main(["--store", str(tmp_path)]) == 1
        assert "REGRESSION [rule SG.x]" in capsys.readouterr().out

    def test_thresholds_are_flaggable(self, tmp_path):
        self._seed_ledger(tmp_path, spiked=True)
        assert main(["--store", str(tmp_path),
                     "--min-delta", "10"]) == 0

    def test_default_store_is_dot_repro(self, tmp_path, monkeypatch,
                                        capsys):
        self._seed_ledger(tmp_path / ".repro")
        monkeypatch.chdir(tmp_path)
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "base-0" in out and "last 3 run(s)" in out

    def test_missing_ledger_exits_2(self, tmp_path, capsys):
        assert main(["--store", str(tmp_path / "absent")]) == 2
        assert "cannot read run ledger" in capsys.readouterr().err

    def test_bad_last_exits_2(self, tmp_path, capsys):
        assert main(["--store", str(tmp_path), "--last", "0"]) == 2
        assert "--last" in capsys.readouterr().err

    def test_json_report_written(self, tmp_path, capsys):
        self._seed_ledger(tmp_path, spiked=True)
        report = tmp_path / "trends.json"
        assert main(["--store", str(tmp_path),
                     "--json", str(report)]) == 1
        document = json.loads(report.read_text())
        assert document["regressed"] is True
        assert document["regressions"][0]["subject"] == "SG.x"
        assert "trends JSON written" in capsys.readouterr().out

    def test_unwritable_json_exits_2(self, tmp_path, capsys):
        self._seed_ledger(tmp_path)
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        assert main(["--store", str(tmp_path),
                     "--json", str(blocker / "t.json")]) == 2
        assert "cannot write trends JSON" in capsys.readouterr().err


class TestEndToEndSpike:
    def test_injected_crashes_spike_the_trend(self, tmp_path,
                                              small_corpus, capsys):
        """Two benign runs, then one with three injected checker
        crashes: ``internal.checker_crash`` spikes and gates CI."""
        sources = small_corpus.sources()
        targets = sorted(sources)[:3]
        ledger = RunHistory(str(tmp_path / "ledger"))

        def record_run(plan, run_id):
            # cache-less engine path (cache dir per run) so containment
            # is per unit: each fault becomes one crash finding
            cache = ObjectStore(str(tmp_path / f"cache-{run_id}"))
            config = PipelineConfig(
                cache=cache, extra_checkers=(FaultyChecker(plan),))
            result = AssessmentPipeline(config).run(sources)
            exit_code = 3 if result.degraded else 0
            ledger.append(build_run_record(
                result, run_id=run_id, duration=0.5,
                exit_code=exit_code, config=config, cache=cache))
            return result

        for index in range(2):
            benign = record_run(FaultPlan(), f"benign-{index}")
            assert not benign.degraded
        faulted = record_run(
            FaultPlan([Fault(kind="raise", path=path)
                       for path in targets]), "faulted")
        assert faulted.degraded
        assert len(faulted.crashes) == 3

        assert main(["--store", str(tmp_path / "ledger")]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION [rule internal.checker_crash]" in out
        assert "3 finding(s) in run faulted" in out
