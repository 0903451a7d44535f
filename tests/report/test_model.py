"""The shared report model: aggregation agrees with the result."""

from repro.report import build_report_model
from repro.rules import REGISTRY
from repro.store import RunHistory

from ..obs.test_runlog import make_record


class TestRuleAndTopicActivity:
    def test_rule_findings_sum_to_total(self, report_model):
        assert sum(activity.findings
                   for activity in report_model.rules) \
            == report_model.total_findings

    def test_every_registered_rule_present(self, report_model):
        assert [activity.rule.id for activity in report_model.rules] \
            == [rule.id for rule in REGISTRY]

    def test_topics_cover_all_findings(self, report_model):
        assert sum(topic.findings for topic in report_model.topics) \
            == report_model.total_findings

    def test_topics_busiest_first_and_non_empty(self, report_model):
        counts = [topic.findings for topic in report_model.topics]
        assert counts == sorted(counts, reverse=True)
        assert all(topic.findings or topic.suppressed
                   for topic in report_model.topics)

    def test_suppressed_rolled_up(self, deviation_model):
        activity = {a.rule.id: a for a in deviation_model.rules}
        assert activity["GV.mutable_global"].suppressed == 1


class TestSeverityAndModules:
    def test_severity_mix_sums_to_total(self, report_model):
        assert sum(report_model.severity_mix.values()) \
            == report_model.total_findings

    def test_module_rollups_join_metrics(self, report_model):
        by_name = {m.name: m for m in report_model.result.modules}
        for rollup in report_model.modules:
            assert rollup.loc == by_name[rollup.name].loc
            assert rollup.functions \
                == by_name[rollup.name].function_count
        assert sum(rollup.findings for rollup in report_model.modules) \
            == report_model.total_findings

    def test_density_is_findings_per_kloc(self, report_model):
        rollup = max(report_model.modules, key=lambda m: m.findings)
        assert rollup.density \
            == 1000.0 * rollup.findings / rollup.loc

    def test_module_files_partition_sources(self, report_model):
        gathered = [path for rollup in report_model.modules
                    for path in rollup.files]
        assert sorted(gathered) == sorted(report_model.sources)


class TestFindingLookup:
    def test_findings_for_line_ordered(self, report_model):
        path = next(iter(sorted(report_model.sources)))
        located = report_model.findings_for(path)
        assert all(finding.filename == path for finding in located)
        lines = [finding.line for finding in located]
        assert lines == sorted(lines)

    def test_suppressed_for(self, deviation_model):
        suppressed = deviation_model.suppressed_for("perception/dev.cc")
        assert [finding.rule for finding in suppressed] \
            == ["GV.mutable_global"]


class TestTrends:
    def test_no_ledger_means_no_trends(self, report_model):
        assert report_model.trends is None

    def test_window_and_series(self, tmp_path, deviation_model):
        history = RunHistory(str(tmp_path))
        for index in range(2):
            history.append(make_record(run_id=f"old-{index}",
                                      config_fp="cfgA",
                                      findings={"GV.mutable_global": 4}))
        for index in range(3):
            history.append(make_record(run_id=f"new-{index}",
                                      config_fp="cfgB",
                                      findings={"GV.mutable_global":
                                                index + 1}))
        model = build_report_model(
            deviation_model.result, deviation_model.sources,
            history=history)
        trends = model.trends
        assert trends.window_size == 5
        assert trends.matched_runs == 3
        assert trends.run_ids == ("new-0", "new-1", "new-2")
        assert trends.series["GV.mutable_global"] == [1, 2, 3]
        assert trends.config_fingerprint == "cfgB"

    def test_unreadable_ledger_yields_none(self, tmp_path,
                                           deviation_model):
        model = build_report_model(
            deviation_model.result, deviation_model.sources,
            history=RunHistory(str(tmp_path / "absent")))
        assert model.trends is None


class TestCoverage:
    def test_collectors_and_sources_align(self, yolo_coverage):
        filenames = [record.filename for record in yolo_coverage.files]
        assert sorted(yolo_coverage.collectors) == sorted(filenames)
        assert sorted(yolo_coverage.sources) == sorted(filenames)
