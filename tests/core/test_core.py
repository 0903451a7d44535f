"""Tests for the assessment pipeline and CLI."""

import json

import pytest

from repro.core import AssessmentPipeline, PipelineConfig, assess_sources
from repro.core.cli import main
from repro.iso26262 import Verdict

APOLLO_LIKE = {
    "perception/detector.cc": """
#include <cstdio>
#include "perception/types.h"
int g_frames = 0;
float Detect(float* data, int n) {
  float total = 0.0f;
  int raw;
  for (int i = 0; i < n; i++) {
    if (data[i] > 0.5f && i % 2 == 0) {
      total += data[i];
    }
  }
  if (total > 100.0f) {
    return 100.0f;
  }
  return total;
}
""",
    "perception/kernel.cu": """
__global__ void scale(float *out, float *in, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    out[i] = in[i] * 2.0f;
  }
}
void launch(float *out, float *in, int n) {
  float *d_out;
  cudaMalloc((void**)&d_out, n * 4);
  scale<<<1, 32>>>(d_out, in, n);
  cudaFree(d_out);
}
""",
    "control/controller.cc": """
int Actuate(int command) {
  int applied = (int)(command * 1.5f);
  return applied;
}
""",
}


class TestPipeline:
    @pytest.fixture(scope="class")
    def result(self):
        return assess_sources(APOLLO_LIKE)

    def test_unit_count(self, result):
        assert result.unit_count == 3

    def test_modules_discovered(self, result):
        assert {module.name for module in result.modules} == \
            {"perception", "control"}

    def test_all_tables_assessed(self, result):
        assert set(result.tables) == {"modeling_coding",
                                      "architectural_design",
                                      "unit_design"}

    def test_all_checkers_ran(self, result):
        assert set(result.reports) == {
            "language_subset", "casts", "defensive", "globals", "naming",
            "style", "unit_design", "architecture", "gpu_subset"}

    def test_gpu_detected(self, result):
        item = result.evidence.get("language_subset")
        assert item.stat("gpu_functions") == 1

    def test_verdict_for_language_subset(self, result):
        table = result.tables["modeling_coding"]
        assert table.assessment("language_subsets").verdict \
            is Verdict.NON_COMPLIANT

    def test_observations_generated(self, result):
        numbers = {observation.number
                   for observation in result.observations}
        assert 3 in numbers  # GPU code exists -> Observation 3

    def test_summary_renders(self, result):
        summary = result.render_summary()
        assert "perception" in summary
        assert "Table 1" in summary
        assert "Observation" in summary

    def test_to_dict_is_json_serializable(self, result):
        payload = json.dumps(result.to_dict())
        decoded = json.loads(payload)
        assert decoded["unit_count"] == 3

    def test_malformed_file_still_analyzed(self):
        # The fuzzy layer lexes leniently, so even an unterminated string
        # does not lose the translation unit.
        sources = dict(APOLLO_LIKE)
        sources["broken/unclosed.cc"] = 'const char* s = "never closed;\n'
        result = assess_sources(sources)
        assert result.unparseable == []
        assert result.unit_count == 4

    def test_unparseable_file_recorded(self, monkeypatch):
        from repro.core import parallel as parallel_module
        from repro.errors import ParseError
        real = parallel_module.parse_translation_unit

        def flaky(source, path):
            if path.startswith("broken/"):
                raise ParseError("boom", path, 1, 1)
            return real(source, path)

        monkeypatch.setattr(parallel_module, "parse_translation_unit",
                            flaky)
        sources = dict(APOLLO_LIKE)
        sources["broken/poison.cc"] = "int x;\n"
        result = assess_sources(sources)
        assert result.unparseable == ["broken/poison.cc"]
        assert result.unit_count == 3

    def test_strict_mode_raises_on_unparseable(self, monkeypatch):
        from repro.core import parallel as parallel_module
        from repro.errors import ParseError

        def always_fail(source, path):
            raise ParseError("boom", path, 1, 1)

        monkeypatch.setattr(parallel_module, "parse_translation_unit",
                            always_fail)
        config = PipelineConfig(skip_unparseable=False)
        with pytest.raises(ParseError):
            AssessmentPipeline(config).run({"a.cc": "int x;\n"})

    def test_empty_codebase(self):
        result = assess_sources({})
        assert result.unit_count == 0
        assert result.total_loc == 0

    def test_custom_module_mapper(self):
        config = PipelineConfig(module_of=lambda path: "single")
        result = AssessmentPipeline(config).run(APOLLO_LIKE)
        assert [module.name for module in result.modules] == ["single"]


class TestCli:
    def test_assess_tree(self, tmp_path, capsys):
        for path, source in APOLLO_LIKE.items():
            target = tmp_path / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        exit_code = main([str(tmp_path)])
        assert exit_code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_corpus_mode_with_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        exit_code = main(["--corpus", "0.02", "--json", str(out)])
        assert exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["moderate_or_higher"] > 0

    def test_markdown_and_plan_flags(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        exit_code = main(["--corpus", "0.02", "--plan",
                          "--markdown", str(out)])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "Remediation plan" in captured
        assert out.read_text().startswith("# ISO 26262-6")

    def test_empty_tree_errors(self, tmp_path):
        assert main([str(tmp_path)]) == 2

    def test_no_arguments_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestScaledCorpusAssessment:
    """End-to-end on the shared small corpus (see conftest)."""

    def test_cc_over_10_matches_spec(self, small_corpus, small_assessment):
        assert small_assessment.moderate_or_higher == \
            small_corpus.spec.expected_over_ten

    def test_loc_scales(self, small_assessment):
        assert small_assessment.total_loc > 5000

    def test_observation_1_supported(self, small_assessment):
        observation = next(o for o in small_assessment.observations
                           if o.number == 1)
        assert observation.supported

    def test_style_and_naming_compliant(self, small_assessment):
        table = small_assessment.tables["modeling_coding"]
        assert table.assessment("style_guides").verdict \
            is Verdict.COMPLIANT
        assert table.assessment("naming_conventions").verdict \
            is Verdict.COMPLIANT

    def test_core_gaps_non_compliant(self, small_assessment):
        table = small_assessment.tables["modeling_coding"]
        for key in ("low_complexity", "language_subsets", "strong_typing",
                    "defensive_implementation"):
            assert table.assessment(key).verdict is Verdict.NON_COMPLIANT, key

    def test_unit_design_gaps(self, small_assessment):
        table = small_assessment.tables["unit_design"]
        assert table.assessment("single_entry_exit").verdict \
            is Verdict.NON_COMPLIANT
        assert table.assessment("no_dynamic_objects").verdict \
            is Verdict.NON_COMPLIANT
        assert table.assessment("no_unconditional_jumps").verdict \
            is Verdict.NON_COMPLIANT


class TestCliExperiments:
    def test_experiments_flag(self, capsys):
        exit_code = main(["--corpus", "0.02", "--experiments"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "Figure 5" in captured
        assert "Figure 7" in captured
        assert "CUTLASS" in captured


class TestCorpusDescribe:
    def test_describe(self, small_corpus):
        description = small_corpus.describe()
        assert "corpus:" in description
        assert "perception" in description
        assert "cc>10 target" in description


class TestCliErrors:
    def test_nonexistent_path_clean_error(self, capsys):
        exit_code = main(["/no/such/tree/anywhere"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "cannot read source tree" in captured.err
        assert "Traceback" not in captured.err

    def test_file_path_clean_error(self, tmp_path, capsys):
        target = tmp_path / "single.cc"
        target.write_text("int x;\n")
        exit_code = main([str(target)])
        assert exit_code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_bad_corpus_scale_clean_error(self, capsys):
        exit_code = main(["--corpus", "-1"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "cannot generate corpus" in captured.err
        assert "Traceback" not in captured.err

    def test_unwritable_json_clean_error(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "report.json"
        exit_code = main(["--corpus", "0.02", "--json", str(target)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "cannot write JSON report" in captured.err
        assert "Traceback" not in captured.err

    def test_unwritable_markdown_clean_error(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "report.md"
        exit_code = main(["--corpus", "0.02", "--markdown", str(target)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "cannot write Markdown report" in captured.err
        assert "Traceback" not in captured.err

    def test_non_utf8_source_assessed_not_crashed(self, tmp_path, capsys):
        (tmp_path / "control").mkdir()
        (tmp_path / "control" / "latin1.cc").write_bytes(
            b"// comentario t\xe9cnico\nint Actuate(int c) { return c; }\n")
        (tmp_path / "control" / "clean.cc").write_text(
            "int Other(int c) { return c; }\n")
        exit_code = main([str(tmp_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "translation units analyzed : 2" in out


class TestCliVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro-assess ")
        assert out.strip().split()[-1][0].isdigit()


class TestCliTelemetry:
    def test_trace_prints_span_tree(self, capsys):
        exit_code = main(["--corpus", "0.02", "--trace"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "pipeline" in out
        assert "parse_file" in out
        for checker in ("language_subset", "casts", "defensive",
                        "globals", "naming", "style", "unit_design",
                        "architecture", "gpu_subset"):
            assert f"checker name={checker}" in out
        assert "compliance" in out
        assert "observations" in out

    def test_profile_prints_top_spans(self, capsys):
        exit_code = main(["--corpus", "0.02", "--profile", "--top", "5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Top 5 spans by self time" in out
        assert "share" in out

    def test_metrics_json_document(self, tmp_path, capsys):
        target = tmp_path / "telemetry.json"
        exit_code = main(["--corpus", "0.02",
                          "--metrics-json", str(target)])
        assert exit_code == 0
        document = json.loads(target.read_text())
        counters = document["metrics"]["counters"]
        assert counters["pipeline.units_parsed"] > 0
        assert "pipeline.parse_failures" in counters
        assert any(key.startswith("checker.findings")
                   for key in counters)
        assert document["spans"][0]["name"] == "pipeline"
        assert document["traceEvents"]

    def test_no_flags_prints_no_telemetry(self, capsys):
        exit_code = main(["--corpus", "0.02"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Top" not in out
        assert "parse_file" not in out
