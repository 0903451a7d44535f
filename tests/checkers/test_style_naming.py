"""Tests for the style and naming checkers."""

from repro.checkers import (NamingChecker, StyleChecker, StyleConfig,
                            run_checkers)
from repro.core.pipeline import AssessmentPipeline
from repro.lang import parse_translation_unit


def style_check(source, filename="t.cc", config=StyleConfig()):
    return StyleChecker(config).check_unit(
        parse_translation_unit(source, filename))


def naming_check(source, filename="t.cc"):
    return NamingChecker().check_project(
        [parse_translation_unit(source, filename)])


def rules_of(report):
    return {finding.rule for finding in report.findings}


class TestStyleChecker:
    def test_clean_google_style(self):
        source = ("int Add(int a, int b) {\n"
                  "  return a + b;\n"
                  "}\n")
        report = style_check(source)
        assert report.stats["style_violations"] == 0

    def test_line_length(self):
        source = "int x = 0;  // " + "y" * 80 + "\n"
        report = style_check(source)
        assert "SG.line_length" in rules_of(report)

    def test_custom_line_limit(self):
        source = "int value_with_name = 0;  // comment making it long\n"
        report = style_check(source, config=StyleConfig(max_line_length=20))
        assert "SG.line_length" in rules_of(report)

    def test_tab_flagged(self):
        report = style_check("int x;\n\tint y;\n")
        assert "SG.tab" in rules_of(report)

    def test_trailing_whitespace(self):
        report = style_check("int x;  \n")
        assert "SG.trailing_ws" in rules_of(report)

    def test_brace_on_own_line(self):
        report = style_check("void F()\n{\n}\n")
        assert "SG.brace_own_line" in rules_of(report)

    def test_odd_indent_flagged(self):
        report = style_check("void F() {\n   int x = 0;\n}\n")
        assert "SG.indent" in rules_of(report)

    def test_continuation_alignment_allowed(self):
        source = ("void F(int a,\n"
                  "       int b) {\n"
                  "  int x = a +\n"
                  "          b;\n"
                  "}\n")
        report = style_check(source)
        assert "SG.indent" not in rules_of(report)

    def test_missing_final_newline(self):
        report = style_check("int x;")
        assert "SG.final_newline" in rules_of(report)

    def test_header_guard_required(self):
        report = style_check("int x;\n", filename="a.h")
        assert "SG.header_guard" in rules_of(report)

    def test_pragma_once_accepted(self):
        report = style_check("#pragma once\nint x;\n", filename="a.h")
        assert "SG.header_guard" not in rules_of(report)

    def test_ifndef_guard_accepted(self):
        source = "#ifndef A_H_\n#define A_H_\n#endif\n"
        report = style_check(source, filename="a.h")
        assert "SG.header_guard" not in rules_of(report)

    def test_violations_per_kloc(self):
        report = style_check("int x;\t\n" * 10)
        assert report.stats["violations_per_kloc"] > 0


class TestStyleSourceChannel:
    """The style checker reads the text off the parsed unit: used
    directly, with no registration step, it reports what the pipeline
    reports for the same file."""

    SOURCE = ("int a = 0; \n"
              "int b =\t1;\n"
              "void F()\n"
              "{\n"
              "   return;\n"
              "}")

    def test_direct_use_equals_pipeline(self):
        unit = parse_translation_unit(self.SOURCE, "a.cc")
        piped = AssessmentPipeline().run({"a.cc": self.SOURCE})
        expected = piped.reports["style"]
        assert rules_of(expected) == {
            "SG.trailing_ws", "SG.tab", "SG.brace_own_line", "SG.indent",
            "SG.final_newline"}
        assert expected.stats["checked_lines"] == 6
        assert run_checkers([StyleChecker()], [unit])["style"] == expected
        assert StyleChecker().check_unit(unit) == expected


class TestNamingChecker:
    def test_camel_case_type_accepted(self):
        report = naming_check("class LaneTracker { };")
        assert report.stats["naming_violations"] == 0

    def test_snake_type_rejected(self):
        report = naming_check("class lane_tracker { };")
        assert "NC.type_name" in rules_of(report)

    def test_constant_k_prefix_accepted(self):
        report = naming_check("const float kMaxSpeed = 30.0f;")
        assert report.stats["naming_violations"] == 0

    def test_upper_case_constant_accepted(self):
        report = naming_check("const int MAX_RETRIES = 3;")
        assert report.stats["naming_violations"] == 0

    def test_bad_constant_name(self):
        report = naming_check("const int maxRetries = 3;")
        assert "NC.constant_name" in rules_of(report)

    def test_global_prefix_required(self):
        report = naming_check("int frame_count = 0;")
        assert "NC.global_name" in rules_of(report)

    def test_global_g_prefix_accepted(self):
        report = naming_check("int g_frame_count = 0;")
        assert report.stats["naming_violations"] == 0

    def test_flags_prefix_accepted(self):
        report = naming_check("bool FLAGS_enable_lidar = true;")
        assert report.stats["naming_violations"] == 0

    def test_function_camel_accepted(self):
        report = naming_check("void ComputePath() { }")
        assert report.stats["naming_violations"] == 0

    def test_function_snake_accepted(self):
        report = naming_check("void compute_path() { }")
        assert report.stats["naming_violations"] == 0

    def test_mixed_cpu_styles_flagged(self):
        report = naming_check(
            "void ComputePath() { }\nvoid compute_cost() { }")
        assert "NC.mixed_styles" in rules_of(report)

    def test_kernel_exempt_from_mixing(self):
        report = naming_check(
            "void ComputePath() { }\n"
            "__global__ void scale_bias_kernel(float *p) { }")
        assert "NC.mixed_styles" not in rules_of(report)

    def test_weird_function_name_flagged(self):
        report = naming_check("void Weird_Name() { }")
        assert "NC.function_name" in rules_of(report)

    def test_conformance_ratio(self):
        report = naming_check(
            "class Good { };\nclass bad_one { };")
        assert 0.0 < report.stats["conformance_ratio"] < 1.0
