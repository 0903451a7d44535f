"""Tests for the cast, defensive-programming, and globals checkers."""

from repro.checkers import CastChecker, DefensiveChecker, \
    GlobalVariableChecker
from repro.checkers.defensive import project_validation_ratio
from repro.lang import parse_translation_unit
from repro.rules import RuleProfile


def unit_of(source, filename="t.cc"):
    return parse_translation_unit(source, filename)


class TestCastChecker:
    def check(self, source):
        return CastChecker().check_project([unit_of(source)])

    def test_named_casts_counted(self):
        report = self.check(
            "void f(float x) {\n"
            "  int a = static_cast<int>(x);\n"
            "  const int* p = &a;\n"
            "  int* q = const_cast<int*>(p);\n"
            "}")
        assert report.stats["named_casts"] == 2

    def test_c_style_cast_detected(self):
        report = self.check("void f(float x) { int a = (int)x; }")
        assert report.stats["c_style_casts"] == 1

    def test_c_style_pointer_cast_detected(self):
        report = self.check(
            "void f(void* p) { float* q = (float*)p; }")
        assert report.stats["c_style_casts"] == 1

    def test_call_not_mistaken_for_cast(self):
        report = self.check("void f() { g(x); h(1); }")
        assert report.stats["c_style_casts"] == 0

    def test_parenthesized_expression_not_cast(self):
        report = self.check("int f(int a, int b) { return (a) + (b); }")
        assert report.stats["c_style_casts"] == 0

    def test_declaration_not_functional_cast(self):
        report = self.check("void f() { int (x) = 3; }")
        assert report.stats["functional_casts"] == 0

    def test_functional_cast_in_expression(self):
        report = self.check("void f(float x) { int y = 1 + int(x); }")
        assert report.stats["functional_casts"] == 1

    def test_fixed_width_cast(self):
        report = self.check(
            "void f(float x) { uint32_t v = (uint32_t)x; }")
        assert report.stats["c_style_casts"] == 1

    def test_narrowing_initialization(self):
        report = self.check("void f() { int x = 2.5; }")
        assert report.stats["implicit_narrowing_risks"] == 1

    def test_integer_initialization_clean(self):
        report = self.check("void f() { int x = 2; }")
        assert report.stats["implicit_narrowing_risks"] == 0

    def test_explicit_total(self):
        report = self.check(
            "void f(float x) { int a = (int)x; "
            "int b = static_cast<int>(x); }")
        assert report.stats["explicit_casts"] == 2


    def test_narrowing_findings_follow_every_cast_finding(self):
        report = self.check(
            "void f(float x) {\n"
            "  int a = 2.5;\n"
            "  int b = (int)x;\n"
            "  int c = static_cast<int>(x);\n"
            "  long d = 1e3;\n"
            "}")
        rules = [finding.rule for finding in report.findings]
        assert rules == ["ST.c_cast", "ST.named_cast",
                         "ST.narrowing_init", "ST.narrowing_init"]
        # Source order would interleave them: the first narrowing
        # initialization precedes both casts.
        assert [finding.line for finding in report.findings] == \
            [3, 4, 2, 5]


class TestDefensiveChecker:
    def check(self, source):
        return DefensiveChecker().check_project([unit_of(source)])

    def test_validated_parameters(self):
        report = self.check(
            "int f(int* p) { if (p == 0) { return -1; } return p[0]; }")
        assert report.stats["guarded_functions"] == 1
        assert report.stats["validation_ratio"] == 1.0

    def test_check_macro_counts_as_validation(self):
        report = self.check(
            "int f(int* p) { CHECK_NOTNULL(p); return p[0]; }")
        assert report.stats["guarded_functions"] == 1

    def test_unvalidated_parameters(self):
        report = self.check("int f(int* p) { return p[0] + p[1]; }")
        assert report.stats["guarded_functions"] == 0
        assert any(finding.rule == "DF.unvalidated_params"
                   for finding in report.findings)

    def test_validation_must_mention_parameter(self):
        report = self.check(
            "int f(int* p) { int local = 3; if (local > 0) { } "
            "return p[0]; }")
        assert report.stats["guarded_functions"] == 0

    def test_parameterless_function_not_guardable(self):
        report = self.check("int f() { return 1; }")
        assert report.stats["guardable_functions"] == 0

    def test_unchecked_return_value(self):
        report = self.check(
            "int status(int x) { if (x) { return 1; } return 0; }\n"
            "void caller(int x) { status(x); }")
        assert report.stats["unchecked_return_calls"] == 1

    def test_checked_return_value_clean(self):
        report = self.check(
            "int status(int x) { if (x) { return 1; } return 0; }\n"
            "void caller(int x) { int r = status(x); }")
        assert report.stats["unchecked_return_calls"] == 0

    def test_unchecked_returns_follow_every_unvalidated_function(self):
        report = self.check(
            "int helper(int v) { return v + 1; }\n"
            "void caller(int w) {\n"
            "  helper(w);\n"
            "}\n"
            "int later(int z) { return z * 2; }\n")
        located = [(finding.rule, finding.line)
                   for finding in report.findings]
        assert located == [("DF.unvalidated_params", 1),
                           ("DF.unvalidated_params", 2),
                           ("DF.unvalidated_params", 5),
                           ("DF.unchecked_return", 3)]

    def test_project_ratio_helper(self):
        reports = [self.check("int f(int* p) { if (p == 0) { return 0; } "
                              "return 1; }"),
                   self.check("int g(int* p) { return p[0]; }")]
        assert project_validation_ratio(reports) == 0.5


class TestGlobalVariableChecker:
    def check(self, source):
        return GlobalVariableChecker().check_project([unit_of(source)])

    def test_mutable_global_flagged(self):
        report = self.check("int g_count = 0;")
        assert report.stats["mutable_globals"] == 1
        assert report.findings[0].rule == "GV.mutable_global"

    def test_const_global_not_flagged(self):
        report = self.check("const int kLimit = 10;")
        assert report.stats["mutable_globals"] == 0
        assert report.stats["const_globals"] == 1

    def test_constexpr_not_flagged(self):
        report = self.check("constexpr float kPi = 3.14f;")
        assert report.stats["mutable_globals"] == 0

    def test_namespace_globals_counted(self):
        report = self.check(
            "namespace a { int g_x = 0; namespace b { int g_y = 1; } }")
        assert report.stats["mutable_globals"] == 2

    def test_extern_and_static_classification(self):
        report = self.check("extern int g_a;\nstatic int g_b = 2;")
        assert report.stats["extern_globals"] == 1
        assert report.stats["static_globals"] == 1


class TestBufferedRuleGating:
    """Buffered findings feed their statistics only when they land."""

    PROFILE = RuleProfile(disable=("ST.narrowing_init",
                                   "DF.unchecked_return"))

    def check(self, checker, source):
        checker.profile = self.PROFILE
        return checker.check_project([unit_of(source)])

    def test_disabled_narrowing_is_not_counted(self):
        report = self.check(CastChecker(),
                            "void f(float x) { int a = 2.5; "
                            "int b = (int)x; }")
        assert report.stats["implicit_narrowing_risks"] == 0
        assert report.stats["c_style_casts"] == 1
        assert [f.rule for f in report.findings] == ["ST.c_cast"]

    def test_disabled_unchecked_return_is_not_counted(self):
        report = self.check(
            DefensiveChecker(),
            "int status(int x) { if (x) { return 1; } return 0; }\n"
            "void caller(int x) { status(x); }")
        assert report.stats["unchecked_return_calls"] == 0
        assert [f.rule for f in report.findings] == \
            ["DF.unvalidated_params"]
