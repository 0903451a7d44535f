"""Tests for LOC counting, complexity bands, and module aggregation."""

import pytest

from repro.lang import parse_translation_unit, tokenize
from repro.metrics import (
    ComplexityBand,
    FIGURE3_THRESHOLDS,
    LineCounts,
    band_histogram,
    count_lines,
    count_over_thresholds,
    figure3_rows,
    measure_module,
    summarize_unit,
    summarize_units,
    total_moderate_or_higher,
)


class TestLineCounts:
    def count(self, source):
        return count_lines(source, tokenize(source, strict=False))

    def test_empty_file(self):
        counts = self.count("")
        assert counts.total == 0
        assert counts.code == 0

    def test_code_comment_blank_partition(self):
        source = "int x;\n\n// comment\nint y;  // trailing\n"
        counts = self.count(source)
        assert counts.total == 4
        assert counts.code == 2
        assert counts.comment == 2
        assert counts.blank == 1

    def test_multiline_comment_spans(self):
        counts = self.count("/* a\n b\n c */\n")
        assert counts.comment == 3
        assert counts.code == 0

    def test_preprocessor_lines(self):
        counts = self.count("#include <x>\n#define Y 1\nint z;\n")
        assert counts.preprocessor == 2
        assert counts.code == 1

    def test_no_trailing_newline_counts_last_line(self):
        counts = self.count("int x;")
        assert counts.total == 1

    def test_comment_density(self):
        counts = LineCounts(total=10, code=5, comment=10, blank=0,
                            preprocessor=0)
        assert counts.comment_density == 2.0

    def test_addition(self):
        a = LineCounts(10, 5, 3, 2, 1)
        b = LineCounts(20, 10, 6, 4, 2)
        combined = a + b
        assert combined.total == 30
        assert combined.code == 15


class TestBands:
    @pytest.mark.parametrize("value,band", [
        (1, ComplexityBand.LOW), (10, ComplexityBand.LOW),
        (11, ComplexityBand.MODERATE), (20, ComplexityBand.MODERATE),
        (21, ComplexityBand.RISKY), (50, ComplexityBand.RISKY),
        (51, ComplexityBand.UNSTABLE), (500, ComplexityBand.UNSTABLE),
    ])
    def test_classification(self, value, band):
        assert ComplexityBand.classify(value) is band

    def test_invalid_complexity_rejected(self):
        with pytest.raises(ValueError):
            ComplexityBand.classify(0)

    def test_exceeds_low(self):
        assert not ComplexityBand.LOW.exceeds_low
        assert ComplexityBand.MODERATE.exceeds_low

    def test_histogram(self):
        histogram = band_histogram([1, 5, 12, 25, 60])
        assert histogram[ComplexityBand.LOW] == 2
        assert histogram[ComplexityBand.MODERATE] == 1
        assert histogram[ComplexityBand.RISKY] == 1
        assert histogram[ComplexityBand.UNSTABLE] == 1

    def test_threshold_counting_is_strict(self):
        counts = count_over_thresholds([5, 10, 11, 20, 21], [10, 20])
        assert counts[10] == 3  # 11, 20 and 21 (strictly greater than 10)
        assert counts[20] == 1  # 21 only

    def test_default_thresholds(self):
        assert FIGURE3_THRESHOLDS == [5, 10, 20, 50]


class TestComplexitySummary:
    SOURCE = """
    void simple() { }
    void branchy(int x) {
      if (x > 0) { }
      if (x > 1) { }
      if (x > 2) { }
      if (x > 3) { }
      if (x > 4) { }
      if (x > 5) { }
      if (x > 6) { }
      if (x > 7) { }
      if (x > 8) { }
      if (x > 9) { }
      if (x > 10) { }
    }
    """

    def test_summarize_unit(self):
        unit = parse_translation_unit(self.SOURCE, "a.cc")
        summary = summarize_unit(unit)
        assert summary.function_count == 2
        assert summary.max_complexity == 12
        assert summary.moderate_or_higher == 1

    def test_worst_ordering(self):
        unit = parse_translation_unit(self.SOURCE, "a.cc")
        worst = summarize_unit(unit).worst(1)
        assert worst[0].name == "branchy"

    def test_mean(self):
        unit = parse_translation_unit(self.SOURCE, "a.cc")
        assert summarize_unit(unit).mean_complexity == (1 + 12) / 2

    def test_empty_summary(self):
        summary = summarize_units([])
        assert summary.function_count == 0
        assert summary.max_complexity == 0
        assert summary.mean_complexity == 0.0


class TestModuleMetrics:
    def test_measure_module_and_figure3(self):
        sources = {
            "m/a.cc": "void f(int x) { if (x) { } }\nint g_state = 0;\n",
            "m/b.cc": "void g() { }\nclass C { };\n",
        }
        units = [parse_translation_unit(text, path)
                 for path, text in sources.items()]
        module = measure_module("m", units)
        assert module.file_count == 2
        assert module.function_count == 2
        assert module.class_count == 1
        assert module.global_count == 1
        assert module.loc > 0

        rows = figure3_rows([module])
        assert rows[0]["module"] == "m"
        assert rows[0]["functions"] == 2
        assert rows[0]["cc>10"] == 0

    def test_total_moderate_or_higher(self, small_corpus):
        from repro.lang import parse_translation_unit as parse
        units_by_module = {}
        sources = small_corpus.sources()
        for path, text in sources.items():
            module = path.split("/")[0]
            units_by_module.setdefault(module, []).append(
                parse(text, path))
        modules = [measure_module(name, units)
                   for name, units in units_by_module.items()]
        expected = small_corpus.spec.expected_over_ten
        assert total_moderate_or_higher(modules) == expected
