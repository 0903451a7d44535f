"""Tests for the statement/branch/MC/DC coverage engine."""

import pytest

from repro.coverage import (
    CoverageCampaign,
    CoverageCollector,
    CoverageRunner,
    TestVector,
    measure_branch_coverage,
    measure_mcdc_coverage,
    measure_statement_coverage,
)
from repro.coverage.instrument import build_function_maps, exclusion_sets
from repro.errors import CoverageError
from repro.lang.minic import Interpreter, parse_program


def run_and_collect(source, calls):
    program = parse_program(source)
    collector = CoverageCollector(program)
    interpreter = Interpreter(program, tracer=collector)
    for function, args in calls:
        interpreter.run(function, args)
    return collector


SIMPLE = """
int f(int x) {
  int y = 0;
  if (x > 0) {
    y = 1;
  } else {
    y = 2;
  }
  return y;
}
"""


class TestStatementCoverage:
    def test_full_coverage(self):
        collector = run_and_collect(SIMPLE, [("f", [1]), ("f", [-1])])
        coverage = measure_statement_coverage(collector)
        assert coverage.percent == 100.0
        assert coverage.uncovered_lines == ()

    def test_partial_coverage(self):
        collector = run_and_collect(SIMPLE, [("f", [1])])
        coverage = measure_statement_coverage(collector)
        assert coverage.covered == coverage.total - 1
        assert len(coverage.uncovered_lines) == 1

    def test_no_execution(self):
        collector = run_and_collect(SIMPLE, [])
        coverage = measure_statement_coverage(collector)
        assert coverage.covered == 0
        assert coverage.percent == 0.0

    def test_empty_program_is_100(self):
        collector = run_and_collect("", [])
        assert measure_statement_coverage(collector).percent == 100.0

    def test_include_filter(self):
        collector = run_and_collect(SIMPLE, [("f", [1])])
        coverage = measure_statement_coverage(collector, include=set())
        assert coverage.total == 0
        assert coverage.percent == 100.0


class TestBranchCoverage:
    def test_both_outcomes_needed(self):
        collector = run_and_collect(SIMPLE, [("f", [1])])
        coverage = measure_branch_coverage(collector)
        assert coverage.total == 2
        assert coverage.covered == 1

        collector = run_and_collect(SIMPLE, [("f", [1]), ("f", [0])])
        assert measure_branch_coverage(collector).percent == 100.0

    def test_loop_counts_as_decision(self):
        source = ("int f(int n) { int s = 0; "
                  "for (int i = 0; i < n; i++) { s++; } return s; }")
        collector = run_and_collect(source, [("f", [3])])
        coverage = measure_branch_coverage(collector)
        # Loop entered (true) and exited (false): both covered.
        assert coverage.percent == 100.0

    def test_loop_never_entered(self):
        source = ("int f(int n) { int s = 0; "
                  "while (n > 100) { s++; n++; } return s; }")
        collector = run_and_collect(source, [("f", [1])])
        assert measure_branch_coverage(collector).covered == 1

    def test_switch_cases_are_branches(self):
        source = ("int f(int x) { switch (x) { case 1: return 1; "
                  "case 2: return 2; default: return 0; } }")
        collector = run_and_collect(source, [("f", [1])])
        coverage = measure_branch_coverage(collector)
        assert coverage.total == 3
        assert coverage.covered == 1

        collector = run_and_collect(source, [("f", [1]), ("f", [2]),
                                             ("f", [7])])
        assert measure_branch_coverage(collector).percent == 100.0

    def test_uncovered_records_describe_branch(self):
        collector = run_and_collect(SIMPLE, [("f", [1])])
        uncovered = measure_branch_coverage(collector).uncovered
        assert len(uncovered) == 1
        assert "false" in uncovered[0].description


COMPOUND = """
int check(int a, int b) {
  if (a > 0 && b > 0) {
    return 1;
  }
  return 0;
}
"""


class TestMcdcCoverage:
    def test_branch_full_but_mcdc_partial(self):
        # (T,T) and (F,-): both branch outcomes, but b never shown
        # independent.
        collector = run_and_collect(COMPOUND, [("check", [1, 1]),
                                               ("check", [0, 1])])
        assert measure_branch_coverage(collector).percent == 100.0
        mcdc = measure_mcdc_coverage(collector)
        assert mcdc.covered == 1
        assert mcdc.total == 2

    def test_full_mcdc(self):
        collector = run_and_collect(COMPOUND, [
            ("check", [1, 1]), ("check", [0, 1]), ("check", [1, 0])])
        assert measure_mcdc_coverage(collector).percent == 100.0

    def test_single_condition_equals_branch(self):
        collector = run_and_collect(SIMPLE, [("f", [1]), ("f", [0])])
        mcdc = measure_mcdc_coverage(collector)
        assert mcdc.total == 1
        assert mcdc.percent == 100.0

    def test_unique_cause_stricter_than_masking(self):
        source = """
        int g(int a, int b, int c) {
          if ((a > 0 && b > 0) || c > 0) {
            return 1;
          }
          return 0;
        }
        """
        # Masking pair for c: (T,T,-)->1 vs ... c short-circuited when
        # a&&b true; craft vectors where masking succeeds.
        vectors = [("g", [1, 1, 0]), ("g", [0, 1, 0]), ("g", [0, 1, 1]),
                   ("g", [1, 0, 0]), ("g", [1, 0, 1])]
        collector = run_and_collect(source, vectors)
        masking = measure_mcdc_coverage(collector, "masking")
        unique = measure_mcdc_coverage(collector, "unique-cause")
        assert masking.covered >= unique.covered

    def test_invalid_variant_rejected(self):
        collector = run_and_collect(COMPOUND, [])
        with pytest.raises(ValueError):
            measure_mcdc_coverage(collector, "bogus")

    def test_ternary_participates(self):
        source = "int f(int x) { return x > 0 ? 1 : 0; }"
        collector = run_and_collect(source, [("f", [1]), ("f", [0])])
        assert measure_mcdc_coverage(collector).percent == 100.0


class TestCollector:
    def test_merge(self):
        program = parse_program(SIMPLE)
        first = CoverageCollector(program)
        second = CoverageCollector(program)
        Interpreter(program, tracer=first).run("f", [1])
        Interpreter(program, tracer=second).run("f", [-1])
        first.merge(second)
        assert measure_branch_coverage(first).percent == 100.0

    def test_merge_rejects_other_program(self):
        first = CoverageCollector(parse_program(SIMPLE))
        second = CoverageCollector(parse_program(SIMPLE))
        with pytest.raises(CoverageError):
            first.merge(second)

    def test_bad_statement_id_rejected(self):
        collector = CoverageCollector(parse_program(SIMPLE))
        with pytest.raises(CoverageError):
            collector.on_statement(10_000)

    def test_hits_by_line(self):
        collector = run_and_collect(SIMPLE, [("f", [1]), ("f", [2])])
        lines = collector.hits_by_line()
        assert max(lines.values()) == 2


class TestRunner:
    def test_vector_expectations(self):
        runner = CoverageRunner(SIMPLE, "s.c")
        outcomes = runner.run_suite([
            TestVector("f", (1,), expected=1),
            TestVector("f", (-1,), expected=2),
        ])
        assert all(outcome.passed for outcome in outcomes)
        assert runner.coverage().statement_percent == 100.0

    def test_failed_expectation_recorded(self):
        runner = CoverageRunner(SIMPLE, "s.c")
        runner.run_vector(TestVector("f", (1,), expected=99))
        assert len(runner.failures) == 1

    def test_error_recorded_not_raised(self):
        runner = CoverageRunner(SIMPLE, "s.c")
        outcome = runner.run_vector(TestVector("missing", ()))
        assert not outcome.passed
        assert "MiniCNameError" in outcome.error

    def test_coverage_accumulates_across_vectors(self):
        runner = CoverageRunner(SIMPLE, "s.c")
        runner.run_vector(TestVector("f", (1,)))
        partial = runner.coverage().branch_percent
        runner.run_vector(TestVector("f", (-1,)))
        assert runner.coverage().branch_percent > partial


class TestExclusion:
    TWO_FUNCTIONS = """
    int used(int x) {
      if (x > 0) {
        return 1;
      }
      return 0;
    }
    int unused(int x) {
      if (x > 3) {
        return 9;
      }
      return 8;
    }
    """

    def test_function_maps_partition(self):
        program = parse_program(self.TWO_FUNCTIONS)
        maps = build_function_maps(program)
        assert len(maps) == 2
        all_statements = set()
        for function_map in maps:
            assert not (all_statements & function_map.statement_ids)
            all_statements |= function_map.statement_ids
        assert len(all_statements) == program.statement_count

    def test_exclusion_raises_coverage(self):
        runner = CoverageRunner(self.TWO_FUNCTIONS, "two.c")
        runner.run_suite([TestVector("used", (1,)),
                          TestVector("used", (-1,))])
        raw = runner.coverage(exclude_uncalled=False)
        filtered = runner.coverage(exclude_uncalled=True)
        assert raw.statement_percent < 100.0
        assert filtered.statement_percent == 100.0
        assert filtered.branch_percent == 100.0

    def test_excluded_names_reported(self):
        runner = CoverageRunner(self.TWO_FUNCTIONS, "two.c")
        runner.run_vector(TestVector("used", (1,)))
        _, _, excluded = exclusion_sets(runner.collector)
        assert excluded == ["unused"]


class TestCampaign:
    def test_averages_and_minima(self):
        runner_a = CoverageRunner(SIMPLE, "a.c")
        runner_a.run_suite([TestVector("f", (1,)), TestVector("f", (0,))])
        runner_b = CoverageRunner(SIMPLE, "b.c")
        runner_b.run_vector(TestVector("f", (1,)))
        campaign = CoverageCampaign([runner_a.coverage(),
                                     runner_b.coverage()])
        assert campaign.average("statement") == pytest.approx(
            (100.0 + runner_b.coverage().statement_percent) / 2)
        assert campaign.minimum("branch") == 50.0

    def test_render_contains_rows(self):
        runner = CoverageRunner(SIMPLE, "a.c")
        runner.run_vector(TestVector("f", (1,)))
        rendered = CoverageCampaign([runner.coverage()]).render()
        assert "a.c" in rendered
        assert "AVERAGE" in rendered
