"""The HTML dashboard: structure, self-containment, annotation."""

import os
import re

import pytest

from repro.report import write_dashboard
from repro.report.html import _slug, render_index, render_module_page

#: Anything that would make a page reach off-disk.
EXTERNAL = re.compile(
    r"https?://|<script|<link|src=|@import|url\(", re.IGNORECASE)


@pytest.fixture(scope="module")
def dashboard(tmp_path_factory, coverage_model):
    directory = tmp_path_factory.mktemp("dash")
    pages = write_dashboard(coverage_model, str(directory))
    return directory, pages


class TestSiteStructure:
    def test_index_and_drilldowns_written(self, dashboard,
                                          coverage_model):
        directory, pages = dashboard
        assert (directory / "index.html").exists()
        for rollup in coverage_model.modules:
            assert (directory / "modules"
                    / f"{_slug(rollup.name)}.html").exists()
        for record in coverage_model.coverage.files:
            assert (directory / "coverage"
                    / f"{_slug(record.filename)}.html").exists()
        assert len(pages) == (1 + len(coverage_model.modules)
                              + len(coverage_model.coverage.files))

    def test_every_page_is_self_contained(self, dashboard):
        directory, pages = dashboard
        for path in pages:
            text = open(path, encoding="utf-8").read()
            assert not EXTERNAL.search(text), path
            assert "<style>" in text

    def test_index_links_resolve(self, dashboard):
        directory, _ = dashboard
        index = (directory / "index.html").read_text()
        for target in re.findall(r'href="([^"]+)"', index):
            assert os.path.exists(directory / target), target


class TestOverviewContent:
    def test_paper_figures_present(self, coverage_model):
        index = render_index(coverage_model)
        assert "Findings per ISO 26262-6 table / topic" in index
        assert "Severity mix" in index
        assert "Violation density per module" in index
        assert "Coverage by type (Figure 5)" in index
        assert "Requirement-table verdicts" in index
        assert "Rule index" in index

    def test_charts_are_inline_svg_with_tooltips(self, coverage_model):
        index = render_index(coverage_model)
        assert index.count("<svg") >= 3
        assert "<title>" in index

    def test_clean_run_has_no_degradations_panel(self, coverage_model):
        assert "Degradations" not in render_index(coverage_model)

    def test_without_coverage_an_empty_state_renders(self, report_model):
        index = render_index(report_model)
        assert "no coverage data collected" in index


class TestModulePages:
    def test_findings_annotated_on_their_lines(self, deviation_model):
        rollup = next(r for r in deviation_model.modules
                      if r.name == "perception")
        page = render_module_page(deviation_model, rollup)
        assert 'class="ln finding"' in page
        assert 'class="ln deviation"' in page
        assert "GV.mutable_global" in page
        assert "suppressed by deviation" in page

    def test_source_lines_escaped(self, dashboard, coverage_model):
        directory, _ = dashboard
        rollup = max(coverage_model.modules, key=lambda r: r.findings)
        page = (directory / "modules"
                / f"{_slug(rollup.name)}.html").read_text()
        path = rollup.files[0]
        raw_markers = [line for line
                       in coverage_model.sources[path].split("\n")
                       if "<" in line or "&" in line]
        if raw_markers:
            assert raw_markers[0] not in page


class TestCoveragePages:
    def test_miss_marks_and_branch_gaps(self, dashboard):
        directory, _ = dashboard
        page = (directory / "coverage" / "gemm.c.html").read_text()
        assert "####" in page
        assert "branch not fully" in page
        assert 'class="ln hit"' in page and 'class="ln miss"' in page

    def test_percent_tiles_match_campaign(self, dashboard,
                                          coverage_model):
        directory, _ = dashboard
        record = next(r for r in coverage_model.coverage.files
                      if r.filename == "gemm.c")
        page = (directory / "coverage" / "gemm.c.html").read_text()
        assert f"{record.statement_percent:.1f}%" in page
        assert f"{record.branch_percent:.1f}%" in page
