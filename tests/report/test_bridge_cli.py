"""The CLI reporter bridge: pinned legacy bytes, new flags, exit codes."""

import json

import pytest

from repro.core import cli
from repro.core.cli import main
from repro.core.markdown import render_markdown
from repro.coverage import CoverageRunner
from repro.dnn.minic_yolo import YOLO_FILES
from repro.report import cobertura_xml

CORPUS_ARGS = ["--corpus", "0.04"]


def run_cli(capsys, *extra):
    code = main(CORPUS_ARGS + list(extra))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLegacySurfacesPinned:
    """--json/--markdown now route through the bridge; the bytes and
    announcement lines are pinned to the pre-bridge writers."""

    def test_json_byte_identical_to_direct_dump(self, tmp_path, capsys,
                                                small_assessment):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "--json", str(target))
        assert code == 0
        assert target.read_text() \
            == json.dumps(small_assessment.to_dict(), indent=2)
        assert f"\nJSON written to {target}\n" in out

    def test_markdown_byte_identical_to_direct_render(self, tmp_path,
                                                      capsys,
                                                      small_assessment):
        target = tmp_path / "out.md"
        code, out, _ = run_cli(capsys, "--markdown", str(target))
        assert code == 0
        assert target.read_text() == render_markdown(small_assessment)
        # pinned asymmetry: Markdown's line has no leading blank line
        assert f"Markdown written to {target}\n" in out

    def test_announcement_order_json_before_markdown(self, tmp_path,
                                                     capsys):
        code, out, _ = run_cli(
            capsys, "--json", str(tmp_path / "a.json"),
            "--markdown", str(tmp_path / "a.md"),
            "--sarif", str(tmp_path / "a.sarif"))
        assert code == 0
        assert out.index("JSON written") < out.index("Markdown written")
        assert out.index("Markdown written") < out.index("SARIF written")


class TestNewSurfaces:
    def test_sarif_flag_writes_valid_log(self, tmp_path, capsys):
        target = tmp_path / "out.sarif"
        code, out, _ = run_cli(capsys, "--sarif", str(target))
        assert code == 0
        assert f"SARIF written to {target}" in out
        document = json.loads(target.read_text())
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"]

    def test_html_flag_writes_dashboard(self, tmp_path, capsys):
        target = tmp_path / "dash"
        code, out, _ = run_cli(capsys, "--html", str(target))
        assert code == 0
        assert f"HTML dashboard written to {target}" in out
        assert (target / "index.html").exists()
        assert (target / "modules").is_dir()


class TestExitTwoValidation:
    def test_unwritable_json_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code, _, err = run_cli(capsys, "--json",
                               str(blocker / "out.json"))
        assert code == 2
        assert "cannot write JSON report" in err

    def test_unwritable_sarif_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code, _, err = run_cli(capsys, "--sarif",
                               str(blocker / "out.sarif"))
        assert code == 2
        assert "cannot write SARIF report" in err

    def test_unwritable_cobertura_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code, _, err = run_cli(capsys, "--cobertura",
                               str(blocker / "cov.xml"))
        assert code == 2
        assert "cannot write Cobertura XML" in err

    def test_unwritable_html_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code, _, err = run_cli(capsys, "--html", str(blocker))
        assert code == 2
        assert "cannot write HTML dashboard" in err


class TestConfigWiring:
    def test_needs_coverage_only_for_html_and_cobertura(self):
        from repro.report import ReportTargets
        assert ReportTargets(html="d").needs_coverage()
        assert ReportTargets(cobertura="f").needs_coverage()
        assert not ReportTargets(json="f", markdown="m",
                                 sarif="s").needs_coverage()


class TestOneCampaign:
    def test_campaign_runs_once_and_every_surface_reads_it(
            self, tmp_path, capsys, monkeypatch):
        suites = []
        run_suite = CoverageRunner.run_suite

        def counting_run_suite(runner, vectors):
            suites.append(runner.filename)
            return run_suite(runner, vectors)

        monkeypatch.setattr(CoverageRunner, "run_suite", counting_run_suite)
        models = []
        build_report_model = cli.build_report_model

        def capturing_build(*args, **kwargs):
            models.append(build_report_model(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(cli, "build_report_model", capturing_build)
        dashboard, xml = tmp_path / "dash", tmp_path / "cov.xml"
        code, out, _ = run_cli(capsys, "--html", str(dashboard),
                               "--cobertura", str(xml), "--experiments")
        assert code == 0
        assert sorted(suites) == sorted(YOLO_FILES)
        campaign = models[0].coverage
        assert xml.read_text() == cobertura_xml(campaign)
        index = (dashboard / "index.html").read_text()
        assert f"{campaign.average('statement'):.1f}%" in index
        figure5 = out.split("Figure 5 — YOLO real-scenario coverage:\n")[1]
        printed = figure5.split("\n\n")[0].splitlines()
        assert printed == campaign.render().splitlines()
        assert [line.split()[0] for line in printed[2:-2]] \
            == [row["file"] for row in campaign.rows()]
        assert printed[-1].startswith("AVERAGE")
