"""CLI-level degradation: exit code 3, --strict, and the pinned
guarantee that a fault-free run is byte-identical to the old output."""

import json
import os

import pytest

from repro.core import AssessmentPipeline, PipelineConfig
from repro.core.cli import main
from repro.core.pipeline import AssessmentPipeline as _Pipeline
from repro.corpus import apollo_spec, generate_corpus
from repro.corpus.writer import read_tree
from repro.store import Store
from repro.testing import (
    Fault,
    FaultInjected,
    FaultPlan,
    FaultyChecker,
    corrupt_cache_entries,
)


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A small multi-file corpus written to disk for the CLI."""
    root = tmp_path_factory.mktemp("tree")
    sources = generate_corpus(apollo_spec(scale=0.02)).sources()
    for path, text in sorted(sources.items())[:8]:
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return str(root)


@pytest.fixture(scope="module")
def reference_result(tree):
    """Fault-free reference run; must be requested *before*
    ``inject_crash`` in a test's signature so it is built unpatched."""
    return AssessmentPipeline(PipelineConfig()).run(read_tree(tree))


@pytest.fixture()
def inject_crash(monkeypatch, tree):
    """Patch the pipeline's checker list to include one crasher, armed
    on a deterministic file of the tree."""
    target = sorted(read_tree(tree))[0]
    original = _Pipeline._checkers

    def patched(self):
        checkers = original(self)
        checkers.append(FaultyChecker(FaultPlan([
            Fault("raise", site="check_unit", path=target)])))
        return checkers

    monkeypatch.setattr(_Pipeline, "_checkers", patched)
    return target


class TestDegradedExitCode:
    def test_acceptance_scenario(self, tree, reference_result,
                                 inject_crash, tmp_path, capsys):
        """One crashing checker + one corrupt cache entry: exit 3, the
        other checkers' findings unchanged, outputs name the crasher."""
        store_dir = str(tmp_path / "store")
        json_path = str(tmp_path / "out.json")
        markdown_path = str(tmp_path / "out.md")
        reference = reference_result

        # Warm the cache (degraded warm run), then damage one entry.
        assert main([tree, "--store", store_dir]) == 3
        corrupt_cache_entries(Store(store_dir).object_store(), 1)

        code = main([tree, "--jobs", "2", "--store", store_dir,
                     "--json", json_path, "--markdown", markdown_path])
        assert code == 3
        out = capsys.readouterr().out
        assert "DEGRADED RUN" in out
        assert "fault_injector" in out

        document = json.load(open(json_path))
        assert document["degraded"] is True
        assert document["degradations"][0]["checker"] == "fault_injector"
        # Every real checker's findings match the fault-free run.
        for name, count in reference.to_dict()[
                "checker_findings"].items():
            assert document["checker_findings"][name] == count, name

        markdown = open(markdown_path).read()
        assert "## Degradations" in markdown
        assert "fault_injector" in markdown
        assert inject_crash in markdown  # the crashed file is named

    def test_strict_aborts_with_original_exception(self, tree,
                                                   inject_crash):
        with pytest.raises(FaultInjected):
            main([tree, "--strict"])

    def test_strict_parallel_aborts_too(self, tree, inject_crash):
        with pytest.raises(FaultInjected):
            main([tree, "--strict", "--jobs", "2"])

    def test_bad_task_timeout_exits_2(self, tree, capsys):
        assert main([tree, "--task-timeout", "0"]) == 2
        assert capsys.readouterr().err == (
            "bad pipeline configuration: task_timeout must be a finite "
            "number of seconds > 0, got 0.0\n")

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_corpus_scale_exits_2(self, capsys, scale):
        assert main(["--corpus", scale]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"cannot generate corpus: scale must be "
                                f"a finite number > 0, got {scale}\n")


class TestFaultFreeByteIdentical:
    def test_clean_run_exits_0_without_degradation_output(self, tree,
                                                          capsys):
        assert main([tree]) == 0
        out = capsys.readouterr().out
        assert "DEGRADED" not in out

    def test_strict_flag_is_inert_on_clean_runs(self, tree, capsys):
        assert main([tree]) == 0
        default_out = capsys.readouterr().out
        assert main([tree, "--strict"]) == 0
        assert capsys.readouterr().out == default_out

    def test_clean_json_and_markdown_carry_no_degradation_keys(
            self, tree, tmp_path, capsys):
        from repro.core.markdown import render_markdown
        result = AssessmentPipeline(PipelineConfig()).run(
            read_tree(tree))
        assert not result.degraded
        assert "degraded" not in result.to_dict()
        assert "degradations" not in result.to_dict()
        assert "## Degradations" not in render_markdown(result)
        assert "DEGRADED" not in result.render_summary()

    def test_strict_pipeline_result_identical_to_default(self, tree):
        sources = read_tree(tree)
        default = AssessmentPipeline(PipelineConfig()).run(sources)
        strict = AssessmentPipeline(
            PipelineConfig(strict=True)).run(sources)
        assert default.to_dict() == strict.to_dict()
        assert default.render_summary() == strict.render_summary()
