"""The pipeline options ``repro-assess`` and ``repro-serve`` share:
declared once, validated once by :class:`PipelineConfig`, and rejected
with the same single stderr line (exit 2) by both front ends."""

import io

import pytest

from repro.core.cli import build_parser as assess_parser
from repro.core.cli import main as assess_main
from repro.serve.cli import build_parser as serve_parser
from repro.serve.cli import main as serve_main

SHARED = ("--enable", "--disable", "--jobs", "--strict", "--task-timeout",
          "--log-json", "--log-level")


@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "unit.cpp").write_text(
        "int add(int a, int b) { return a + b; }\n")
    return str(root)


def declared(parser):
    return {action.option_strings[0]: (action.option_strings, action.help,
                                       action.default, action.type,
                                       action.choices)
            for action in parser._actions
            if action.option_strings and action.option_strings[0] in SHARED}


def test_both_front_ends_declare_the_same_shared_options():
    assess = declared(assess_parser())
    assert sorted(assess) == sorted(SHARED)
    assert assess == declared(serve_parser())


def run_both(monkeypatch, capsys, tree, flags):
    """Both front ends' (exit code, stdout, stderr) for ``flags``."""
    assess_code = assess_main(["--corpus", "0.02", *flags])
    assess_out = capsys.readouterr()
    monkeypatch.setattr("sys.stdin",
                        io.StringIO('{"verb":"assess","id":1}\n'))
    serve_code = serve_main([tree, *flags])
    serve_out = capsys.readouterr()
    return ((assess_code, assess_out.out, assess_out.err),
            (serve_code, serve_out.out, serve_out.err))


@pytest.mark.parametrize("flags, line", [
    (["--jobs", "2", "--task-timeout", "nan"],
     "bad pipeline configuration: task_timeout must be a finite number "
     "of seconds > 0, got nan"),
    (["--task-timeout", "inf"],
     "bad pipeline configuration: task_timeout must be a finite number "
     "of seconds > 0, got inf"),
    (["--task-timeout", "0"],
     "bad pipeline configuration: task_timeout must be a finite number "
     "of seconds > 0, got 0.0"),
    (["--jobs", "-1"],
     "bad pipeline configuration: jobs must be >= 0, got -1"),
    (["--log-level", "debug"],
     "--log-level has no effect without --log-json"),
], ids=["timeout-nan", "timeout-inf", "timeout-0", "jobs-negative",
        "log-level-alone"])
def test_bad_options_exit_2_with_one_identical_line(monkeypatch, capsys,
                                                    tree, flags, line):
    assess, serve = run_both(monkeypatch, capsys, tree, flags)
    assert assess == serve == (2, "", line + "\n")


def test_bad_configuration_creates_no_event_log(monkeypatch, capsys,
                                                tree, tmp_path):
    log = tmp_path / "events.jsonl"
    assess, serve = run_both(
        monkeypatch, capsys, tree,
        ["--log-json", str(log), "--task-timeout", "nan"])
    assert assess[0] == serve[0] == 2
    assert not log.exists()


def test_unknown_rule_glob_reported_identically(monkeypatch, capsys, tree):
    assess, serve = run_both(monkeypatch, capsys, tree,
                             ["--enable", "NO_SUCH_RULE*"])
    assert assess == serve
    assert assess[0] == 2 and assess[1] == ""
    assert assess[2].count("\n") == 1
