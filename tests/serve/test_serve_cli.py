"""``repro-serve`` CLI: argument validation, stdio mode, watch mode."""

import io
import json
import os

import pytest

from repro.serve.cli import build_parser, main

from .conftest import CLEAN, GOTO, write


def run_stdio_session(monkeypatch, capsys, argv, requests):
    stdin = io.StringIO(
        "".join(json.dumps(request) + "\n" for request in requests))
    monkeypatch.setattr("sys.stdin", stdin)
    code = main(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines()]


class TestArgumentValidation:
    def test_requires_a_tree(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_watch_and_tcp_conflict(self, tree, capsys):
        assert main([tree, "--watch", tree, "--tcp", "h:1"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--interval", "0"),
        ("--iterations", "-1"),
        ("--task-timeout", "0"),
    ])
    def test_rejects_nonpositive_numbers(self, tree, capsys, flags):
        assert main([tree, *flags]) == 2

    def test_bad_tcp_endpoint(self, tree, capsys):
        assert main([tree, "--tcp", "9026"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_unknown_rule_glob(self, tree, capsys):
        assert main([tree, "--enable", "NOPE*"]) == 2
        assert "matches no registered rule" in capsys.readouterr().err

    def test_log_level_requires_log_json(self, tree, capsys):
        assert main([tree, "--log-level", "debug"]) == 2

    def test_executor_flag_removed(self, tree, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([tree, "--executor", "process"])
        assert exit_info.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["src"])
        assert args.interval == 2.0
        assert args.iterations == 0
        assert args.jobs == 1


class TestStdioMode:
    def test_request_reply_session(self, tree, monkeypatch, capsys):
        code, replies = run_stdio_session(
            monkeypatch, capsys, [tree],
            [{"id": 1, "verb": "assess"},
             {"id": 2, "verb": "assess"},
             {"id": 3, "verb": "shutdown"}])
        assert code == 0
        assert len(replies) == 3
        assert replies[0]["ok"] and replies[1]["ok"]
        assert replies[1]["cache"]["misses"] == 0
        assert replies[2]["closing"] is True

    def test_eof_ends_the_session(self, tree, monkeypatch, capsys):
        code, replies = run_stdio_session(
            monkeypatch, capsys, [tree], [{"id": 1, "verb": "ping"}])
        assert code == 0
        assert replies[0]["pong"] is True


class TestWatchMode:
    def test_single_iteration_emits_baseline(self, tree, capsys):
        code = main([tree, "--watch", tree,
                     "--iterations", "1", "--interval", "0.01"])
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert events[0]["event"] == "baseline"
        assert events[0]["total_findings"] > 0

    def test_watch_event_log(self, tree, tmp_path, capsys):
        log = str(tmp_path / "events.jsonl")
        assert main([tree, "--watch", tree, "--iterations", "1",
                     "--interval", "0.01", "--log-json", log]) == 0
        capsys.readouterr()
        assert os.path.exists(log)

    def test_missing_watch_tree_exits_2(self, tmp_path, capsys):
        absent = str(tmp_path / "absent")
        assert main([absent, "--watch", absent,
                     "--iterations", "1", "--interval", "0.01"]) == 2
        assert "does not exist" in capsys.readouterr().err
