"""--watch semantics: incremental re-assessment and diff streaming."""

import os

from repro.serve import AssessmentServer, encode_reply, finding_diff, \
    watch_events

from .conftest import CLEAN, GOTO, plain, write


def run_watch(server, root, edits, iterations=None):
    """Drive watch_events with scripted between-poll edits."""
    script = iter(edits)

    def scripted_sleep(_interval):
        try:
            next(script)()
        except StopIteration:
            pass

    # iterations=0 means "until interrupted", so a scripted run always
    # polls at least once past its last edit
    return list(watch_events(
        server, root,
        iterations=(iterations if iterations is not None
                    else max(1, len(edits))),
        interval=0.01, sleep=scripted_sleep))


class TestWatchLoop:
    def test_baseline_event_comes_first(self, tree):
        events = run_watch(AssessmentServer(tree), tree, [])
        assert [event["event"] for event in events] == ["baseline"]
        assert events[0]["iteration"] == 0
        assert events[0]["files"] == 2

    def test_no_change_no_event(self, tree):
        events = run_watch(AssessmentServer(tree), tree,
                           [lambda: None, lambda: None])
        assert len(events) == 1  # baseline only

    def test_edit_streams_update_with_both_diff_layers(self, tree):
        events = run_watch(
            AssessmentServer(tree), tree,
            [lambda: write(tree, "clean.cpp", GOTO + CLEAN)])
        assert [event["event"] for event in events] == \
            ["baseline", "update"]
        update = events[1]
        assert update["delta"]["changed"] == ["clean.cpp"]
        assert "UD9.goto" in update["finding_diff"]["rules_changed"]
        # every streamed finding concerns the edited file (the clean
        # one's old findings moved lines, so they churn; dirty.cpp's
        # untouched findings must not appear)
        assert all("clean.cpp" in finding
                   for finding in update["finding_diff"]["new"])
        assert all("clean.cpp" in finding
                   for finding in update["finding_diff"]["fixed"])
        assert "improved" in update["diff"]  # verdict-level rollup

    def test_update_event_bytes_are_plain_json(self, tree):
        events = run_watch(
            AssessmentServer(tree), tree,
            [lambda: write(tree, "clean.cpp", GOTO + CLEAN)])
        assert [event["event"] for event in events] == \
            ["baseline", "update"]
        for event in events:
            assert encode_reply(event) == plain(event)

    def test_update_computes_its_finding_diff_once(self, tree,
                                                   monkeypatch):
        from repro.serve import server as server_module
        from repro.serve import stream as stream_module
        calls = []

        def counted(before, after):
            calls.append(1)
            return finding_diff(before, after)

        for module in (server_module, stream_module):
            monkeypatch.setattr(module, "finding_diff", counted)
        server = AssessmentServer(tree)
        events = run_watch(
            server, tree,
            [lambda: write(tree, "clean.cpp", GOTO + CLEAN)])
        assert len(calls) == 1
        update = events[1]
        assert update["finding_diff"] == finding_diff(
            server.previous[tree], server.results[tree])

    def test_update_reuses_the_unchanged_files_cache(self, tree):
        server = AssessmentServer(tree)
        events = run_watch(
            server, tree,
            [lambda: write(tree, "clean.cpp", GOTO + CLEAN)])
        baseline, update = events
        per_file = baseline["cache"]["puts"] // baseline["files"]
        assert update["cache"]["misses"] == per_file
        assert update["cache"]["hits"] == per_file

    def test_identical_rewrite_streams_nothing(self, tree):
        path = os.path.join(tree, "clean.cpp")

        def rewrite_identical():
            write(tree, "clean.cpp", CLEAN)
            stat = os.stat(path)
            os.utime(path, ns=(stat.st_atime_ns,
                               stat.st_mtime_ns + 1_000_000))

        events = run_watch(AssessmentServer(tree), tree,
                           [rewrite_identical])
        assert len(events) == 1

    def test_file_removal_streams_fixed_findings(self, tree):
        events = run_watch(
            AssessmentServer(tree), tree,
            [lambda: os.remove(os.path.join(tree, "dirty.cpp"))])
        update = events[1]
        assert update["delta"]["removed"] == ["dirty.cpp"]
        assert update["finding_diff"]["new"] == []
        assert any("dirty.cpp" in finding
                   for finding in update["finding_diff"]["fixed"])

    def test_new_file_streams_its_findings(self, tree):
        events = run_watch(
            AssessmentServer(tree), tree,
            [lambda: write(tree, "born.cpp", GOTO)])
        update = events[1]
        assert update["delta"]["added"] == ["born.cpp"]
        assert any("born.cpp" in finding
                   for finding in update["finding_diff"]["new"])

    def test_tree_emptying_degrades_the_iteration_not_the_loop(
            self, tmp_path):
        root = tmp_path / "solo"
        root.mkdir()
        write(root, "only.cpp", CLEAN)
        root = str(root)
        server = AssessmentServer(root)
        events = run_watch(
            server, root,
            [lambda: os.remove(os.path.join(root, "only.cpp")),
             lambda: write(root, "only.cpp", GOTO)])
        kinds = [event["event"] for event in events]
        assert kinds == ["baseline", "error", "update"]
        assert events[1]["degraded"] is True
        assert events[2]["degraded"] is False


class TestFindingDiff:
    def test_self_diff_is_empty(self, tree):
        server = AssessmentServer(tree)
        server.assess(tree)
        result = server.results[os.path.abspath(tree)]
        assert finding_diff(result, result) == \
            {"new": [], "fixed": [], "rules_changed": []}

    def test_duplicate_findings_diff_as_multisets(self):
        from types import SimpleNamespace

        from repro.checkers.base import Finding

        def result(*counts):
            finding = Finding(rule="M1.1", message="dup",
                              filename="a.cc", line=3)
            return SimpleNamespace(reports={
                "style": SimpleNamespace(findings=[finding] * counts[0]),
            })

        diff = finding_diff(result(1), result(3))
        # byte-identical findings are a multiset: 1 -> 3 copies means
        # exactly 2 new, not "already present, nothing changed"
        assert len(diff["new"]) == 2
        assert diff["fixed"] == []
        assert diff["rules_changed"] == ["M1.1"]
        shrink = finding_diff(result(3), result(1))
        assert len(shrink["fixed"]) == 2
