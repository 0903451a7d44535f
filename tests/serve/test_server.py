"""AssessmentServer: verbs, hot-cache guarantees, containment boundary."""

import io
import json
import os
import pickle
import queue
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MemoryCache, PipelineConfig
from repro.rules import REGISTRY, RuleProfile
from repro.serve import AssessmentServer, encode_reply, run_stdio, \
    run_tcp
from repro.serve.protocol import canonical
from repro.serve.server import _Column
from repro.store import Store
from repro.testing import Fault, FaultPlan, FaultyChecker

from .conftest import CLEAN, GOTO, plain, write

#: Reply keys that legitimately differ between two identical assesses.
VOLATILE = ("seconds", "cache", "run", "id")


def stable(reply):
    return encode_reply({key: value for key, value in reply.items()
                         if key not in VOLATILE})


def assess(server, **extra):
    reply = server.handle_line(json.dumps({"id": 1, "verb": "assess",
                                           **extra}))
    assert reply["ok"], reply
    return reply


class TestAssessVerb:
    def test_first_assess_reports_findings(self, tree):
        reply = assess(AssessmentServer(tree))
        assert reply["files"] == 2
        assert reply["units"] == 2
        assert any("UD9.goto" in finding
                   for finding in reply["findings"]["unit_design"])
        assert reply["degraded"] is False

    def test_repeat_assess_is_byte_identical_and_all_hits(self, tree):
        """Acceptance pin: an unchanged tree recomputes *nothing* and
        replies byte-identically."""
        server = AssessmentServer(tree)
        first = assess(server)
        second = assess(server)
        assert stable(first) == stable(second)
        assert second["cache"]["misses"] == 0
        assert second["cache"]["puts"] == 0
        assert second["cache"]["hits"] == first["cache"]["puts"]

    def test_single_file_edit_recomputes_only_that_file(self, tree):
        """Acceptance pin: one edited file means exactly one parse and
        one check bundle recomputed; the other file stays cached."""
        server = AssessmentServer(tree)
        first = assess(server)
        per_file = first["cache"]["puts"] // first["files"]
        write(tree, "clean.cpp", GOTO + CLEAN)
        third = assess(server)
        assert third["cache"]["misses"] == per_file
        assert third["cache"]["hits"] == per_file
        assert any("UD9.goto" in finding
                   for finding in third["findings"]["unit_design"])

    def test_single_file_edit_looks_up_only_that_file(self, tree):
        """The untouched file's entries are reused, not looked up; the
        reply still counts them as hits."""
        gets = []

        class Counting(MemoryCache):
            def get(self, key):
                gets.append(key)
                return super().get(key)

        server = AssessmentServer(tree)
        server.cache = Counting()
        first = assess(server)
        per_file = first["cache"]["puts"] // first["files"]
        del gets[:]
        write(tree, "clean.cpp", GOTO + CLEAN)
        edited = assess(server)
        assert len(gets) == per_file
        assert edited["cache"]["hits"] == per_file
        del gets[:]
        assert assess(server)["cache"]["hits"] == per_file * 2
        assert gets == []

    def test_explicit_path_overrides_default_root(self, tree, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        write(other, "only.cpp", CLEAN)
        server = AssessmentServer(tree)
        reply = assess(server, path=str(other))
        assert reply["files"] == 1

    def test_no_root_anywhere_is_a_request_error(self, tree):
        server = AssessmentServer()  # no default root
        reply = server.handle_line('{"verb": "assess"}')
        assert reply["ok"] is False
        assert "no tree to assess" in reply["error"]

    def test_empty_tree_is_a_request_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        server = AssessmentServer(str(empty))
        reply = server.handle_line('{"verb": "assess"}')
        assert reply["ok"] is False
        assert "no C/C++/CUDA sources" in reply["error"]

    @pytest.mark.parametrize("refresh", ["false", [], 0, None])
    def test_non_boolean_refresh_is_a_request_error(self, tree, refresh):
        server = AssessmentServer(tree)
        reply = server.handle_line(json.dumps(
            {"id": 2, "verb": "assess", "refresh": refresh}))
        assert reply["ok"] is False
        assert reply["error"] == "assess refresh must be true or false"
        assert server.handle_line('{"verb": "stats"}')["roots"] == {}

    def test_refresh_false_skips_the_poll(self, tree):
        server = AssessmentServer(tree)
        first = assess(server)
        write(tree, "clean.cpp", GOTO + CLEAN)
        stale = assess(server, refresh=False)
        assert stale["cache"]["misses"] == 0
        assert stable(stale) == stable(first)
        assert assess(server, refresh=True)["cache"]["misses"] > 0

    def test_profile_shapes_served_findings(self, tree):
        profile = RuleProfile(disable=("UD9.*",))
        server = AssessmentServer(tree, PipelineConfig(rules=profile))
        reply = assess(server)
        assert not any("UD9.goto" in finding
                       for findings in reply["findings"].values()
                       for finding in findings)


class TestContainment:
    def test_checker_crash_degrades_one_reply_not_the_daemon(self, tree):
        plan = FaultPlan(faults=[Fault("raise", path="dirty.cpp")])
        server = AssessmentServer(tree, PipelineConfig(
            extra_checkers=(FaultyChecker(plan),)))
        reply = assess(server)
        assert reply["degraded"] is True
        assert any("fault_injector" in note
                   for note in reply["degradations"])
        # the plan is spent: the daemon keeps serving, now cleanly
        write(tree, "dirty.cpp", GOTO * 2)
        again = assess(server)
        assert again["degraded"] is False
        stats = server.handle_line('{"verb": "stats"}')
        assert stats["degraded_replies"] == 1
        assert stats["requests"] == 3

    def test_corrupt_cache_entry_degrades_nothing_fatal(self, tree,
                                                        tmp_path):
        server = AssessmentServer(tree, store=Store(str(tmp_path / "s")))
        cache = server.cache
        first = assess(server)
        # rot every on-disk entry, then force re-reads
        for _, path in cache.entries():
            with open(path, "wb") as handle:
                handle.write(b"not a pickle")
        second = assess(server)
        assert second["ok"] is True
        assert second["cache"]["corrupt_entries"] > 0
        assert stable(first) == stable(second)  # recomputed, same answer

    def test_unexpected_server_bug_is_an_error_reply(self, tree,
                                                     monkeypatch):
        server = AssessmentServer(tree)

        def explode(self, root, refresh=True):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(AssessmentServer, "assess", explode)
        reply = server.handle_line('{"id": 4, "verb": "assess"}')
        assert reply["ok"] is False
        assert reply["degraded"] is True
        assert "wires crossed" in reply["error"]
        # daemon is still up
        assert server.handle_line('{"verb": "ping"}')["ok"] is True

    def test_malformed_line_is_an_error_reply(self, tree):
        server = AssessmentServer(tree)
        reply = server.handle_line("}{")
        assert reply["ok"] is False
        assert server.handle_line('{"verb": "ping"}')["pong"] is True


class TestDiffVerb:
    def test_diff_needs_two_assessments(self, tree):
        server = AssessmentServer(tree)
        reply = server.handle_line('{"verb": "diff"}')
        assert reply["ok"] is False
        assert "nothing assessed yet" in reply["error"]
        assess(server)
        reply = server.handle_line('{"verb": "diff"}')
        assert reply["ok"] is False
        assert "needs two" in reply["error"]

    def test_diff_names_exactly_the_changed_rules(self, tree):
        server = AssessmentServer(tree)
        assess(server)
        write(tree, "clean.cpp",
              "int g() { int x; goto end; end: return x; }\n")
        assess(server)
        reply = server.handle_line('{"verb": "diff"}')
        assert reply["ok"] is True
        changed = reply["findings"]["rules_changed"]
        assert "UD9.goto" in changed
        assert "UD3.uninitialized" in changed
        # every streamed finding concerns the edited file only
        assert all("clean.cpp" in finding
                   for finding in reply["findings"]["new"])
        assert all("clean.cpp" in finding
                   for finding in reply["findings"]["fixed"])
        assert {"before", "after", "reduction"} <= \
            set(reply["gap_reduction"])

    def test_identical_reassess_diffs_empty(self, tree):
        server = AssessmentServer(tree)
        assess(server)
        assess(server)
        reply = server.handle_line('{"verb": "diff"}')
        assert reply["findings"] == {"new": [], "fixed": [],
                                     "rules_changed": []}
        assert reply["verdicts"]["transitions"] == []

    def test_diff_against_baseline_document(self, tree, tmp_path):
        server = AssessmentServer(tree)
        assess(server)
        document = server.results[os.path.abspath(tree)].to_dict()
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document), encoding="utf-8")
        reply = server.handle_line(json.dumps(
            {"verb": "diff", "baseline": str(baseline)}))
        assert reply["ok"] is True
        assert reply["verdicts"]["improved"] == 0
        assert reply["verdicts"]["regressed"] == 0
        assert reply["gap_reduction"]["reduction"] == 0

    def test_bad_baseline_is_a_request_error(self, tree, tmp_path):
        server = AssessmentServer(tree)
        assess(server)
        reply = server.handle_line(json.dumps(
            {"verb": "diff", "baseline": str(tmp_path / "absent.json")}))
        assert reply["ok"] is False


class TestOtherVerbs:
    def test_ping(self, tree):
        reply = AssessmentServer(tree).handle_line('{"verb": "ping"}')
        assert reply["pong"] is True

    def test_rules_lists_the_registry(self, tree):
        reply = AssessmentServer(tree).handle_line('{"verb": "rules"}')
        assert reply["count"] == len(REGISTRY)
        assert all(rule["enabled"] for rule in reply["rules"])

    def test_rules_reflect_profile(self, tree):
        server = AssessmentServer(tree, PipelineConfig(
            rules=RuleProfile(disable=("UD9.*",))))
        reply = server.handle_line('{"verb": "rules"}')
        disabled = [rule["id"] for rule in reply["rules"]
                    if not rule["enabled"]]
        assert disabled and all(r.startswith("UD9.") for r in disabled)

    def test_stats_counts_and_cache_backend(self, tree):
        server = AssessmentServer(tree)
        assess(server)
        reply = server.handle_line('{"verb": "stats"}')
        assert reply["assessments"] == 1
        assert reply["cache"]["backend"] == "MemoryCache"
        assert reply["roots"][os.path.abspath(tree)]["files"] == 2

    def test_stats_latency_and_project_parts(self, tree):
        server = AssessmentServer(tree)
        assess(server)
        assess(server)
        write(tree, "clean.cpp", GOTO + CLEAN)
        assess(server)
        server.handle_line('{"verb": "ping"}')
        reply = server.handle_line('{"verb": "stats"}')
        latency = reply["latency"]
        assert set(latency) == {"assess", "ping"}
        assert latency["assess"]["count"] == 3
        for verb in latency.values():
            assert 0 <= verb["p50_ms"] <= verb["p90_ms"] <= verb["max_ms"]
        # served in-process: no transport encoded a reply
        assert reply["reply_encode"] == {"count": 0, "p50_ms": 0.0,
                                         "p90_ms": 0.0, "max_ms": 0.0}
        parts = reply["project_parts"]
        # cold: everything computed; no-op: everything shared; edit:
        # the edited module, every checker report and the verdicts
        # recomputed
        assert parts["recomputed"] > 0 and parts["reused"] > 0
        assert reply["project_reuses"] == 1


class TestMemoryCacheRetention:
    @staticmethod
    def edit(tree, relative, text, stamp):
        path = write(tree, relative, text)
        # distinct mtimes, however fast the edits come
        os.utime(path, ns=(stamp * 10**9, stamp * 10**9))

    def test_edits_do_not_grow_the_cache(self, tree):
        """Each edit supersedes one parse and one checker entry; the
        daemon keeps only what the latest assessment touched."""
        server = AssessmentServer(tree)
        first = assess(server)
        files = first["files"]
        assert len(server.cache) == 2 * files
        for index in range(50):
            self.edit(tree, "clean.cpp",
                      CLEAN + f"int edit_{index} = {index};\n", index + 1)
            reply = assess(server)
            assert reply["cache"]["misses"] == 2
            assert len(server.cache) == 2 * files
            assert server.cache.referenced <= set(server.cache._entries)
            noop = assess(server)
            assert noop["cache"]["misses"] == 0
            assert noop["cache"]["puts"] == 0

    def test_entries_of_every_root_survive(self, tree, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        write(other, "only.cpp", GOTO)
        server = AssessmentServer(tree)
        assess(server)
        assess(server, path=str(other))
        assert len(server.cache) == 2 * 3
        self.edit(tree, "clean.cpp", GOTO + CLEAN, 1)
        assess(server)
        assert len(server.cache) == 2 * 3
        again = assess(server, path=str(other))
        assert again["cache"]["misses"] == 0


class TestProjectReuse:
    """A repeat assess of an unchanged tree shares the previous
    result's project-level stages; anything else recomputes."""

    @staticmethod
    def reuses(server):
        return server.handle_line('{"verb": "stats"}')["project_reuses"]

    def test_reused_noop_equals_a_fresh_daemons_first_reply(self, tree):
        server = AssessmentServer(tree)
        assess(server)
        noop = assess(server)
        assert self.reuses(server) == 1
        assert noop["cache"]["misses"] == 0
        assert stable(noop) == stable(assess(AssessmentServer(tree)))

    def test_diff_after_reused_noop_is_empty(self, tree):
        server = AssessmentServer(tree)
        assess(server)
        assess(server)
        reply = server.handle_line('{"verb": "diff"}')
        assert reply["findings"] == {"new": [], "fixed": [],
                                     "rules_changed": []}
        assert reply["verdicts"]["transitions"] == []

    def test_edit_after_reuse_recomputes(self, tree):
        server = AssessmentServer(tree)
        assess(server)
        assess(server)
        write(tree, "clean.cpp", GOTO + CLEAN)
        edited = assess(server)
        assert self.reuses(server) == 1
        assert any("clean.cpp" in finding and "UD9.goto" in finding
                   for finding in edited["findings"]["unit_design"])
        assert stable(edited) == stable(assess(AssessmentServer(tree)))

    def test_degraded_previous_is_never_reused(self, tree):
        plan = FaultPlan(faults=[Fault("raise", path="dirty.cpp")])
        server = AssessmentServer(tree, PipelineConfig(
            extra_checkers=(FaultyChecker(plan),)))
        assert assess(server)["degraded"] is True
        clean = assess(server)  # same tree; the one-shot plan is spent
        assert clean["degraded"] is False
        assert self.reuses(server) == 0
        assert assess(server)["degraded"] is False
        assert self.reuses(server) == 1


class TestStoreBackedServing:
    def test_each_assess_appends_a_run_record(self, tree, tmp_path):
        store = Store(str(tmp_path / "store"))
        server = AssessmentServer(tree, store=store)
        first = assess(server)
        second = assess(server)
        assert "run" in first and "run" in second
        records = list(store.history().records())
        assert [record.run_id for record in records] == \
            [first["run"], second["run"]]
        # per-request deltas, not process-lifetime totals
        assert records[0].cache["misses"] > 0
        assert records[1].cache["misses"] == 0
        assert records[1].cache["hits"] == records[0].cache["puts"]

    def test_run_record_pins_only_its_own_keys(self, tree, tmp_path):
        """Each served record pins this request's parse and check keys,
        not every key the daemon touched before it."""
        store = Store(str(tmp_path / "store"))
        server = AssessmentServer(tree, store=store)
        assess(server)
        for index in range(3):
            write(tree, "clean.cpp", CLEAN + f"int edit_{index};\n")
            assess(server)
            result = server.results[os.path.abspath(tree)]
            keys = {key for _, parse_key, check_key
                    in result.signature.files
                    for key in (parse_key, check_key)}
            record = list(store.history().records())[-1]
            assert len(keys) == 4
            assert set(record.objects) == keys

    def test_objects_removed_between_requests_are_recomputed(self, tree,
                                                             tmp_path):
        """An on-disk store declines stage-1 reuse, so a ``--store``
        daemon looks every file up: an object removed between requests
        (as gc removes one no run pins any more) is a plain miss,
        recomputed, put back and pinned by the next run record."""
        store = Store(str(tmp_path / "store"))
        server = AssessmentServer(tree, store=store)
        first = assess(server)
        for _, path in server.cache.entries():
            os.remove(path)
        write(tree, "clean.cpp", GOTO + CLEAN)
        second = assess(server)
        per_file = first["cache"]["puts"] // first["files"]
        assert second["cache"]["hits"] == 0
        assert second["cache"]["misses"] == per_file * second["files"]
        assert second["cache"]["puts"] == per_file * second["files"]
        record = list(store.history().records())[-1]
        assert {key for key, _ in server.cache.entries()} == \
            set(record.objects)
        third = assess(server)
        assert third["cache"]["hits"] == per_file * third["files"]
        assert stable(third) == stable(second)

    def test_run_records_show_which_parts_moved(self, tree, tmp_path):
        store = Store(str(tmp_path / "store"))
        server = AssessmentServer(tree, store=store)
        assess(server)
        assess(server)
        write(tree, "clean.cpp", CLEAN + "int edit;\n")
        assess(server)
        cold, noop, edit = (record.parts
                            for record in store.history().records())
        assert cold["files_refolded"] == 0 and cold["parts_reused"] == 0
        assert noop["files_refolded"] == 0
        assert noop["parts_recomputed"] == 0
        assert edit["files_refolded"] == 1
        assert edit["modules_remeasured"] == 1
        assert edit["parts_reused"] == 0  # one module: all parts moved


class TestStdioLoop:
    def test_serves_until_shutdown(self, tree):
        server = AssessmentServer(tree)
        stdin = io.StringIO(
            '{"id": 1, "verb": "ping"}\n'
            "\n"  # blank lines are ignored
            '{"id": 2, "verb": "shutdown"}\n'
            '{"id": 3, "verb": "ping"}\n')
        stdout = io.StringIO()
        assert run_stdio(server, stdin, stdout) == 2
        lines = stdout.getvalue().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["pong"] is True
        assert json.loads(lines[1])["closing"] is True

    def test_replies_are_plain_json_and_encoding_is_timed(self, tree):
        server = AssessmentServer(tree)
        stdin = io.StringIO(
            '{"id": 1, "verb": "assess"}\n'
            '{"id": 2, "verb": "assess"}\n'
            '{"id": 3, "verb": "stats"}\n')
        stdout = io.StringIO()
        assert run_stdio(server, stdin, stdout) == 3
        lines = stdout.getvalue().splitlines(keepends=True)
        for line in lines:
            assert line == plain(json.loads(line))
        encoded = json.loads(lines[2])["reply_encode"]
        # the stats reply is encoded after it is built
        assert encoded["count"] == 2
        assert 0 <= encoded["p50_ms"] <= encoded["p90_ms"] \
            <= encoded["max_ms"]
        assert server.reply_encode.count == 3


class TestTcpLoop:
    def test_replies_are_plain_json_and_encoding_is_timed(self, tree):
        server = AssessmentServer(tree)
        bound = queue.Queue()
        thread = threading.Thread(
            target=run_tcp, args=(server, "127.0.0.1", 0),
            kwargs={"ready": bound.put}, daemon=True)
        thread.start()
        with socket.create_connection(bound.get(timeout=10),
                                      timeout=30) as connection:
            stream = connection.makefile("rwb")
            lines = []
            for verb in ("assess", "stats", "shutdown"):
                stream.write(json.dumps({"verb": verb}).encode() + b"\n")
                stream.flush()
                lines.append(stream.readline().decode("utf-8"))
        thread.join(timeout=10)
        assert not thread.is_alive()
        for line in lines:
            assert line == plain(json.loads(line))
        assert json.loads(lines[1])["reply_encode"]["count"] == 1
        assert server.reply_encode.count == 3


class TestSplicedWireBytes:
    """The findings body is spliced from kept per-file fragments; the
    reply bytes must still be plain ``json.dumps`` of the reply."""

    @staticmethod
    def served(server):
        reply = assess(server)
        assert encode_reply(reply) == plain(reply)
        return reply

    def test_interleaved_runs(self, tmp_path):
        """``m/x.cc:2.cc``'s findings sort between ``m/x.cc``'s."""
        root = tmp_path / "tree"
        write(root, "m/x.cc", GOTO + CLEAN + GOTO.replace("f(", "h("))
        write(root, "m/x.cc:2.cc", GOTO)
        server = AssessmentServer(str(root))
        located = self.served(server)["findings"]["unit_design"]
        files = [finding.split(":")[1] for finding in located]
        assert files.index("1") < files.index("2.cc") < files.index("3")
        write(root, "m/x.cc:2.cc", GOTO + GOTO.replace("f(", "g("))
        self.served(server)
        self.served(server)  # reused no-op
        write(root, "m/x.cc", CLEAN)
        self.served(server)

    def test_project_finding_inside_a_run(self, tmp_path):
        """A call-graph cycle is found at project level; its finding on
        ``m/a.cc`` line 1 sorts inside ``m/a.cc``'s own run."""
        root = tmp_path / "tree"
        write(root, "m/a.cc",
              "int a1(int a) { goto done; done: return b1(a); }\n"
              "int a2(int a) { if (a) { return 0; } return a; }\n")
        write(root, "m/b.cc", "int b1(int a) { return a1(a); }\n")
        server = AssessmentServer(str(root))
        located = self.served(server)["findings"]["unit_design"]
        cycle = [index for index, finding in enumerate(located)
                 if finding.startswith("m/a.cc:1: [UD10.recursion]")]
        assert cycle and 0 < cycle[0] < len(located) - 1
        assert located[cycle[0] + 1].startswith("m/a.cc:")
        write(root, "m/b.cc", "int b1(int a) { return a1(a) + 1; }\n")
        self.served(server)
        self.served(server)


def merge_runs(runs, fresh):
    """One checker's column built from ``runs`` and sorted ``fresh``
    strings: its strings and its JSON array's elements, comma-separated."""
    column = _Column()
    column.update([], dict(enumerate(runs)), fresh)
    return column.located, column.pieces[:-1]


class TestMergeRuns:
    @given(runs=st.lists(st.lists(st.text("ab:", max_size=3), min_size=1,
                                  max_size=4).map(sorted), max_size=5),
           fresh=st.lists(st.text("ab:", max_size=3),
                          max_size=4).map(sorted))
    def test_merge_equals_a_full_sort(self, runs, fresh):
        kept = [(run[0], run[-1], run, canonical(run)[1:-1])
                for run in runs]
        located, pieces = merge_runs(kept, fresh)
        everything = sorted(fresh + [s for run in runs for s in run])
        assert located == everything
        assert "[" + "".join(pieces) + "]" == canonical(everything)

    def test_apart_runs_are_spliced_whole(self):
        second = ("c", "d", ["c", "d"], '"c","d"')
        first = ("a", "b", ["a", "b"], '"a","b"')
        located, pieces = merge_runs([second, first], ["bb", "e"])
        assert located == ["a", "b", "bb", "c", "d", "e"]
        assert pieces == [first[3], ",", '"bb"', ",", second[3], ",",
                          '"e"']

    def test_runs_sharing_both_ends_are_merged(self):
        run = ("a", "b", ["a", "b"], '"a","b"')
        located, pieces = merge_runs([run, run], [])
        assert located == ["a", "a", "b", "b"]
        assert pieces == ['"a","a","b","b"']


def _run(strings):
    return (strings[0], strings[-1], strings, canonical(strings)[1:-1])


class TestColumn:
    """A checker's column updated around changed runs equals one built
    from nothing, blocks included."""

    strings = st.lists(st.text("ab:", max_size=3), min_size=1,
                       max_size=4).map(sorted)
    states = st.tuples(
        st.dictionaries(st.integers(0, 5), strings, max_size=5),
        st.lists(st.text("ab:", max_size=3), max_size=4).map(sorted))

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(states, min_size=1, max_size=5))
    def test_updates_equal_a_fresh_build(self, steps):
        column = _Column()
        kept = {}
        for version, (runs, fresh) in enumerate(steps):
            # a changed run comes back under a new key, like a bundle's
            runs = {(key, tuple(strings)): strings
                    for key, strings in runs.items()}
            removed = [key for key in kept if key not in runs]
            added = {key: _run(strings) for key, strings in runs.items()
                     if key not in kept}
            column.update(removed, added, fresh)
            kept = runs
            built = _Column()
            built.update([], {key: _run(strings)
                              for key, strings in runs.items()}, fresh)
            everything = sorted(fresh + [string for strings in runs.values()
                                         for string in strings])
            assert column.located == built.located == everything
            assert column.pieces == built.pieces
            assert "[" + "".join(column.pieces[:-1]) + "]" == \
                canonical(everything)
            assert [block[:4] for block in column.blocks] == \
                [block[:4] for block in built.blocks]

    def test_loose_strings_join_a_neighbouring_loose_block(self):
        column = _Column()
        column.update([], {1: _run(["c", "d"])}, ["a"])
        column.update([], {}, ["a", "b"])
        assert column.pieces == ['"a","b"', ",", '"c","d"', ","]

    def test_unchanged_update_keeps_the_lists(self):
        column = _Column()
        column.update([], {1: _run(["a", "b"]), 2: _run(["c"])}, ["bb"])
        located, pieces = column.located, column.pieces
        column.update([], {}, ["bb"])
        assert column.located is located and column.pieces is pieces
