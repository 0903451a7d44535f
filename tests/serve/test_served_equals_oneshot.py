"""Served equals one-shot after random edit sequences.

``repro-serve`` folds every project-level part from the root's previous
result, rebuilding it only from the files that changed.  Whatever edits
arrive, each reply — and the result behind it, part by part — must equal
a fresh one-shot assessment of the edited tree.
"""

import copy
import os
import shutil
import tempfile
from typing import Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkers.base import Checker, CheckerReport, Finding
from repro.core import AssessmentPipeline, PipelineConfig
from repro.corpus.writer import read_tree
from repro.rules import RuleProfile, Severity
from repro.serve import AssessmentServer, encode_reply
from repro.store import Store

from .conftest import plain
from .test_server import stable

#: Every edit kind the fold has a distinct path for; "spawn",
#: "wide_class" and "complex"/"simplify" give the architecture runs
#: (AR6/AR7, AR3) and the evidence's complexity figures something to
#: fold.
EDITS = ("comment", "add_function", "remove_function", "cycle", "uncycle",
         "move", "add_file", "add_module", "delete_file", "include",
         "deviation", "revert", "rename", "spawn", "wide_class", "complex",
         "simplify")

PROFILES = {
    "default": None,
    "profiled": RuleProfile(disable=("UD9.*",),
                            severities={"UD10.*": Severity.MINOR}),
}


class Tree:
    """A small multi-module source tree, edited through a model."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.stamp = 0
        self.serial = 0
        #: path -> {"lead", "includes", "functions", "comments",
        #: "deviations", "classes", "complex"}
        self.files: Dict[str, dict] = {}
        #: path -> every model written there, oldest first
        self.history: Dict[str, List[dict]] = {}
        for module in ("alpha", "beta", "gamma"):
            for index in range(2):
                self.files[f"{module}/f{index}.cc"] = self._fresh(
                    [(f"{module}_{index}_{k}", []) for k in range(2)])
        self.files["alpha/f0.cc"]["functions"][0] = ("alpha_0_0",
                                                     ["beta_0_0"])
        self.files["beta/f0.cc"]["functions"][0] = ("beta_0_0",
                                                    ["alpha_0_0"])
        for path in self.files:
            self._write(path)

    @staticmethod
    def _fresh(functions: List[Tuple[str, List[str]]]) -> dict:
        return {"lead": 0, "includes": [], "functions": functions,
                "comments": [], "deviations": [], "classes": [],
                "complex": []}

    def _name(self) -> str:
        self.serial += 1
        return f"fn_{self.serial}"

    def render(self, path: str) -> str:
        model = self.files[path]
        lines = list(model["includes"]) + [""] * model["lead"]
        for name, calls in model["functions"]:
            body = " ".join(f"a = {callee}(a);" for callee in calls)
            line = (f"int {name}(int a) {{ if (a) {{ return 0; }} {body} "
                    f"goto done; done: return a; }}")
            for rule, rationale in model["deviations"]:
                if rule.startswith(name + ":"):
                    line += f" // DEVIATION({rule.split(':')[1]}{rationale})"
            lines.append(line)
        for name in model["classes"]:
            methods = " ".join(f"int m{k}(int a);" for k in range(21))
            lines.append(f"class {name} {{ public: {methods} }};")
        for name in model["complex"]:
            branches = " ".join(f"if (a > {k}) {{ a++; }}"
                                for k in range(11))
            lines.append(f"int {name}(int a) {{ {branches} return a; }}")
        lines.extend(model["comments"])
        return "\n".join(lines) + "\n"

    def _write(self, path: str) -> None:
        full = os.path.join(self.root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as handle:
            handle.write(self.render(path))
        self.history.setdefault(path, []).append(
            copy.deepcopy(self.files[path]))
        # distinct mtimes, however fast the edits come
        self.stamp += 1
        os.utime(full, ns=(self.stamp * 10 ** 9, self.stamp * 10 ** 9))

    def functions(self) -> List[Tuple[str, int]]:
        return [(path, index) for path in sorted(self.files)
                for index in range(len(self.files[path]["functions"]))]

    def apply(self, kind: str, pick: int) -> None:
        paths = sorted(self.files)
        path = paths[pick % len(paths)]
        model = self.files[path]
        functions = self.functions()
        if kind == "comment":
            model["comments"].append(f"// note {pick}")
        elif kind == "add_function":
            callee = (functions[pick % len(functions)]
                      if functions else None)
            calls = ([self.files[callee[0]]["functions"][callee[1]][0]]
                     if callee else [])
            model["functions"].append((self._name(), calls))
        elif kind == "remove_function":
            if not model["functions"]:
                return
            model["functions"].pop(pick % len(model["functions"]))
        elif kind == "cycle":
            if len(functions) < 2:
                return
            (first_path, first), (second_path, second) = (
                functions[pick % len(functions)],
                functions[(pick // 7 + 1) % len(functions)])
            a = self.files[first_path]["functions"]
            b = self.files[second_path]["functions"]
            a[first] = (a[first][0], a[first][1] + [b[second][0]])
            b[second] = (b[second][0], b[second][1] + [a[first][0]])
            self._write(second_path)
            path = first_path
        elif kind == "uncycle":
            calling = [(p, i) for p, i in functions
                       if self.files[p]["functions"][i][1]]
            if not calling:
                return
            path, index = calling[pick % len(calling)]
            name, calls = self.files[path]["functions"][index]
            self.files[path]["functions"][index] = (name, calls[1:])
        elif kind == "move":
            model["lead"] += 1 + pick % 3
        elif kind in ("add_file", "add_module"):
            module = (path.split("/")[0] if kind == "add_file"
                      else f"mod{pick % 4}")
            path = f"{module}/n{self.serial}.cc"
            callee = functions[pick % len(functions)] if functions else None
            self.files[path] = self._fresh([(self._name(), [
                self.files[callee[0]]["functions"][callee[1]][0]]
                if callee else [])])
        elif kind == "revert":
            # back to an earlier text: the file's old keys come back
            earlier = self.history[path][pick % len(self.history[path])]
            self.files[path] = model = copy.deepcopy(earlier)
        elif kind == "rename":
            # the same text under a new path, moved on disk
            self.serial += 1
            module = (path.split("/")[0] if pick % 2
                      else f"mod{pick % 4}")
            target = f"{module}/r{self.serial}.cc"
            self.files[target] = self.files.pop(path)
            self.history[target] = self.history.pop(path)
            os.makedirs(os.path.join(self.root, module), exist_ok=True)
            os.rename(os.path.join(self.root, path),
                      os.path.join(self.root, target))
            return
        elif kind == "delete_file":
            if len(self.files) <= 2:
                return
            del self.files[path]
            os.remove(os.path.join(self.root, path))
            return
        elif kind == "include":
            target = f"{paths[(pick // 3) % len(paths)].split('/')[0]}/x.h"
            if target in " ".join(model["includes"]):
                model["includes"] = [line for line in model["includes"]
                                     if target not in line]
            else:
                model["includes"].append(f'#include "{target}"')
        elif kind == "spawn":
            if not model["functions"]:
                return
            index = pick % len(model["functions"])
            name, calls = model["functions"][index]
            callee = ("pthread_create", "signal")[pick // 2 % 2]
            model["functions"][index] = (name, calls + [callee])
        elif kind == "wide_class":
            model["classes"].append(f"Wide{self._name()}")
        elif kind == "complex":
            model["complex"].append(self._name())
        elif kind == "simplify":
            if not model["complex"]:
                return
            model["complex"].pop(pick % len(model["complex"]))
        elif kind == "deviation":
            if not model["functions"]:
                return
            name = model["functions"][pick % len(model["functions"])][0]
            rule = ("UD10.recursion", "UD9.goto", "UD1.multi_exit",
                    "AR6.scheduling")[pick % 4]
            rationale = ": reviewed" if pick % 3 else ""
            model["deviations"].append((f"{name}:{rule}", rationale))
        self._write(path)


def oneshot(root: str, config: PipelineConfig):
    return AssessmentPipeline(config).run(read_tree(root))


def assert_reply_equal(reply, root: str, expected, config):
    """``reply`` equals a fresh daemon's first reply under the same
    ``config``, and its findings body the one-shot result's findings,
    formatted directly."""
    fresh = AssessmentServer(root, config).assess(root)
    assert encode_reply(reply) == plain(reply)
    assert stable(reply) == stable(fresh)
    assert reply["findings"] == {
        name: sorted(finding.located() for finding in report.findings)
        for name, report in sorted(expected.reports.items())}


def assert_parts_equal(served, expected):
    assert served.to_dict() == expected.to_dict()
    assert list(served.reports) == list(expected.reports)
    for name, report in expected.reports.items():
        got = served.reports[name]
        assert got.findings == report.findings, name
        assert got.suppressed == report.suppressed, name
        assert got.crashes == report.crashes, name
        assert got.stats == report.stats, name
    assert served.modules == expected.modules
    assert list(served.evidence.keys()) == list(expected.evidence.keys())
    for key in expected.evidence.keys():
        assert served.evidence.get(key) == expected.evidence.get(key), key
    assert served.tables == expected.tables
    assert served.observations == expected.observations


edit_sequences = st.lists(
    st.tuples(st.sampled_from(EDITS), st.integers(0, 10 ** 4)),
    min_size=1, max_size=8)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=edit_sequences, profile=st.sampled_from(sorted(PROFILES)))
def test_served_equals_oneshot_after_every_edit(edits, profile):
    scratch = tempfile.mkdtemp()
    try:
        tree = Tree(os.path.join(scratch, "tree"))
        config = PipelineConfig(rules=PROFILES[profile])
        server = AssessmentServer(tree.root, config)
        server.assess(tree.root)
        for kind, pick in edits:
            tree.apply(kind, pick)
            reply = server.assess(tree.root)
            expected = oneshot(tree.root, config)
            assert_reply_equal(reply, tree.root, expected, config)
            assert_parts_equal(server.results[tree.root], expected)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=edit_sequences)
def test_store_backed_server_equals_oneshot(edits):
    scratch = tempfile.mkdtemp()
    try:
        tree = Tree(os.path.join(scratch, "tree"))
        store = Store(os.path.join(scratch, "store"))
        config = PipelineConfig()
        server = AssessmentServer(tree.root, config, store=store)
        server.assess(tree.root)
        for kind, pick in edits:
            tree.apply(kind, pick)
            reply = server.assess(tree.root)
            expected = oneshot(tree.root, config)
            assert_reply_equal(reply, tree.root, expected, config)
            assert_parts_equal(server.results[tree.root], expected)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_the_seed_tree_has_a_cycle_and_edits_refold():
    """The model's starting tree already recurses across modules, and an
    edit is folded rather than recomputed from nothing."""
    scratch = tempfile.mkdtemp()
    try:
        tree = Tree(os.path.join(scratch, "tree"))
        server = AssessmentServer(tree.root)
        first = server.assess(tree.root)
        assert any("UD10.recursion" in finding
                   for finding in first["findings"]["unit_design"])
        tree.apply("comment", 0)
        server.assess(tree.root)
        stats = server.handle({"verb": "stats"})
        assert stats["project_parts"]["reused"] > 0
        assert stats["project_parts"]["recomputed"] > 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class _FunctionCensus(Checker):
    """A project-level checker with the plain ``check_project(units)``
    signature: it sets no partials, so it is never handed ``fold=``."""

    name = "function_census"

    def check_project(self, units):
        report = CheckerReport(checker=self.name)
        units = list(units)
        for unit in units:
            report.findings.append(Finding(
                rule="test.census",
                message=f"{len(unit.functions)} function(s)",
                filename=unit.filename))
        report.stats["files"] = len(units)
        return report


def test_project_checker_without_fold_refolds_across_an_edit():
    scratch = tempfile.mkdtemp()
    try:
        tree = Tree(os.path.join(scratch, "tree"))
        config = PipelineConfig(extra_checkers=(_FunctionCensus(),))
        server = AssessmentServer(tree.root, config)
        server.assess(tree.root)
        tree.apply("add_function", 0)
        reply = server.assess(tree.root)
        served = server.results[tree.root]
        expected = oneshot(tree.root, config)
        assert not reply["degraded"]
        assert not served.degraded
        assert served.reports["function_census"].partials is None
        assert "3 function(s)" in str(reply["findings"]["function_census"])
        assert_parts_equal(served, expected)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
