"""A folded ``merge_units`` equals the fold-free merge.

The fold copies the previous report's unchanged units' findings,
suppressed findings and crashes as slices and puts the changed files'
new lists in their place; the result, findings order included, must be
exactly what merging every unit's report from nothing gives — without
reading the unchanged units' reports at all.
"""

from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from repro.checkers.base import (
    Checker,
    CheckerCrash,
    CheckerReport,
    DeferredList,
    Finding,
    ProjectDelta,
)


class Plain(Checker):
    """The base per-unit merge and nothing else."""

    name = "plain"


def unit_report(path, findings, suppressed=0, crashes=0, tag=0):
    """A per-unit report of ``path`` with the given list sizes."""
    report = CheckerReport(checker=Plain.name)
    for index in range(findings):
        report.findings.append(Finding(
            rule=f"R{(index + tag) % 3}", message=f"v{tag}",
            filename=path, line=index + 1))
    for index in range(suppressed):
        report.suppressed.append(Finding(
            rule="S", message=f"v{tag}", filename=path, line=index + 1))
    for index in range(crashes):
        report.crashes.append(CheckerCrash(
            checker=Plain.name, stage="check_unit", exc_type="ValueError",
            message=f"v{tag}", path=path))
    report.stats["functions"] = findings + tag
    if findings:
        report.stats["flagged"] = findings
    return report


def merged(units):
    """The fold-free project report of ``{path: report}``."""
    paths = sorted(units)
    return Plain().finish_from_units(
        [SimpleNamespace(filename=path) for path in paths],
        [units[path] for path in paths])


def unread():
    raise AssertionError("a fold read the per-unit reports")


def folded(before, after):
    """``after``'s project report, folded from ``before``'s."""
    previous = merged(before)
    changed = sorted(path for path in before.keys() | after.keys()
                     if before.get(path) is not after.get(path))
    fold = ProjectDelta(
        previous,
        [(SimpleNamespace(filename=path), before[path])
         for path in changed if path in before],
        [(SimpleNamespace(filename=path), after[path])
         for path in changed if path in after],
        sorted(before))
    return Plain().finish_from_units(
        [SimpleNamespace(filename=path) for path in sorted(after)],
        DeferredList(unread), fold=fold)


def assert_same(got, want):
    assert got.findings == want.findings
    assert got.suppressed == want.suppressed
    assert got.crashes == want.crashes
    assert got.stats == want.stats
    assert got.partials.layout == want.partials.layout
    assert got.partials.rule_counts == want.partials.rule_counts
    assert got.partials.unit_findings == want.partials.unit_findings


BEFORE = {"a.cc": unit_report("a.cc", 2),
          "b.cc": unit_report("b.cc", 0, suppressed=1),
          "c.cc": unit_report("c.cc", 3, crashes=1),
          "d.cc": unit_report("d.cc", 1)}


def test_edit_in_the_middle():
    after = dict(BEFORE, **{"b.cc": unit_report("b.cc", 4, tag=1)})
    assert_same(folded(BEFORE, after), merged(after))


def test_add_first_between_and_last():
    after = dict(BEFORE, **{"0.cc": unit_report("0.cc", 1, tag=2),
                            "bb.cc": unit_report("bb.cc", 2, 1, tag=2),
                            "z.cc": unit_report("z.cc", 3, tag=2)})
    assert_same(folded(BEFORE, after), merged(after))


def test_remove_first_and_last():
    after = {path: report for path, report in BEFORE.items()
             if path not in ("a.cc", "d.cc")}
    assert_same(folded(BEFORE, after), merged(after))


def test_remove_everything():
    assert_same(folded(BEFORE, {}), merged({}))


PATHS = [f"m/{name}.cc" for name in "abcdefgh"]

reports = st.builds(
    lambda findings, suppressed, crashes, tag: (findings, suppressed,
                                                crashes, tag),
    st.integers(0, 3), st.integers(0, 2), st.integers(0, 1),
    st.integers(0, 5))
trees = st.dictionaries(st.sampled_from(PATHS), reports, max_size=8)


@given(before=trees, after=trees, keep=st.sets(st.sampled_from(PATHS)))
def test_any_change_folds_to_the_fold_free_merge(before, after, keep):
    old = {path: unit_report(path, *sizes) for path, sizes in before.items()}
    new = {path: unit_report(path, *sizes) for path, sizes in after.items()}
    # the kept paths present on both sides are unchanged, by identity
    new.update({path: old[path] for path in keep
                if path in old and path in new})
    assert_same(folded(old, new), merged(new))
