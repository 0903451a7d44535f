"""Per-unit summaries: what the store and the project-level stages hold.

Full translation units (token streams included) live only between a
file's parse and its checker sweep; the parse cache entry and every
later stage carry the token-free :class:`~repro.lang.summary.
UnitSummary`.  These tests pin both halves of that contract: no token is
reachable from a stored parse entry, and every consumer of summaries
produces exactly what it produced from full units — down to the
byte-identical result digest across serial, process-pool, cold-store,
warm-store and served runs.
"""

import gc
import hashlib
import json
import types

import pytest

from repro.checkers.architecture import (
    ArchitectureChecker,
    ArchitectureConfig,
)
from repro.checkers.unitdesign import UnitDesignChecker
from repro.core import AssessmentPipeline, PipelineConfig
from repro.core.cache import PARSE_TAG
from repro.core.parallel import ParseOutcome
from repro.corpus import apollo_spec, generate_corpus
from repro.corpus.writer import write_corpus
from repro.lang import (
    TranslationUnit,
    UnitSummary,
    parse_translation_unit,
    summarize_unit,
)
from repro.lang.tokens import Token
from repro.metrics.report import measure_module
from repro.obs import Tracer
from repro.rules import RuleProfile
from repro.serve import AssessmentServer
from repro.store import Store

#: The equivalence corpus scale (every checker statistic non-degenerate).
SCALE = 0.05

_OPAQUE = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.CodeType)


def tokens_reachable(root) -> bool:
    """True when any :class:`Token` is reachable from ``root``."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, Token):
            return True
        stack.extend(gc.get_referents(obj))
    return False


def digest(result) -> str:
    """``to_dict()`` plus every finding, hashed."""
    document = {
        "result": result.to_dict(),
        "findings": {name: [finding.located()
                            for finding in report.findings]
                     for name, report in sorted(result.reports.items())},
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(apollo_spec(scale=SCALE))


@pytest.fixture(scope="module")
def sources(corpus):
    return corpus.sources()


@pytest.fixture(scope="module")
def units(sources):
    return [parse_translation_unit(sources[path], path)
            for path in sorted(sources)]


@pytest.fixture(scope="module")
def serial(sources):
    return AssessmentPipeline(PipelineConfig()).run(sources)


def parse_entries(cache, sources):
    return [cache.get(cache.key_for(PARSE_TAG, path, source))
            for path, source in sorted(sources.items())]


class TestTokenFreeParseEntries:
    def test_stored_parse_entries_hold_summaries_only(self, tmp_path,
                                                      sources):
        store = Store(str(tmp_path / "store"))
        AssessmentPipeline(PipelineConfig(
            cache=store.object_store())).run(sources)
        entries = parse_entries(Store(store.root).object_store(), sources)
        assert len(entries) == len(sources)
        for entry in entries:
            assert isinstance(entry, ParseOutcome)
            assert isinstance(entry.summary, UnitSummary)
            assert getattr(entry, "unit", None) is None
            assert not tokens_reachable(entry), entry.path

    def test_served_memory_cache_holds_summaries_only(self, tmp_path,
                                                      corpus, sources):
        root = str(tmp_path / "tree")
        write_corpus(corpus, root)
        server = AssessmentServer(root)
        assert server.assess(root)["degraded"] is False
        entries = parse_entries(server.cache, sources)
        for entry in entries:
            assert isinstance(entry, ParseOutcome)
            assert isinstance(entry.summary, UnitSummary)
            assert not tokens_reachable(entry), entry.path
        assert not tokens_reachable(server.cache._entries)

    def test_summary_has_no_token_stream(self, units):
        summary = summarize_unit(units[0])
        for name in ("tokens", "code", "body_tokens"):
            with pytest.raises(AttributeError):
                getattr(summary, name)


class TestSummaryUnitEquivalence:
    def test_measure_module(self, sources, units):
        summaries = [summarize_unit(unit) for unit in units]
        assert (measure_module("all", sources, units)
                == measure_module("all", sources, summaries))

    def test_unit_design_project(self, units):
        checker = UnitDesignChecker()
        from_units = checker.check_project(units)
        from_summaries = checker.finish_from_units(
            [summarize_unit(unit) for unit in units],
            [checker.check_unit(unit) for unit in units])
        assert from_units == from_summaries
        assert from_units.stats["recursive_functions"] > 0

    def test_architecture_project(self, units):
        # limits tight enough that every project-level rule fires
        checker = ArchitectureChecker(ArchitectureConfig(
            max_component_loc=500, max_interface_methods=1,
            max_module_fanout=0, min_cohesion=0.99))
        from_units = checker.check_project(units)
        from_summaries = checker.check_project(
            [summarize_unit(unit) for unit in units])
        assert from_units == from_summaries
        assert {"AR2.component_size", "AR3.interface_size",
                "AR4.cohesion"} <= set(from_units.count_by_rule())

    def test_digest_identical_across_paths(self, tmp_path, corpus,
                                           sources, serial):
        reference = digest(serial)
        process = AssessmentPipeline(PipelineConfig(
            jobs=2)).run(sources)
        assert digest(process) == reference

        store_root = str(tmp_path / "store")
        cold_cache = Store(store_root).object_store()
        cold = AssessmentPipeline(PipelineConfig(
            cache=cold_cache)).run(sources)
        assert cold_cache.hits == 0
        assert digest(cold) == reference
        warm_cache = Store(store_root).object_store()
        warm = AssessmentPipeline(PipelineConfig(
            cache=warm_cache)).run(sources)
        assert warm_cache.misses == 0
        assert digest(warm) == reference

        root = str(tmp_path / "tree")
        write_corpus(corpus, root)
        server = AssessmentServer(root)
        reply = server.assess(root)
        assert digest(server.results[root]) == reference
        assert reply["findings"] == {
            name: sorted(finding.located() for finding in report.findings)
            for name, report in sorted(serial.reports.items())}

    def test_parse_hit_check_miss_reparses(self, tmp_path, sources):
        profile = RuleProfile(disable=("SG.*",))
        uncached = AssessmentPipeline(PipelineConfig(
            rules=profile)).run(sources)
        store_root = str(tmp_path / "store")
        AssessmentPipeline(PipelineConfig(
            cache=Store(store_root).object_store())).run(sources)

        tracer = Tracer()
        cache = Store(store_root).object_store()
        changed = AssessmentPipeline(PipelineConfig(
            cache=cache, rules=profile, tracer=tracer)).run(sources)
        metrics = tracer.metrics
        files = len(sources)
        assert metrics.counter_value("cache.misses", stage="parse") == 0
        assert metrics.counter_value("cache.hits", stage="parse") == files
        assert metrics.counter_value("cache.misses", stage="check") == files
        assert metrics.counter_value("pipeline.units_reparsed") == files
        assert digest(changed) == digest(uncached)


class TestUnitCarriesItsFacts:
    def test_lines_and_deviations_counted_at_build(self):
        source = ("int g;  // DEVIATION(GV.mutable_global: legacy)\n"
                  "/* two\n   lines */\n\nint f() { return g; }\n")
        unit = parse_translation_unit(source, "a.cc")
        assert isinstance(unit, TranslationUnit)
        assert unit.lines.total == 5
        assert unit.lines.blank == 1
        assert [deviation.rule for deviation in unit.deviations] == \
            ["GV.mutable_global"]
        summary = summarize_unit(unit)
        assert summary.lines == unit.lines
        assert summary.deviations is unit.deviations
        assert [function.name for function in summary.functions] == ["f"]
        assert len(summary.mutable_globals) == 1

    def test_summary_pickles_small(self, units):
        import pickle
        unit = max(units, key=lambda candidate: len(candidate.tokens))
        assert (len(pickle.dumps(summarize_unit(unit)))
                < len(pickle.dumps(unit)) / 5)
