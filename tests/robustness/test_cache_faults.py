"""Cache corruption recovery and the SourceError pickle round-trip."""

import os
import pickle

from repro.core import AssessmentPipeline, PipelineConfig
from repro.core.cache import CACHE_MISS
from repro.errors import LexError, ParseError, SourceError
from repro.store import ObjectStore
from repro.testing import (
    Fault,
    FaultPlan,
    FaultyChecker,
    corrupt_cache_entries,
    plant_stale_tmp,
    unpicklable_value,
)

from .conftest import assert_others_unchanged


def _tmp_files(root):
    found = []
    for directory, _, names in os.walk(root):
        found.extend(name for name in names if ".tmp." in name)
    return found


class TestCorruptEntries:
    def test_corrupt_entries_recomputed(self, corpus_sources, tmp_path,
                                        benign_result):
        AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)),
            extra_checkers=(FaultyChecker(FaultPlan()),),
        )).run(corpus_sources)
        assert corrupt_cache_entries(ObjectStore(str(tmp_path)), 3) == 3
        cache = ObjectStore(str(tmp_path))
        result = AssessmentPipeline(PipelineConfig(
            cache=cache,
            extra_checkers=(FaultyChecker(FaultPlan()),),
        )).run(corpus_sources)
        assert cache.misses == 3  # exactly the damaged entries
        assert not result.degraded
        assert_others_unchanged(result, benign_result)
        assert result.reports == benign_result.reports

    def test_corrupt_get_is_a_miss(self, tmp_path):
        cache = ObjectStore(str(tmp_path))
        key = cache.key_for("stage:1", "a.cc", "int x;")
        assert cache.put(key, {"value": 1})
        corrupt_cache_entries(cache, 1)
        assert cache.get(key) is CACHE_MISS


class TestPutContainment:
    def test_unpicklable_value_put_fails_cleanly(self, tmp_path):
        cache = ObjectStore(str(tmp_path))
        key = cache.key_for("stage:1", "a.cc", "int x;")
        assert cache.put(key, unpicklable_value()) is False
        assert cache.get(key) is CACHE_MISS
        assert _tmp_files(str(tmp_path)) == []  # temp cleaned up

    def test_recursive_value_put_fails_cleanly(self, tmp_path):
        cache = ObjectStore(str(tmp_path))
        key = cache.key_for("stage:1", "b.cc", "int y;")
        nested = []
        for _ in range(100000):
            nested = [nested]
        assert cache.put(key, nested) is False
        assert _tmp_files(str(tmp_path)) == []

    def test_unpicklable_checker_payload_end_to_end(
            self, corpus_sources, target_path, tmp_path, benign_result):
        """A checker result the cache cannot pickle: the put is
        swallowed, the assessment is complete and undegraded."""
        plan = FaultPlan([Fault("unpicklable", site="check_unit",
                                path=target_path)])
        result = AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(str(tmp_path)),
            extra_checkers=(FaultyChecker(plan),))).run(corpus_sources)
        assert not result.degraded
        assert_others_unchanged(result, benign_result)
        assert _tmp_files(str(tmp_path)) == []


class TestStaleTempSweep:
    def test_stale_temps_swept_on_first_write(self, tmp_path):
        cache = ObjectStore(str(tmp_path))
        stale = plant_stale_tmp(cache, 3)
        live = os.path.join(str(tmp_path), "00",
                            f"live.pkl.tmp.{os.getpid()}")
        with open(live, "wb") as handle:
            handle.write(b"concurrent writer")
        cache.put(cache.key_for("stage:1", "a.cc", "int x;"), 1)
        for path in stale:
            assert not os.path.exists(path)
        assert os.path.exists(live)  # a live writer's temp survives

    def test_sweep_stale_counts(self, tmp_path):
        cache = ObjectStore(str(tmp_path))
        plant_stale_tmp(cache, 2)
        assert cache.sweep_stale() == 2
        assert cache.sweep_stale() == 0


class TestSourceErrorPickle:
    def test_round_trip_preserves_location(self):
        error = ParseError("unexpected token", "pkg/a.cc", 12, 4)
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is ParseError
        assert (clone.filename, clone.line, clone.column) == \
            ("pkg/a.cc", 12, 4)
        assert str(clone) == str(error)  # no doubled location prefix
        assert clone.message == "unexpected token"

    def test_round_trip_all_subclasses_and_defaults(self):
        for exc_type in (SourceError, LexError, ParseError):
            error = exc_type("boom")
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is exc_type
            assert str(clone) == "boom"
            assert clone.filename == "<memory>"

    def test_double_pickle_stable(self):
        error = LexError("bad char", "x.cu", 3, 9)
        once = pickle.loads(pickle.dumps(error))
        twice = pickle.loads(pickle.dumps(once))
        assert str(twice) == str(error) == "x.cu:3:9: bad char"

    def test_parse_error_survives_result_cache(self, tmp_path):
        cache = ObjectStore(str(tmp_path))
        from repro.core.parallel import ParseOutcome
        error = ParseError("bad decl", "m/z.cc", 7, 2)
        key = cache.key_for("parse-test:1", "m/z.cc", "source")
        assert cache.put(key, ParseOutcome("m/z.cc", error=error))
        outcome = cache.get(key)
        assert str(outcome.error) == "m/z.cc:7:2: bad decl"
        assert outcome.error.line == 7
