"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
from summary import percentile  # noqa: E402

from repro.core import pipeline, parallel  # noqa: E402
from repro.core.cache import CACHE_MISS, MemoryCache  # noqa: E402
from repro.core.pipeline import AssessmentPipeline, assess_sources  # noqa
from repro.corpus import apollo_spec, generate_corpus  # noqa: E402
from repro.lang import cppmodel, lexer  # noqa: E402
from repro.store.objects import ObjectStore  # noqa: E402

TINY = generate_corpus(apollo_spec(scale=0.02, seed=3)).sources()


class PercentileTest(unittest.TestCase):

    def test_p90_of_100_has_ten_beyond(self):
        value, beyond = percentile(range(1, 101), 90)
        self.assertEqual((value, beyond), (90, 10))

    def test_p90_of_50_has_five_beyond(self):
        value, beyond = percentile(list(range(50, 0, -1)), 90)
        self.assertEqual((value, beyond), (45, 5))

    def test_median_rank_and_edges(self):
        self.assertEqual(percentile([3.0], 50), (3.0, 0))
        self.assertEqual(percentile([1, 2, 3, 4], 100), (4, 0))
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1], 0)


class HostSpeedTest(unittest.TestCase):

    def test_correction_scales_with_the_probe(self):
        nominal = hostspeed.CHUNK_NOMINAL_S * 4
        self.assertAlmostEqual(hostspeed.corrected(2.0, nominal, 4), 2.0)
        self.assertAlmostEqual(hostspeed.corrected(2.0, 2 * nominal, 4), 1.0)

    def test_probe_takes_time(self):
        self.assertGreater(hostspeed.probe(2), 0.0)


class WrapperTest(unittest.TestCase):

    def setUp(self):
        self.originals = {
            "key_for": ObjectStore.__dict__["key_for"],
            "get": ObjectStore.__dict__["get"],
            "memory_get": MemoryCache.__dict__["get"],
            "parse": pipeline.parse_translation_unit,
            "tokenize": cppmodel.tokenize,
            "run_tasks": pipeline.run_tasks,
            "run": AssessmentPipeline.__dict__["run"],
        }
        self.recorder = layers.Recorder()
        self.patches = layers.install(self.recorder)
        self.addCleanup(self.patches.restore)
        scratch = tempfile.TemporaryDirectory()
        self.addCleanup(scratch.cleanup)
        self.scratch = scratch.name

    def test_staticmethod_keeps_its_kind(self):
        self.assertIsInstance(ObjectStore.__dict__["key_for"],
                              staticmethod)
        store = ObjectStore(self.scratch)
        by_instance = store.key_for("t", "a.cc", "int x;")
        self.assertEqual(by_instance,
                         ObjectStore.key_for("t", "a.cc", "int x;"))
        self.assertEqual(self.recorder.calls["cache_key"], 2)

    def test_store_and_memory_cache_are_counted(self):
        store = ObjectStore(self.scratch)
        memory = MemoryCache()
        for cache in (store, memory):
            self.assertIs(cache.get("k" * 64), CACHE_MISS)
            self.assertTrue(cache.put("k" * 64, {"v": 1}))
            self.assertEqual(cache.get("k" * 64), {"v": 1})
        self.assertEqual(self.recorder.calls["store_get"], 4)
        self.assertEqual(self.recorder.calls["store_put"], 2)
        self.assertEqual(self.recorder.counts["store_hits"], 2)

    def test_every_binding_is_patched_and_restored(self):
        self.assertIsNot(pipeline.parse_translation_unit,
                         self.originals["parse"])
        self.assertIs(pipeline.parse_translation_unit,
                      parallel.parse_translation_unit)
        self.assertIsNot(cppmodel.tokenize, self.originals["tokenize"])
        self.patches.restore()
        self.assertIs(ObjectStore.__dict__["key_for"],
                      self.originals["key_for"])
        self.assertIs(ObjectStore.__dict__["get"], self.originals["get"])
        self.assertIs(MemoryCache.__dict__["get"],
                      self.originals["memory_get"])
        self.assertIs(pipeline.parse_translation_unit,
                      self.originals["parse"])
        self.assertIs(lexer.tokenize, self.originals["tokenize"])
        self.assertIs(cppmodel.tokenize, self.originals["tokenize"])
        self.assertIs(pipeline.run_tasks, self.originals["run_tasks"])
        self.assertIs(AssessmentPipeline.__dict__["run"],
                      self.originals["run"])

    def test_traced_result_equals_untraced(self):
        traced = gate.fingerprint(assess_sources(TINY))
        self.patches.restore()
        plain = gate.fingerprint(assess_sources(TINY))
        self.assertEqual(traced, plain)
        self.assertEqual(self.recorder.calls["scan"], len(TINY))
        self.assertGreater(self.recorder.counts["lex_tokens"], 0)
        self.assertGreater(self.recorder.self_time["finish.unit_design"], 0)


class GateTest(unittest.TestCase):

    def test_dropped_finding_is_rejected(self):
        result = assess_sources(TINY)
        reference = gate.digest(gate.fingerprint(result))
        report = next(report for report in result.reports.values()
                      if report.findings)
        report.findings.pop()
        out = {"digest": gate.digest(gate.fingerprint(result)),
               "degraded": False, "cache": None}
        self.assertIn("differs", gate.assessment_problem(out, reference))
        out["digest"] = reference
        self.assertEqual(gate.assessment_problem(out, reference), "")

    def test_anchor_failures(self):
        self.assertEqual(gate.anchor_failures(
            {"casts": 1539, "observations": 11, "non_compliant": 11}), [])
        self.assertEqual(len(gate.anchor_failures(
            {"casts": 1400, "observations": 10, "non_compliant": 7})), 3)

    def test_degraded_serve_reply_counts_as_failed(self):
        tally = gate.Tally()
        good = {"ok": True, "degraded": False, "cache": {"misses": 2}}
        degraded = dict(good, degraded=True)
        tally.record(gate.reply_problem(good, gate.EDIT_MISSES), "edit")
        tally.record(gate.reply_problem(degraded, gate.EDIT_MISSES), "edit")
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(tally.fail_ratio, 0.5)

    def test_wrong_miss_count_and_error_reply_fail(self):
        noop = {"ok": True, "degraded": False, "cache": {"misses": 2}}
        self.assertIn("misses",
                      gate.reply_problem(noop, gate.NOOP_MISSES))
        self.assertIn("not ok", gate.reply_problem(
            {"ok": False, "error": "boom"}, gate.NOOP_MISSES))
        self.assertEqual(gate.reply_problem(noop, None), "")


if __name__ == "__main__":
    unittest.main()
