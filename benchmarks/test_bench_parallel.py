"""Benchmark: the fused single-sweep engine vs the pre-engine baseline.

Measures the assessment wall time serially, at jobs=2/4 (worker
processes), and with a warm content-addressed cache; asserts the
engine's three contracts — every configuration is result-identical to
the serial run, a warm-cache re-assessment beats the cold serial
sweep, and the cold serial sweep beats the recorded pre-engine
baseline for the same corpus scale by at least
``REPRO_BENCH_MIN_SPEEDUP`` — and, with ``REPRO_BENCH_RECORD=1``,
appends a data point to ``BENCH_parallel.json`` at the repo root (a plain
run leaves the tracked file untouched).

The default corpus scale is 1.0 (the full synthetic Apollo corpus,
~1.4k files / ~230k LOC) so recorded points are comparable with
``baseline_pre_engine.json``; CI and quick local sweeps override with
``REPRO_BENCH_SCALE=0.05``.  Each point records ``cpus`` and
``usable_cpus`` (the affinity set the pool can actually use): the
jobs=2/4 points can only beat serial with more than one usable CPU,
and small corpora pay the pool start-up and IPC cost.
"""

import json
import os
import statistics
import time

from repro.core import AssessmentPipeline, PipelineConfig, worker_count
from repro.corpus import apollo_spec, generate_corpus
from repro.store import ObjectStore

#: Corpus scale; override with REPRO_BENCH_SCALE for quicker sweeps.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
#: Small corpora are noisy, so take the median of three; the full-scale
#: corpus is stable enough that one timed round per configuration keeps
#: the benchmark under a minute.
ROUNDS = 3 if SCALE <= 0.1 else 1
#: Required cold-serial improvement over the recorded pre-engine
#: baseline.  The engine lands ~3.4-3.8x on the reference box; 2.0
#: leaves headroom for slower or contended CI runners.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))
#: Append the run's point to BENCH_FILE only when REPRO_BENCH_RECORD=1.
RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"

_HERE = os.path.dirname(__file__)
BENCH_FILE = os.path.join(_HERE, os.pardir, "BENCH_parallel.json")
BASELINE_FILE = os.path.join(_HERE, "baseline_pre_engine.json")


def _median_seconds(callable_, rounds=ROUNDS):
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def _pre_engine_seconds(scale):
    """The recorded pre-engine cold-serial time for ``scale``, or None."""
    try:
        with open(BASELINE_FILE, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    for point in document.get("points", []):
        if point.get("corpus_scale") == scale:
            return point.get("serial_seconds")
    return None


class TestParallelBenchmark:
    def test_parallel_and_warm_cache(self, tmp_path):
        sources = generate_corpus(apollo_spec(scale=SCALE)).sources()

        def run(**config):
            return AssessmentPipeline(PipelineConfig(**config)).run(sources)

        reference = run()  # warmup + the identity baseline
        serial_seconds = _median_seconds(run)

        parallel_seconds = {}
        for jobs in (2, 4):
            result = run(jobs=jobs)
            assert result.to_dict() == reference.to_dict(), jobs
            parallel_seconds[jobs] = _median_seconds(
                lambda: run(jobs=jobs))

        cache_dir = str(tmp_path / "cache")
        cold_cache = ObjectStore(cache_dir)
        cold_start = time.perf_counter()
        cold_result = run(cache=cold_cache)
        cold_seconds = time.perf_counter() - cold_start
        assert cold_result.to_dict() == reference.to_dict()

        warm_result = run(cache=ObjectStore(cache_dir))
        assert warm_result.to_dict() == reference.to_dict()
        warm_seconds = _median_seconds(
            lambda: run(cache=ObjectStore(cache_dir)))

        pre_engine = _pre_engine_seconds(SCALE)
        engine_speedup = (pre_engine / serial_seconds
                          if pre_engine else None)

        print(f"\nserial {serial_seconds * 1000:.1f}ms, "
              f"jobs=2 {parallel_seconds[2] * 1000:.1f}ms, "
              f"jobs=4 {parallel_seconds[4] * 1000:.1f}ms, "
              f"cold-cache {cold_seconds * 1000:.1f}ms, "
              f"warm-cache {warm_seconds * 1000:.1f}ms"
              + (f", vs pre-engine {engine_speedup:.2f}x"
                 if engine_speedup else ""))

        _record_bench_point(len(sources), serial_seconds,
                            parallel_seconds, cold_seconds, warm_seconds,
                            pre_engine)
        assert warm_seconds < serial_seconds, (
            f"warm cache ({warm_seconds:.3f}s) must beat the cold "
            f"serial sweep ({serial_seconds:.3f}s)")
        if pre_engine is not None:
            assert serial_seconds * MIN_SPEEDUP <= pre_engine, (
                f"cold serial ({serial_seconds:.3f}s) regressed: needs "
                f">= {MIN_SPEEDUP:.1f}x over the pre-engine baseline "
                f"({pre_engine:.3f}s at scale {SCALE}), got "
                f"{pre_engine / serial_seconds:.2f}x")


def _record_bench_point(file_count, serial_seconds, parallel_seconds,
                        cold_seconds, warm_seconds, pre_engine_seconds):
    if not RECORD:
        return
    document = {"benchmark": "parallel_incremental", "points": []}
    if os.path.exists(BENCH_FILE):
        try:
            with open(BENCH_FILE, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            pass
    point = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "corpus_scale": SCALE,
        "files": file_count,
        "cpus": os.cpu_count(),
        "usable_cpus": worker_count(0),
        "executor": "process",
        "serial_seconds": round(serial_seconds, 6),
        "jobs2_seconds": round(parallel_seconds[2], 6),
        "jobs4_seconds": round(parallel_seconds[4], 6),
        "cold_cache_seconds": round(cold_seconds, 6),
        "warm_cache_seconds": round(warm_seconds, 6),
        "warm_cache_speedup": round(serial_seconds / warm_seconds, 4),
    }
    if pre_engine_seconds:
        point["pre_engine_serial_seconds"] = pre_engine_seconds
        point["engine_speedup"] = round(
            pre_engine_seconds / serial_seconds, 4)
    document.setdefault("points", []).append(point)
    with open(BENCH_FILE, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
