"""Micro-benchmark: NullTracer instrumentation must be within noise.

The telemetry PR threaded spans and counters through every pipeline
stage.  With the default :data:`~repro.obs.NULL_TRACER` those are shared
no-op objects, so the instrumented pipeline must run at the same speed
as a hand-rolled un-instrumented equivalent of the same stages.  This
benchmark measures both, asserts the ratio, and, with
``REPRO_BENCH_RECORD=1``, appends a data point to ``BENCH_pipeline.json``
at the repo root for trend tracking (a plain run leaves the tracked file
untouched).
"""

import json
import os
import statistics
import time

from repro.checkers.architecture import ArchitectureChecker
from repro.checkers.casts import CastChecker
from repro.checkers.defensive import DefensiveChecker
from repro.checkers.globals_check import GlobalVariableChecker
from repro.checkers.gpu_subset import GpuSubsetChecker
from repro.checkers.misra import MisraChecker
from repro.checkers.naming import NamingChecker
from repro.checkers.style import StyleChecker
from repro.checkers.unitdesign import UnitDesignChecker
from repro.core import AssessmentPipeline, PipelineConfig
from repro.core.config import PipelineConfig as _Config
from repro.corpus import apollo_spec, generate_corpus
from repro.iso26262.compliance import ComplianceEngine
from repro.iso26262.observations import generate_observations
from repro.lang.cppmodel import parse_translation_unit
from repro.metrics.complexity import summarize_units
from repro.lang.lines import EMPTY_LINE_COUNTS
from repro.metrics.report import ModuleMetrics
from repro.obs import Tracer

SCALE = 0.02
ROUNDS = 5
#: NullTracer spans are shared no-op context managers; anything past
#: this ratio means the disabled path grew real work.
MAX_OVERHEAD_RATIO = 1.25
#: Append the run's point to BENCH_FILE only when REPRO_BENCH_RECORD=1.
RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"

BENCH_FILE = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_pipeline.json")


def _baseline_assess(sources):
    """The pipeline's stages with zero telemetry plumbing (pre-PR shape)."""
    config = _Config()
    units = []
    for path in sorted(sources):
        units.append(parse_translation_unit(sources[path], path))
    by_module = {}
    for unit in units:
        by_module.setdefault(config.module_of(unit.filename),
                             []).append(unit)
    modules = []
    for name, members in sorted(by_module.items()):
        lines = EMPTY_LINE_COUNTS
        for unit in members:
            lines = lines + unit.lines
        modules.append(ModuleMetrics(
            name=name, lines=lines, file_count=len(members),
            complexity=summarize_units(members),
            class_count=sum(len(u.classes) for u in members),
            global_count=sum(len(u.mutable_globals) for u in members)))
    checkers = [MisraChecker(), CastChecker(), DefensiveChecker(),
                GlobalVariableChecker(), NamingChecker(),
                StyleChecker(config.style),
                UnitDesignChecker(),
                ArchitectureChecker(config.architecture, config.module_of),
                GpuSubsetChecker()]
    reports = {checker.name: checker.check_project(units)
               for checker in checkers}
    pipeline = AssessmentPipeline(config)
    evidence = pipeline._assemble_evidence(modules, reports)
    tables = ComplianceEngine(
        target_asil=config.target_asil,
        thresholds=config.thresholds).assess_all(evidence)
    return tables, generate_observations(evidence)


def _median_seconds(callable_, rounds=ROUNDS):
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


class TestPipelineOverhead:
    def test_null_tracer_overhead_within_noise(self):
        sources = generate_corpus(apollo_spec(scale=SCALE)).sources()
        pipeline = AssessmentPipeline()  # NullTracer default
        # interleaved warmup so both paths see warm caches
        _baseline_assess(sources)
        pipeline.run(sources)

        baseline = _median_seconds(lambda: _baseline_assess(sources))
        instrumented = _median_seconds(lambda: pipeline.run(sources))
        ratio = instrumented / baseline
        print(f"\nbaseline {baseline * 1000:.1f}ms, "
              f"NullTracer {instrumented * 1000:.1f}ms, "
              f"ratio {ratio:.3f}")

        _record_bench_point(len(sources), baseline, instrumented, ratio)
        assert ratio <= MAX_OVERHEAD_RATIO, (
            f"NullTracer instrumentation overhead {ratio:.2f}x exceeds "
            f"{MAX_OVERHEAD_RATIO}x")

    def test_active_tracer_still_reasonable(self):
        # An *enabled* tracer may cost more, but must stay in the same
        # order of magnitude — spans are per file/checker, not per token.
        sources = generate_corpus(apollo_spec(scale=SCALE)).sources()
        null_pipeline = AssessmentPipeline()
        null_pipeline.run(sources)
        null_time = _median_seconds(lambda: null_pipeline.run(sources),
                                    rounds=3)

        def traced_run():
            AssessmentPipeline(PipelineConfig(tracer=Tracer())).run(sources)

        traced_run()
        traced_time = _median_seconds(traced_run, rounds=3)
        assert traced_time / null_time <= 2.0


def _record_bench_point(file_count, baseline, instrumented, ratio):
    if not RECORD:
        return
    document = {"benchmark": "pipeline_overhead", "points": []}
    if os.path.exists(BENCH_FILE):
        try:
            with open(BENCH_FILE, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            pass
    document.setdefault("points", []).append({
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "corpus_scale": SCALE,
        "files": file_count,
        "baseline_seconds": round(baseline, 6),
        "null_tracer_seconds": round(instrumented, 6),
        "overhead_ratio": round(ratio, 4),
    })
    with open(BENCH_FILE, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
