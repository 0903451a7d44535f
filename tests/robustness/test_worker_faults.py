"""Worker robustness: a dead, hung, raising, or unpicklable-result
worker costs a serial re-run of its chunk, never the run."""

import os
import time

import pytest

from repro.checkers.base import Checker, CheckerReport
from repro.core import AssessmentPipeline, PipelineConfig
from repro.core.parallel import run_tasks
from repro.obs import Tracer
from repro.testing import (
    Fault,
    FaultPlan,
    FaultyChecker,
    unpicklable_value,
)

from .conftest import assert_others_unchanged

#: Recorded at import; worker processes inherit it via fork, letting
#: task functions distinguish "in the parent" from "in a worker".
_MAIN_PID = os.getpid()


def _die_on_marked(task):
    marked, value = task
    if marked and os.getpid() != _MAIN_PID:
        os._exit(9)  # hard kill: no exception, no cleanup
    return value * 2


def _slow_in_pool(task):
    marked, value = task
    if marked and os.getpid() != _MAIN_PID:
        time.sleep(0.5)  # "hang" long past the deadline, pool-side only
    return value * 2


def _always_raise(task):
    raise ValueError(f"task {task} is broken")


def _unpicklable_on_marked(task):
    marked, value = task
    if marked:
        return unpicklable_value()
    return value * 2


class TestRunTasksFaults:
    def test_dead_worker_falls_back_serially(self):
        tasks = [(False, 1), (True, 2), (False, 3), (False, 4)]
        tracer = Tracer()
        results = run_tasks(_die_on_marked, tasks, jobs=2,
                            executor="process", metrics=tracer.metrics)
        assert results == [2, 4, 6, 8]
        metrics = tracer.metrics
        assert metrics.counter("parallel.serial_fallbacks",
                               executor="process").value >= 1
        assert metrics.counter("parallel.task_retries",
                               executor="process").value >= 1

    def test_hung_task_times_out_and_recovers(self):
        tasks = [(True, 1), (False, 2), (False, 3)]
        tracer = Tracer()
        started = time.monotonic()
        results = run_tasks(_slow_in_pool, tasks, jobs=2,
                            executor="process", timeout=0.05,
                            metrics=tracer.metrics)
        assert results == [2, 4, 6]
        # The run must not have waited out the full 0.5 s hang.
        assert time.monotonic() - started < 0.45
        assert tracer.metrics.counter("parallel.task_timeouts",
                                      executor="process").value >= 1
        assert tracer.metrics.counter("parallel.serial_fallbacks",
                                      executor="process").value >= 1

    def test_task_exception_reraised_from_serial_rerun(self):
        """The pool's one failure rule: a raising task is counted, then
        re-run serially, and its genuine exception surfaces from there."""
        tracer = Tracer()
        with pytest.raises(ValueError, match="is broken"):
            run_tasks(_always_raise, [1, 2], jobs=2, executor="process",
                      metrics=tracer.metrics)
        assert tracer.metrics.counter("parallel.task_errors",
                                      executor="process").value >= 1

    def test_unpicklable_result_recomputed_in_parent(self):
        tasks = [(False, 1), (True, 2), (False, 3)]
        tracer = Tracer()
        results = run_tasks(_unpicklable_on_marked, tasks, jobs=2,
                            executor="process", metrics=tracer.metrics)
        assert results[0] == 2 and results[2] == 6
        # The marked task's value was recomputed in-process, so the
        # genuinely unpicklable object exists — it just never crossed
        # a process boundary.
        assert hasattr(results[1], "acquire")
        assert tracer.metrics.counter("parallel.task_errors",
                                      executor="process").value >= 1

    def test_no_counters_without_faults(self):
        tracer = Tracer()
        results = run_tasks(_die_on_marked,
                            [(False, 1), (False, 2)], jobs=2,
                            executor="process", metrics=tracer.metrics)
        assert results == [2, 4]
        assert tracer.metrics.counter("parallel.serial_fallbacks",
                                      executor="process").value == 0


class TestPipelineWorkerDeath:
    def test_killed_checker_worker_degrades_not_aborts(
            self, corpus_sources, target_path, benign_result):
        """A checker that kills its worker process outright: today that
        is a BrokenProcessPool aborting the run.  Now the chunk is
        recomputed serially; the exit fault re-fires in the parent as a
        contained WorkerExit crash, so the run completes degraded."""
        plan = FaultPlan([Fault("exit", site="check_unit",
                                path=target_path)])
        tracer = Tracer()
        result = AssessmentPipeline(PipelineConfig(
            jobs=2, tracer=tracer,
            extra_checkers=(FaultyChecker(plan),))).run(corpus_sources)
        assert result.degraded
        assert result.crashes[0].exc_type == "WorkerExit"
        assert_others_unchanged(result, benign_result)
        assert tracer.metrics.counter("parallel.worker_deaths",
                                      executor="process").value >= 1
        assert tracer.metrics.counter("parallel.serial_fallbacks",
                                      executor="process").value >= 1

    def test_hung_checker_recovered_by_timeout(self, corpus_sources,
                                               target_path,
                                               benign_result):
        plan = FaultPlan([Fault("hang", site="check_unit",
                                path=target_path, seconds=0.4)])
        tracer = Tracer()
        result = AssessmentPipeline(PipelineConfig(
            jobs=2, task_timeout=0.05, tracer=tracer,
            extra_checkers=(FaultyChecker(plan),))).run(corpus_sources)
        # A hang only delays: the serial re-run completes cleanly (its
        # copy of the plan sleeps once more, then returns), so full
        # results, zero degradation.
        assert not result.degraded
        assert_others_unchanged(result, benign_result)
        assert tracer.metrics.counter("parallel.task_timeouts",
                                      executor="process").value >= 1


class UnpicklableChecker(Checker):
    """A benign per-unit checker that holds a lambda, so no task that
    carries it can be pickled for a worker process."""

    name = "unpicklable"
    version = "unpicklable:1"

    def __init__(self) -> None:
        self.make_report = lambda: CheckerReport(checker=self.name)

    def check_unit(self, unit):
        return self.make_report()


class TestUnpicklableChecker:
    def test_every_task_recomputed_serially(self, corpus_sources):
        """Where a thread pool once shared the checker, a process pool
        cannot ship it: every task falls back to the parent, and the
        run still equals the serial one, undegraded."""
        serial = AssessmentPipeline(PipelineConfig(
            extra_checkers=(UnpicklableChecker(),))).run(corpus_sources)
        tracer = Tracer()
        pooled = AssessmentPipeline(PipelineConfig(
            jobs=2, tracer=tracer,
            extra_checkers=(UnpicklableChecker(),))).run(corpus_sources)
        assert pooled.to_dict() == serial.to_dict()
        assert not pooled.degraded
        metrics = tracer.metrics
        tasks = 2
        assert metrics.counter("parallel.task_errors",
                               executor="process").value == tasks
        assert metrics.counter("parallel.serial_fallbacks",
                               executor="process").value == tasks
