"""Shared report fixtures: one model per expensive ingredient."""

import pytest

from repro.core import assess_sources
from repro.dnn.minic_yolo import run_yolo_coverage
from repro.report import build_report_model

#: A tree whose assessment carries both active and deviation-suppressed
#: findings — the suppression-mapping cases need both kinds.
DEVIATION_TREE = {
    "perception/dev.cc": (
        "int g_counter = 0;"
        "  // DEVIATION(GV.mutable_global: legacy telemetry counter)\n"
        "int plain_global = 1;\n"
        "int Compute(int value) {\n"
        "  if (value < 0) { return 0; }\n"
        "  return value;\n"
        "}\n"
    ),
}


@pytest.fixture(scope="session")
def report_model(small_corpus, small_assessment):
    """The full corpus model — no coverage, no ledger, no tracer."""
    return build_report_model(small_assessment, small_corpus.sources())


@pytest.fixture(scope="session")
def deviation_model():
    result = assess_sources(DEVIATION_TREE)
    return build_report_model(result, DEVIATION_TREE)


@pytest.fixture(scope="session")
def yolo_coverage():
    return run_yolo_coverage()


@pytest.fixture(scope="session")
def coverage_model(small_corpus, small_assessment, yolo_coverage):
    return build_report_model(small_assessment, small_corpus.sources(),
                              coverage=yolo_coverage)
