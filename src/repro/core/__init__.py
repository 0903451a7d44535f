"""The assessment pipeline: the paper's methodology as one call."""

from .assessment import AssessmentResult
from .cache import CACHE_MISS, MemoryCache
from .config import PipelineConfig
from .diff import (
    AssessmentDiff,
    AssessmentView,
    VerdictTransition,
    assessment_view_from_dict,
    diff_assessments,
    gap_reduction,
    load_assessment_view,
)
from .markdown import render_markdown
from .remediation import (
    Effort,
    RemediationItem,
    effort_histogram,
    plan_remediation,
    render_plan,
)
from .parallel import chunk_evenly, worker_count
from .pipeline import AssessmentPipeline, assess_corpus, assess_sources

__all__ = [
    "CACHE_MISS",
    "MemoryCache",
    "chunk_evenly",
    "worker_count",
    "AssessmentDiff",
    "AssessmentView",
    "VerdictTransition",
    "assessment_view_from_dict",
    "diff_assessments",
    "gap_reduction",
    "load_assessment_view",
    "Effort",
    "RemediationItem",
    "effort_histogram",
    "plan_remediation",
    "render_markdown",
    "render_plan",
    "AssessmentPipeline",
    "AssessmentResult",
    "PipelineConfig",
    "assess_corpus",
    "assess_sources",
]
