"""Telemetry for the assessment stack: tracing, metrics, profiling.

The observability subsystem instrumentation contract:

* every instrumented layer takes an optional :class:`Tracer` and
  defaults to :data:`NULL_TRACER`, so telemetry is strictly opt-in and
  zero-cost (and output byte-identical) when disabled;
* spans follow a small taxonomy (``pipeline`` > ``parse`` >
  ``parse_file``, ``checkers`` > ``checker``, ``kernel_launch``, ...)
  documented in DESIGN.md;
* numbers land in the tracer's :class:`MetricsRegistry` under dotted
  names (``pipeline.units_parsed``, ``checker.findings``,
  ``gpu.kernel_launches``) with Prometheus-style labels.

Exporters render the recorded trace as a human span tree, a Chrome
``trace_event`` JSON document, or Prometheus text.
"""

from .export import (
    chrome_trace,
    render_prometheus,
    render_span_tree,
    trace_document,
)
from .log import LEVELS, NULL_LOG, BufferLog, EventLog, NullLog
from .profile import (
    hotspots,
    render_hotspots,
    render_profile,
    render_self_time,
    self_time_by_name,
    top_spans,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from .span import Span
from .tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "BufferLog",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "LEVELS",
    "MetricsRegistry",
    "NullLog",
    "NullMetricsRegistry",
    "NULL_LOG",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace",
    "hotspots",
    "render_hotspots",
    "render_profile",
    "render_prometheus",
    "render_self_time",
    "render_span_tree",
    "self_time_by_name",
    "top_spans",
    "trace_document",
]
