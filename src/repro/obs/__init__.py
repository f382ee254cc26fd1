"""Observability: hierarchical span tracing + typed metrics registry.

Two process-global singletons back the instrumentation so subsystems do
not need telemetry objects threaded through their signatures:

- :func:`get_tracer` — a :class:`~repro.obs.tracer.Tracer` recording a
  tree of timed spans (pipeline stages, sweep cells, fuzz seeds).
- :func:`get_registry` — a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters/gauges/histograms with stable dotted names (see
  :data:`~repro.obs.export.METRIC_CATALOG`).

Worker processes install fresh instances per cell (``reset_tracer`` /
``reset_registry``), then ship ``Tracer.to_dict()`` spans and a registry
snapshot back to the coordinator, which ``attach``es the spans and
``merge_snapshot``s the metrics.  Export formats: JSON (both), flat
Prometheus-style text, and a fixed-width report (metrics).
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
    set_registry,
)
from .tracer import Span, Tracer, get_tracer, reset_tracer, set_tracer
from .export import (
    AUXILIARY_METRICS,
    METRIC_CATALOG,
    SNAPSHOT_SCHEMA_VERSION,
    check_snapshot,
    load_snapshot,
    render_report,
    snapshot_document,
    to_prometheus,
    write_snapshot,
)

__all__ = [
    "AUXILIARY_METRICS",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "METRIC_CATALOG",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "check_snapshot",
    "get_registry",
    "get_tracer",
    "load_snapshot",
    "render_report",
    "reset_registry",
    "reset_tracer",
    "set_registry",
    "set_tracer",
    "snapshot_document",
    "to_prometheus",
    "write_snapshot",
]
