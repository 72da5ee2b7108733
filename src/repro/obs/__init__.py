"""Observability for the Skalla reproduction: spans, metrics, JSONL traces.

Ten modules, all zero-dependency. None imports ``repro.distributed`` or
any other execution layer, so any module may instrument itself without
cycles; from ``repro.net`` they take only the cost model the timeline
prices bytes with:

- :mod:`repro.obs.tracer` — span tracing with a no-op default
  (:data:`NULL_TRACER`) so untraced runs pay nothing;
- :mod:`repro.obs.metrics` — process-local counters/gauges/histograms;
- :mod:`repro.obs.events` — the one telemetry file format (traces and
  flight dumps): schema-versioned JSONL, one loader, one validator;
- :mod:`repro.obs.timeline` — the ASCII per-round timeline behind the
  ``repro trace`` CLI subcommand;
- :mod:`repro.obs.profile` — EXPLAIN ANALYZE: per-query profiles
  attributing time/rows/bytes to plan nodes, sites and operators
  (``repro explain --analyze``);
- :mod:`repro.obs.export` — Prometheus text exposition plus the stdlib
  HTTP endpoint behind ``repro serve --metrics-port``;
- :mod:`repro.obs.top` — the polling terminal dashboard behind
  ``repro top``;
- :mod:`repro.obs.diff` — trace/profile comparison with
  per-dimension regression attribution (``repro diff``);
- :mod:`repro.obs.skew` — NTP-style clock-offset estimation and span
  alignment for merging site-process spans onto the coordinator clock;
- :mod:`repro.obs.flightrec` — bounded in-memory flight recorder whose
  per-request dump survives ``SIGKILL`` (``repro cluster dump``).
"""

from repro.obs.diff import (
    DiffEntry,
    TraceDiff,
    diff_artifacts,
    diff_profiles,
    load_artifact,
    render_diff,
)
from repro.obs.events import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    EventLog,
    build_trace,
)
from repro.obs.export import (
    MetricsServer,
    parse_prometheus_text,
    prometheus_text,
    scrape,
    start_metrics_server,
)
from repro.obs.flightrec import (
    FlightRecorder,
    flight_path,
    load_flight_dir,
)
from repro.obs.metrics import (
    BYTES_BUCKETS,
    GLOBAL_REGISTRY,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    activate,
    active_registry,
    histogram_quantile,
    set_active_registry,
)
from repro.obs.profile import (
    OperatorProfile,
    QueryProfile,
    RoundProfile,
    SiteProfile,
    build_profile,
    operator_totals,
    profile_from_trace,
    render_profile,
    round_totals,
    site_totals,
)
from repro.obs.skew import (
    ClockMap,
    ClockSample,
    align_span,
    estimate_offset,
)
from repro.obs.timeline import render_timeline, timeline_totals
from repro.obs.top import (
    cluster_sites,
    cluster_top_loop,
    render_top,
    summarize,
    top_loop,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "BYTES_BUCKETS",
    "ClockMap",
    "ClockSample",
    "Counter",
    "DiffEntry",
    "EventLog",
    "FlightRecorder",
    "GLOBAL_REGISTRY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_TRACER",
    "NullTracer",
    "OperatorProfile",
    "QueryProfile",
    "RoundProfile",
    "SCHEMA_VERSION",
    "SECONDS_BUCKETS",
    "SUPPORTED_SCHEMA_VERSIONS",
    "SiteProfile",
    "Span",
    "TraceDiff",
    "Tracer",
    "activate",
    "active_registry",
    "align_span",
    "build_profile",
    "build_trace",
    "cluster_sites",
    "cluster_top_loop",
    "diff_artifacts",
    "diff_profiles",
    "estimate_offset",
    "flight_path",
    "histogram_quantile",
    "load_artifact",
    "load_flight_dir",
    "operator_totals",
    "parse_prometheus_text",
    "profile_from_trace",
    "prometheus_text",
    "render_diff",
    "render_profile",
    "render_timeline",
    "render_top",
    "round_totals",
    "scrape",
    "set_active_registry",
    "site_totals",
    "start_metrics_server",
    "summarize",
    "timeline_totals",
    "top_loop",
]
