"""End-to-end observability: tracing spans, metrics, flight recorder.

Layered so the rest of the system never pays for what it does not use:

* :mod:`repro.obs.trace` — :class:`Tracer` producing nested spans with
  an in-memory ring-buffer :class:`FlightRecorder` and JSONL export;
  ``Tracer.disabled`` is the zero-cost off switch engines default to.
  Also the fleet request context (:func:`request_context`): the edge
  mints one request id per request, every span produced while it is
  active carries it, and the sharded router forwards it across the
  worker pipe — the join key for cross-process traces.
* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` of
  counters/gauges/fixed-bucket latency histograms (one per session
  manager, plus the process-wide default), with Prometheus-style text
  exposition, a JSON dump, and cross-shard document merging.
* :mod:`repro.obs.collector` — joins the router's span stream with
  every worker's ``trace.jsonl`` into causally-ordered per-request
  fleet traces (``python -m repro collect ROOT``).
* :mod:`repro.obs.check` — the journal ↔ trace ↔ audit round-trip
  verifiers, including the cross-shard :func:`fleet_roundtrip`.
* :mod:`repro.obs.slowlog` / :mod:`repro.obs.slo` — slow-request
  forensics ring and the rolling-window SLO tracker behind the
  ``_ slow`` / ``_ slo`` verbs and ``scripts/check_slo.py``.
* :mod:`repro.obs.expo` — the stdlib HTTP sidecar serving
  ``/metrics``, ``/healthz``, ``/varz``, and ``/pprof``.
* :mod:`repro.obs.profiler` — the stdlib sampling profiler: a daemon
  thread walking ``sys._current_frames()`` into span/request-attributed
  collapsed stacks (``flamegraph.pl`` input), behind ``_ prof``,
  ``/pprof``, and ``python -m repro prof``.
* :mod:`repro.obs.analytics` — decision analytics: a
  ``command_observers`` callback folding every command's provenance
  into per-transform counters and histograms (verdicts, cascade depth,
  collateral fan-out, Table 4 skips, regional-vs-full analysis work).

See docs/OBSERVABILITY.md for the span model and the metric catalog.
"""

from repro.obs.analytics import DecisionAnalytics
from repro.obs.check import (
    RoundtripReport,
    audit_roundtrip,
    fleet_roundtrip,
    trace_path,
    trace_roundtrip,
)
from repro.obs.collector import RequestTrace, collect_requests
from repro.obs.expo import ExpoServer
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    aggregate_to_prometheus,
    merge_aggregate_metrics,
    merge_histogram_docs,
    merge_registry_docs,
    registry_views,
)
from repro.obs.profiler import (
    Profiler,
    merge_folded,
    parse_folded,
    render_folded,
)
from repro.obs.slo import SloTracker
from repro.obs.slowlog import SlowLog
from repro.obs.trace import (
    FlightRecorder,
    Span,
    Tracer,
    annotate_request,
    current_request,
    new_request_id,
    read_trace,
    request_context,
    thread_activity,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DecisionAnalytics",
    "ExpoServer",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "Profiler",
    "REGISTRY",
    "RequestTrace",
    "RoundtripReport",
    "SloTracker",
    "SlowLog",
    "Span",
    "Tracer",
    "aggregate_to_prometheus",
    "annotate_request",
    "audit_roundtrip",
    "collect_requests",
    "current_request",
    "fleet_roundtrip",
    "merge_aggregate_metrics",
    "merge_folded",
    "merge_histogram_docs",
    "merge_registry_docs",
    "new_request_id",
    "parse_folded",
    "read_trace",
    "registry_views",
    "render_folded",
    "request_context",
    "thread_activity",
    "trace_path",
    "trace_roundtrip",
]
