"""Observability: structured events, metrics, spans, campaign aggregation.

The measurement substrate for every perf and scaling PR (the paper's
evaluation runs multi-stage campaigns to 10^9 guesses; MAYA-style
reproducibility starts with observable harnesses).  Dependency-free —
everything is stdlib plus :mod:`repro.runtime.atomic`'s append
discipline.

Layers:

* :mod:`~repro.telemetry.metrics` — process-local ``Counter`` / ``Gauge``
  / ``Histogram`` registry, always-on, deterministic snapshots (no
  wall-clock in values);
* :mod:`~repro.telemetry.logger` — JSONL event streams with a stdlib
  ``logging`` bridge (``--log-level`` / ``REPRO_LOG``);
* :mod:`~repro.telemetry.tracing` — sessions + nested ``trace()`` spans
  carrying durations and metric deltas; no-ops when no session is
  active, so production code calls them unconditionally;
* :mod:`~repro.telemetry.aggregate` — merges parent and per-worker
  streams into one campaign summary with planned-vs-actual checks;
* :mod:`~repro.telemetry.heartbeat` — live progress line for the CLI.

Typical campaign wiring (what ``repro generate --telemetry DIR`` does)::

    from repro import telemetry

    with telemetry.session("campaign-tele"):
        guesses = generator.generate(total, seed=0)
    summary = telemetry.summarize_campaign("campaign-tele")
"""

from .aggregate import (
    EXECUTE_SPANS,
    campaign_files,
    check_summary,
    collect_events,
    render_summary,
    stable_events,
    summarize_campaign,
)
from .context import (
    SPAN_COUNTER_BITS,
    as_trace_ref,
    make_span_id,
    new_trace_id,
    parse_traceparent,
    split_span_id,
)
from .export import (
    build_chrome_trace,
    check_trace_tree,
    export_chrome_trace,
    load_spans,
)
from .heartbeat import Heartbeat, format_eta
from .logger import (
    LEVELS,
    LOG_ENV,
    TelemetryLogger,
    configure_logging,
    log_level_from_env,
    read_events,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    labeled_key,
    values_delta,
)
from .profiler import ProfilerError, SamplingProfiler
from .prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from .prometheus import render_prometheus
from .tracing import (
    Span,
    TelemetrySession,
    active,
    emit,
    end_session,
    pin_trace,
    rejoin_trace,
    session,
    start_session,
    trace,
    trace_ref,
)

__all__ = [
    "EXECUTE_SPANS",
    "campaign_files",
    "check_summary",
    "collect_events",
    "render_summary",
    "stable_events",
    "summarize_campaign",
    "SPAN_COUNTER_BITS",
    "as_trace_ref",
    "make_span_id",
    "new_trace_id",
    "parse_traceparent",
    "split_span_id",
    "build_chrome_trace",
    "check_trace_tree",
    "export_chrome_trace",
    "load_spans",
    "Heartbeat",
    "format_eta",
    "LEVELS",
    "LOG_ENV",
    "TelemetryLogger",
    "configure_logging",
    "log_level_from_env",
    "read_events",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "labeled_key",
    "values_delta",
    "ProfilerError",
    "SamplingProfiler",
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "Span",
    "TelemetrySession",
    "active",
    "emit",
    "end_session",
    "pin_trace",
    "rejoin_trace",
    "session",
    "start_session",
    "trace",
    "trace_ref",
]
