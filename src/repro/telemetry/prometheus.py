"""Prometheus text exposition (format 0.0.4) for the metrics registry.

Renders every counter, gauge, and histogram as the plain text format
any Prometheus-compatible scraper ingests::

    # TYPE repro_server_jobs_finished_total counter
    repro_server_jobs_finished_total{strategy="dcgen",tenant="t1"} 3
    # TYPE repro_server_request_ms histogram
    repro_server_request_ms_bucket{route="/status",le="1"} 2
    repro_server_request_ms_bucket{route="/status",le="+Inf"} 5
    repro_server_request_ms_sum{route="/status"} 37.0
    repro_server_request_ms_count{route="/status"} 5

Internal dotted names (``server.jobs_done``) are sanitised to the
Prometheus grammar (``[a-zA-Z_:][a-zA-Z0-9_:]*``) under a ``repro_``
prefix; counters get the conventional ``_total`` suffix; histogram
buckets are **cumulative** and always end with ``le="+Inf"`` (the
registry's internal buckets are per-bucket counts, so the renderer
accumulates).  Output is deterministically ordered so two snapshots of
identical registries are byte-identical.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .metrics import MetricsRegistry, get_registry

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str, prefix: str = "repro_") -> str:
    """Map an internal dotted metric name onto the Prometheus grammar."""
    out = _NAME_SANITIZE.sub("_", name)
    if not re.match(r"[a-zA-Z_:]", out):
        out = "_" + out
    return prefix + out


def escape_label_value(value: str) -> str:
    """Escape ``\\``, ``"`` and newlines per the exposition format."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _render_labels(labels: Dict[str, str], extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = [(k, escape_label_value(v)) for k, v in sorted(labels.items())]
    pairs.extend((k, escape_label_value(v)) for k, v in extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def render_prometheus(registry: MetricsRegistry = None) -> str:
    """The full registry as exposition text (trailing newline included)."""
    registry = registry if registry is not None else get_registry()
    lines: List[str] = []

    def grouped(metrics) -> "list":
        # All label variants of one metric must sit contiguously under a
        # single # TYPE header — group by sanitised base name, then sort
        # variants by their label set for deterministic output.
        by_name: Dict[str, list] = {}
        for metric in metrics:
            by_name.setdefault(sanitize_name(metric.name), []).append(metric)
        return sorted(
            (name, sorted(group, key=lambda m: sorted(m.labels.items())))
            for name, group in by_name.items()
        )

    counters, gauges, histograms = registry.metrics()
    for name, group in grouped(counters.values()):
        lines.append(f"# TYPE {name}_total counter")
        for metric in group:
            lines.append(
                f"{name}_total{_render_labels(metric.labels)} {_format_value(metric.value)}"
            )

    for name, group in grouped(gauges.values()):
        lines.append(f"# TYPE {name} gauge")
        for metric in group:
            lines.append(f"{name}{_render_labels(metric.labels)} {_format_value(metric.value)}")

    for name, group in grouped(histograms.values()):
        lines.append(f"# TYPE {name} histogram")
        for metric in group:
            cumulative = 0
            for i, bound in enumerate(metric.bounds):
                cumulative += metric.bucket_counts[i]
                labels = _render_labels(metric.labels, (("le", str(bound)),))
                lines.append(f"{name}_bucket{labels} {cumulative}")
            cumulative += metric.bucket_counts[-1]
            labels = _render_labels(metric.labels, (("le", "+Inf"),))
            lines.append(f"{name}_bucket{labels} {cumulative}")
            lines.append(
                f"{name}_sum{_render_labels(metric.labels)} {_format_value(metric.total)}"
            )
            lines.append(f"{name}_count{_render_labels(metric.labels)} {metric.count}")

    return "\n".join(lines) + "\n"
