"""Process-local metrics registry: counters, gauges, log-scale histograms.

Metric values deliberately contain **no wall-clock quantities** — only
monotonically accumulated counts, explicitly-set gauges, and fixed
log-scale histogram buckets — so that two identical seeded campaigns
produce byte-identical snapshots and tests can compare them directly
(durations/timestamps live in the JSONL event stream instead, where the
aggregation layer knows to exclude them from determinism checks).

The registry is cheap enough to keep always-on: hot paths (the
inference engine, :class:`repro.nn.PromptCache`, journal writes) tick
counters unconditionally.  :meth:`Counter.inc` adds to the process total
that ``/metrics`` reads and to the ``tally`` of the session active in the
calling context (:data:`ACTIVE_SESSION`), so a session counts exactly its
own context's work, whatever other threads do meanwhile.
"""

from __future__ import annotations

import contextvars
import threading
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # tracing imports this module
    from .tracing import TelemetrySession

Number = Union[int, float]

Labels = Optional[Dict[str, str]]

#: The calling context's active :class:`~repro.telemetry.TelemetrySession`
#: (``None`` when telemetry is off); :mod:`~repro.telemetry.tracing` binds it.
ACTIVE_SESSION: contextvars.ContextVar[Optional[TelemetrySession]] = contextvars.ContextVar(
    "repro_telemetry_session", default=None
)


def labeled_key(name: str, labels: Labels = None) -> str:
    """Canonical registry key: ``name`` or ``name{k="v",...}`` (sorted).

    Labels are folded into the key so the ``values()`` / ``values_delta``
    machinery (and every snapshot consumer) sees one flat namespace;
    the metric object keeps the base name and label dict separately so
    the Prometheus renderer can emit them as real label pairs.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing integer metric (``value``: the process total)."""

    __slots__ = ("name", "labels", "key", "value")

    def __init__(self, name: str, labels: Labels = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.key = labeled_key(name, labels)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n
        session = ACTIVE_SESSION.get()
        if session is not None:
            tally = session.tally
            tally[self.key] = tally.get(self.key, 0) + n


class Gauge:
    """Last-value-wins metric (e.g. queue depth, cache size)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Fixed log2-bucket histogram of non-negative observations.

    Bucket ``i`` counts observations with ``value <= 2**i`` (the last
    bucket is unbounded).  Bucket bounds are fixed at construction, so
    two runs observing the same values produce identical snapshots —
    no adaptive resizing, no wall-clock.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total")

    def __init__(self, name: str, max_exponent: int = 24, labels: Labels = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        #: Inclusive upper bounds; observations above the last finite
        #: bound land in the overflow bucket.
        self.bounds = [2 ** i for i in range(max_exponent + 1)]
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total: Number = 0

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> dict:
        # Only non-empty buckets, keyed by their bound, keeps snapshots
        # small and stable.
        buckets = {
            str(self.bounds[i]) if i < len(self.bounds) else "inf": c
            for i, c in enumerate(self.bucket_counts)
            if c
        }
        return {"count": self.count, "total": self.total, "buckets": buckets}

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated quantile estimate (``0 <= q <= 1``).

        Standard Prometheus-style ``histogram_quantile``: find the
        bucket where the cumulative count crosses ``q * count`` and
        interpolate linearly inside it.  Observations in the overflow
        bucket clamp to the last finite bound (the estimate is then a
        lower bound, exactly as Prometheus reports it).  Returns
        ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= target:
                if i >= len(self.bounds):  # overflow bucket: clamp
                    return float(self.bounds[-1])
                lower = float(self.bounds[i - 1]) if i > 0 else 0.0
                upper = float(self.bounds[i])
                fraction = (target - cumulative) / bucket_count
                return lower + max(0.0, min(1.0, fraction)) * (upper - lower)
            cumulative += bucket_count
        return float(self.bounds[-1])


class MetricsRegistry:
    """Get-or-create registry of named metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, labels: Labels = None) -> Counter:
        key = labeled_key(name, labels)
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, labels)
            return metric

    def gauge(self, name: str, labels: Labels = None) -> Gauge:
        key = labeled_key(name, labels)
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, labels)
            return metric

    def histogram(self, name: str, max_exponent: int = 24, labels: Labels = None) -> Histogram:
        key = labeled_key(name, labels)
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(name, max_exponent, labels)
            return metric

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def metrics(self) -> Tuple[Dict[str, Counter], Dict[str, Gauge], Dict[str, Histogram]]:
        """Copies of the counter, gauge and histogram dicts, taken under the
        lock: iterating a dict another thread grows raises ``RuntimeError``."""
        with self._lock:
            return dict(self._counters), dict(self._gauges), dict(self._histograms)

    def values(self) -> Dict[str, Number]:
        """Flat ``name -> value`` view of counters and gauges (not histograms)."""
        counters, gauges, _ = self.metrics()
        return {name: metric.value for name, metric in {**counters, **gauges}.items()}

    def snapshot(self) -> dict:
        """Structured, JSON-ready view of every metric (deterministic)."""
        counters, gauges, histograms = self.metrics()
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {n: h.snapshot() for n, h in sorted(histograms.items())},
        }

    def reset(self) -> None:
        """Drop every metric (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: Process-global default registry.  Forked workers inherit a copy of its
#: totals, but a worker's session tallies only the worker's own increments.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _REGISTRY


def values_delta(before: Dict[str, Number], after: Dict[str, Number]) -> Dict[str, Number]:
    """Non-zero differences ``after - before`` (new names count from 0)."""
    delta: Dict[str, Number] = {}
    for name, value in after.items():
        diff = value - before.get(name, 0)
        if diff:
            delta[name] = diff
    return delta
