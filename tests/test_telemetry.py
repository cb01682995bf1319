"""Unit tests for the telemetry subsystem (ISSUE 5).

Covers the four layers in isolation — metrics registry, JSONL event
logging, span tracing, heartbeat rendering — plus the aggregation and
invariant-check logic over hand-built event streams.  Campaign-level
integration (real D&C-GEN runs, workers, crash/resume) lives in
``tests/test_telemetry_campaign.py``.
"""

from __future__ import annotations

import io
import json
import logging
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.runtime import AppendStream
from repro.telemetry.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_and_gauge_accumulate(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        reg.gauge("g").set(2.5)
        assert reg.values() == {"a": 5, "g": 2.5}

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_histogram_log_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("rows")
        for v in (1, 2, 3, 1000, 10**9):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["total"] == 1 + 2 + 3 + 1000 + 10**9
        # 1 and 2 share the <=2 buckets (1 lands in <=1), 3 in <=4,
        # 1000 in <=1024, 1e9 in the unbounded overflow bucket.
        assert snap["buckets"]["1"] == 1
        assert snap["buckets"]["2"] == 1
        assert snap["buckets"]["4"] == 1
        assert snap["buckets"]["1024"] == 1
        assert snap["buckets"]["inf"] == 1

    def test_histogram_snapshot_has_no_wall_clock(self):
        """Two runs observing the same values snapshot identically."""
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            reg.counter("n").inc(3)
            reg.histogram("h").observe(7)
        assert a.snapshot() == b.snapshot()

    def test_register_group_polled_at_snapshot(self):
        reg = MetricsRegistry()
        state = {"calls": 0}
        reg.register_group("inf", lambda: dict(state))
        state["calls"] = 9
        assert reg.values()["inf.calls"] == 9
        assert reg.snapshot()["groups"]["inf"] == {"calls": 9}

    def test_register_group_replaces(self):
        reg = MetricsRegistry()
        reg.register_group("inf", lambda: {"calls": 1})
        reg.register_group("inf", lambda: {"calls": 2})
        assert reg.values()["inf.calls"] == 2

    def test_values_delta_only_nonzero(self):
        before = {"a": 2, "b": 5}
        after = {"a": 2, "b": 9, "c": 1}
        assert telemetry.values_delta(before, after) == {"b": 4, "c": 1}


# ----------------------------------------------------------------------
# AppendStream + JSONL logger
# ----------------------------------------------------------------------

class TestLogger:
    def test_append_stream_survives_reopen(self, tmp_path):
        path = tmp_path / "a.jsonl"
        with AppendStream(path) as s:
            s.write_line("one")
        with AppendStream(path) as s:
            s.write_line("two")
        assert path.read_text().splitlines() == ["one", "two"]

    def test_emit_writes_complete_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        logger = telemetry.TelemetryLogger(path, run_id="r1", worker=7, clock=lambda: 123.0)
        logger.emit("hello", level="info", x=1)
        logger.close()
        [record] = telemetry.read_events(path)
        assert record["event"] == "hello"
        assert record["run_id"] == "r1"
        assert record["worker"] == 7
        assert record["ts"] == 123.0
        assert record["fields"] == {"x": 1}
        assert isinstance(record["pid"], int)

    def test_logger_level_filters_capture(self, tmp_path):
        path = tmp_path / "t.jsonl"
        logger = telemetry.TelemetryLogger(path, level="warning")
        logger.emit("quiet", level="debug")
        logger.emit("loud", level="error")
        logger.close()
        assert [r["event"] for r in telemetry.read_events(path)] == ["loud"]

    def test_numpy_scalars_are_json_safe(self, tmp_path):
        path = tmp_path / "t.jsonl"
        logger = telemetry.TelemetryLogger(path)
        logger.emit("np", n=np.int64(3), f=np.float64(0.5))
        logger.close()
        [record] = telemetry.read_events(path)
        assert record["fields"] == {"n": 3, "f": 0.5}

    def test_read_events_skips_torn_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        logger = telemetry.TelemetryLogger(path)
        logger.emit("good")
        logger.close()
        with open(path, "a") as fh:
            fh.write('{"event": "torn", "fie')  # crash mid-append
        assert [r["event"] for r in telemetry.read_events(path)] == ["good"]

    def test_unknown_level_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            telemetry.TelemetryLogger(tmp_path / "t.jsonl", level="loud")

    def test_log_level_from_env(self, monkeypatch):
        monkeypatch.delenv(telemetry.LOG_ENV, raising=False)
        assert telemetry.log_level_from_env() == "warning"
        monkeypatch.setenv(telemetry.LOG_ENV, "debug")
        assert telemetry.log_level_from_env() == "debug"
        monkeypatch.setenv(telemetry.LOG_ENV, "nonsense")
        assert telemetry.log_level_from_env() == "warning"

    def test_configure_logging_bridge_reaches_stream(self, tmp_path):
        stream = io.StringIO()
        telemetry.configure_logging("info", stream=stream)
        try:
            logger = telemetry.TelemetryLogger(tmp_path / "t.jsonl")
            logger.emit("bridged", level="info", k=1)
            logger.emit("hidden", level="debug")
            logger.close()
            text = stream.getvalue()
            assert "bridged" in text
            assert "hidden" not in text
        finally:
            root = logging.getLogger("repro")
            for handler in list(root.handlers):
                root.removeHandler(handler)

    def test_configure_logging_idempotent(self):
        stream = io.StringIO()
        telemetry.configure_logging("info", stream=stream)
        telemetry.configure_logging("info", stream=stream)
        root = logging.getLogger("repro")
        try:
            assert len(root.handlers) == 1
        finally:
            for handler in list(root.handlers):
                root.removeHandler(handler)


# ----------------------------------------------------------------------
# Sessions and spans
# ----------------------------------------------------------------------

class TestTracing:
    def test_no_session_is_a_noop(self):
        telemetry.emit("dropped")  # must not raise
        with telemetry.trace("nothing") as span:
            span.set(irrelevant=1)  # null span swallows attrs

    def test_span_records_attrs_duration_and_delta(self, tmp_path):
        with telemetry.session(tmp_path, run_id="t"):
            with telemetry.trace("work", batch=3) as span:
                telemetry.get_registry().counter("widgets").inc(5)
                span.set(done=True)
        events = telemetry.read_events(tmp_path / "telemetry.jsonl")
        [span_rec] = [e for e in events if e["event"] == "span"]
        fields = span_rec["fields"]
        assert fields["name"] == "work"
        assert fields["attrs"] == {"batch": 3, "done": True}
        assert fields["delta"]["widgets"] == 5
        assert fields["duration_s"] >= 0

    def test_spans_nest_via_parent_id(self, tmp_path):
        with telemetry.session(tmp_path):
            with telemetry.trace("outer"):
                with telemetry.trace("inner"):
                    pass
        events = telemetry.read_events(tmp_path / "telemetry.jsonl")
        spans = {e["fields"]["name"]: e["fields"] for e in events if e["event"] == "span"}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent_id"] is None

    def test_worker_session_uses_worker_file(self, tmp_path):
        sess = telemetry.start_session(tmp_path, worker=42)
        telemetry.emit("from-worker")
        telemetry.end_session()
        assert sess.logger.path.name == "telemetry-worker-42.jsonl"
        events = telemetry.read_events(tmp_path / "telemetry-worker-42.jsonl")
        assert [e["event"] for e in events if e["event"] == "from-worker"]

    def test_end_session_emits_metrics_snapshot(self, tmp_path):
        telemetry.start_session(tmp_path)
        telemetry.get_registry().counter("closing").inc(2)
        telemetry.end_session()
        events = telemetry.read_events(tmp_path / "telemetry.jsonl")
        [snap] = [e for e in events if e["event"] == "metrics_snapshot"]
        assert snap["fields"]["metrics"]["closing"] == 2

    def test_session_metrics_are_deltas_from_start_mark(self, tmp_path):
        telemetry.get_registry().counter("preexisting").inc(100)
        with telemetry.session(tmp_path) as sess:
            telemetry.get_registry().counter("preexisting").inc(1)
            assert sess.metrics_delta().get("preexisting") == 1

    def test_session_is_bound_to_the_thread_that_started_it(self, tmp_path):
        """A server fleet slot's job session must not collect the event
        loop thread's events and spans (nor vice versa)."""
        seen = {}

        def other_thread():
            seen["active"] = telemetry.active()
            telemetry.emit("from-other-thread")
            with telemetry.trace("other-thread-span"):
                pass

        with telemetry.session(tmp_path, run_id="owner") as sess:
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
            assert telemetry.active() is sess
        assert seen["active"] is None
        events = telemetry.read_events(tmp_path / "telemetry.jsonl")
        assert not [e for e in events if e["event"] == "from-other-thread"]
        assert not [
            e for e in events
            if e["event"] == "span" and e["fields"]["name"] == "other-thread-span"
        ]


# ----------------------------------------------------------------------
# Heartbeat
# ----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestHeartbeat:
    def test_format_eta(self):
        assert telemetry.format_eta(41) == "41s"
        assert telemetry.format_eta(200) == "3m20s"
        assert telemetry.format_eta(2 * 3600 + 5 * 60) == "2h05m"

    def test_render_line(self):
        clock = FakeClock()
        hb = telemetry.Heartbeat(50_000, clock=clock, enabled=True, stream=io.StringIO())
        clock.t = 4.0
        line = hb.render(14_200)
        assert line.startswith("guesses 14200/50000 (28.4%)")
        assert "/s ETA" in line

    def test_update_throttles(self):
        clock = FakeClock()
        stream = io.StringIO()
        hb = telemetry.Heartbeat(100, clock=clock, enabled=True, stream=stream, interval=0.5)
        for i in range(50):
            clock.t = i * 0.01  # 50 updates inside one interval
            hb.update(i)
        assert hb.rendered == 1

    def test_final_update_always_renders(self):
        clock = FakeClock()
        stream = io.StringIO()
        hb = telemetry.Heartbeat(10, clock=clock, enabled=True, stream=stream)
        hb.update(1)
        hb.update(10)  # done == total bypasses throttling
        assert hb.rendered == 2
        hb.close()
        assert stream.getvalue().endswith("\n")

    def test_disabled_writes_nothing(self):
        stream = io.StringIO()
        hb = telemetry.Heartbeat(10, enabled=False, stream=stream)
        hb.update(5)
        hb.close()
        assert stream.getvalue() == ""

    def test_non_tty_stream_defaults_off(self):
        hb = telemetry.Heartbeat(10, stream=io.StringIO())
        assert hb.enabled is False

    def test_instant_first_update_has_no_absurd_rate(self):
        """Zero elapsed time renders 0/s, not done/epsilon, and never raises."""
        clock = FakeClock()
        hb = telemetry.Heartbeat(100, clock=clock, enabled=True, stream=io.StringIO())
        line = hb.render(40)  # same clock tick as construction
        assert "(40.0%) 0/s ETA ?" in line

    def test_zero_total_renders(self):
        clock = FakeClock()
        hb = telemetry.Heartbeat(0, clock=clock, enabled=True, stream=io.StringIO())
        clock.t = 1.0
        assert hb.render(0) == "guesses 0/0 (100.0%) 0/s ETA ?"

    def test_zero_rate_has_unknown_eta(self):
        """No progress yet: the ETA is '?' rather than a division by zero."""
        clock = FakeClock()
        hb = telemetry.Heartbeat(100, clock=clock, enabled=True, stream=io.StringIO())
        clock.t = 5.0
        line = hb.render(0)
        assert line == "guesses 0/100 (0.0%) 0/s ETA ?"


# ----------------------------------------------------------------------
# Aggregation and invariant checks
# ----------------------------------------------------------------------

def _write_stream(path, records):
    with AppendStream(path) as stream:
        for record in records:
            stream.write_line(json.dumps(record))


def _rec(event, fields, worker=None, ts=1.0):
    return {"ts": ts, "run_id": "r", "pid": 1, "worker": worker,
            "event": event, "level": "info", "fields": fields}


def _span(name, attrs=None, delta=None, duration=0.5, worker=None):
    return _rec("span", {"name": name, "span_id": 0, "parent_id": None,
                         "duration_s": duration, "attrs": attrs or {},
                         "delta": delta or {}}, worker=worker)


class TestAggregate:
    def _campaign(self, tmp_path):
        """Hand-built two-worker campaign matching its plan exactly."""
        _write_stream(tmp_path / "telemetry.jsonl", [
            _rec("campaign_plan", {"kind": "dcgen", "requested": 20, "rows": 20,
                                   "n_tasks": 2, "model_calls": 6,
                                   "prompt_cache_hits": 2}),
            _span("campaign", duration=2.0),
        ])
        _write_stream(tmp_path / "telemetry-worker-1.jsonl", [
            _span("dcgen.execute_batch", attrs={"guesses": 12, "model_calls": 4},
                  delta={"prompt_cache.hits": 1}, worker=1),
        ])
        _write_stream(tmp_path / "telemetry-worker-2.jsonl", [
            _span("dcgen.execute_batch", attrs={"guesses": 8, "model_calls": 2},
                  delta={"prompt_cache.hits": 1}, worker=2),
        ])
        return telemetry.summarize_campaign(tmp_path)

    def test_summary_merges_worker_streams(self, tmp_path):
        summary = self._campaign(tmp_path)
        assert summary["total_guesses"] == 20
        assert summary["executed"]["model_calls"] == 6
        assert summary["executed"]["prompt_cache_hits"] == 2
        assert set(summary["workers"]) == {
            "telemetry-worker-1.jsonl", "telemetry-worker-2.jsonl"
        }
        assert summary["workers"]["telemetry-worker-1.jsonl"]["guesses"] == 12
        assert summary["guesses_per_s"] == 10.0
        assert telemetry.check_summary(summary) == []

    def test_check_flags_lost_guesses(self, tmp_path):
        summary = self._campaign(tmp_path)
        summary["executed"]["guesses"] -= 5
        summary["total_guesses"] -= 5
        failures = telemetry.check_summary(summary)
        assert any("guess count" in f for f in failures)

    def test_check_flags_dededuplicated_cache(self, tmp_path):
        summary = self._campaign(tmp_path)
        summary["executed"]["prompt_cache_hits"] = 0
        failures = telemetry.check_summary(summary)
        assert any("cache" in f for f in failures)

    def test_unrecovered_failure_is_unaccounted(self, tmp_path):
        _write_stream(tmp_path / "telemetry.jsonl", [
            _rec("task_failed", {"context": "c", "task": 3, "error": "boom", "attempt": 0}),
            _rec("task_failed", {"context": "c", "task": 4, "error": "boom", "attempt": 0}),
            _rec("task_recovered", {"context": "c", "task": 3}),
        ])
        summary = telemetry.summarize_campaign(tmp_path)
        assert summary["faults"]["task_failed"] == 2
        assert summary["faults"]["task_recovered"] == 1
        assert summary["faults"]["unaccounted"] == ["4"]
        failures = telemetry.check_summary(summary)
        assert any("unaccounted" in f for f in failures)

    def test_resumed_campaign_may_exceed_plan(self, tmp_path):
        """Crash-before-journal can re-execute one batch: total >= rows."""
        _write_stream(tmp_path / "telemetry.jsonl", [
            _rec("campaign_plan", {"kind": "dcgen", "rows": 10, "n_tasks": 2,
                                   "model_calls": 4, "prompt_cache_hits": 2}),
            _rec("campaign_resume", {"tasks": 1, "guesses": 6, "model_calls": 2}),
            _span("dcgen.execute_batch", attrs={"guesses": 6, "model_calls": 2}),
        ])
        summary = telemetry.summarize_campaign(tmp_path)
        assert summary["total_guesses"] == 12  # one batch ran twice
        assert telemetry.check_summary(summary) == []

    def test_stable_events_strip_nondeterminism(self):
        records = [
            _rec("span", {"name": "s", "duration_s": 1.23, "attrs": {"a": 1}}, ts=99.0),
        ]
        [stable] = telemetry.stable_events(records)
        assert "ts" not in stable and "pid" not in stable and "worker" not in stable
        assert "duration_s" not in stable["fields"]
        assert stable["fields"]["attrs"] == {"a": 1}

    def test_render_summary_mentions_key_numbers(self, tmp_path):
        summary = self._campaign(tmp_path)
        text = telemetry.render_summary(summary)
        assert "Planned vs actual" in text
        assert "worker skew" in text
        assert "20" in text


# ----------------------------------------------------------------------
# Histogram quantiles and metric labels
# ----------------------------------------------------------------------

class TestQuantiles:
    def test_empty_histogram_is_none(self):
        assert MetricsRegistry().histogram("h").quantile(0.5) is None

    def test_out_of_range_rejected(self):
        h = MetricsRegistry().histogram("h")
        h.observe(1)
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                h.quantile(bad)

    def test_single_bucket_interpolates_within_bounds(self):
        h = MetricsRegistry().histogram("h")
        for _ in range(10):
            h.observe(3)  # lands in the (2, 4] bucket
        assert 2.0 <= h.quantile(0.5) <= 4.0
        assert 2.0 <= h.quantile(0.99) <= 4.0

    def test_quantiles_are_monotone(self):
        h = MetricsRegistry().histogram("h")
        for v in (1, 2, 3, 10, 100, 1000, 5000):
            h.observe(v)
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)

    def test_spread_lands_in_the_right_decade(self):
        h = MetricsRegistry().histogram("h")
        for v in range(1, 101):  # uniform 1..100
            h.observe(v)
        assert h.quantile(0.5) <= 128      # p50 within the <=64/128 region
        assert h.quantile(0.95) >= 64      # p95 near the top
        assert h.quantile(0.95) <= 128

    def test_overflow_bucket_clamps_to_top_bound(self):
        h = MetricsRegistry().histogram("h", max_exponent=4)
        h.observe(10**9)  # beyond every bound -> overflow bucket
        assert h.quantile(0.5) == float(h.bounds[-1])


class TestLabeledMetrics:
    def test_labeled_key_is_sorted_and_stable(self):
        from repro.telemetry.metrics import labeled_key

        assert labeled_key("m", {"b": "2", "a": "1"}) == 'm{a="1",b="2"}'
        assert labeled_key("m", None) == "m"
        assert labeled_key("m", {}) == "m"

    def test_label_variants_are_distinct_metrics(self):
        reg = MetricsRegistry()
        reg.counter("jobs", labels={"state": "done"}).inc(3)
        reg.counter("jobs", labels={"state": "failed"}).inc()
        values = reg.values()
        assert values['jobs{state="done"}'] == 3
        assert values['jobs{state="failed"}'] == 1

    def test_same_labels_same_object(self):
        reg = MetricsRegistry()
        a = reg.histogram("h", labels={"route": "/status"})
        b = reg.histogram("h", labels={"route": "/status"})
        assert a is b
        assert a is not reg.histogram("h", labels={"route": "/metrics"})


# ----------------------------------------------------------------------
# Prometheus text exposition (unit level; endpoint tests in test_server)
# ----------------------------------------------------------------------

class TestPrometheusRender:
    def test_counter_total_and_type(self):
        reg = MetricsRegistry()
        reg.counter("journal.records").inc(7)
        text = telemetry.render_prometheus(reg)
        assert "# TYPE repro_journal_records_total counter\n" in text
        assert "repro_journal_records_total 7\n" in text

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("fleet.busy").set(2)
        text = telemetry.render_prometheus(reg)
        assert "# TYPE repro_fleet_busy gauge\n" in text
        assert "repro_fleet_busy 2\n" in text

    def test_label_variants_contiguous_under_one_type(self):
        reg = MetricsRegistry()
        reg.counter("jobs", labels={"state": "done"}).inc()
        reg.counter("other").inc()
        reg.counter("jobs", labels={"state": "failed"}).inc()
        lines = telemetry.render_prometheus(reg).splitlines()
        type_idx = lines.index("# TYPE repro_jobs_total counter")
        assert lines[type_idx + 1].startswith('repro_jobs_total{state="done"}')
        assert lines[type_idx + 2].startswith('repro_jobs_total{state="failed"}')

    def test_histogram_grammar(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", labels={"route": "/x"})
        for v in (1, 3, 500):
            h.observe(v)
        text = telemetry.render_prometheus(reg)
        assert "# TYPE repro_lat histogram\n" in text
        assert 'repro_lat_bucket{route="/x",le="+Inf"} 3\n' in text
        assert 'repro_lat_count{route="/x"} 3\n' in text
        assert 'repro_lat_sum{route="/x"} 504' in text
        # le buckets are cumulative.
        bucket_counts = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_lat_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)

    def test_group_values_are_untyped(self):
        reg = MetricsRegistry()
        reg.register_group("inference", lambda: {"calls": 4})
        text = telemetry.render_prometheus(reg)
        assert "# TYPE repro_inference_calls untyped\n" in text
        assert "repro_inference_calls 4\n" in text

    def test_name_sanitization_and_label_escaping(self):
        from repro.telemetry.prometheus import escape_label_value, sanitize_name

        assert sanitize_name("server.request_ms") == "repro_server_request_ms"
        assert sanitize_name("weird-name!") == "repro_weird_name_"
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


# ----------------------------------------------------------------------
# Heartbeat structured events
# ----------------------------------------------------------------------

class TestHeartbeatEvents:
    def _events(self, tmp_path):
        return [
            e for e in telemetry.read_events(tmp_path / "telemetry.jsonl")
            if e["event"] == "heartbeat"
        ]

    def test_headless_update_emits_event(self, tmp_path):
        clock = FakeClock()
        with telemetry.session(tmp_path, run_id="hb"):
            hb = telemetry.Heartbeat(100, clock=clock, enabled=False)
            clock.t = 2.0
            hb.update(50)
        [event] = self._events(tmp_path)
        fields = event["fields"]
        assert fields["done"] == 50 and fields["total"] == 100
        assert fields["rate"] == pytest.approx(25.0)
        assert fields["eta_s"] == pytest.approx(2.0)
        assert event["level"] == "debug"

    def test_events_obey_the_throttle(self, tmp_path):
        clock = FakeClock()
        with telemetry.session(tmp_path, run_id="hb"):
            hb = telemetry.Heartbeat(
                100, clock=clock, enabled=False, interval=0.5
            )
            for i in range(50):
                clock.t = i * 0.01
                hb.update(i)
        assert len(self._events(tmp_path)) == 1

    def test_heartbeat_events_dropped_from_stable_view(self, tmp_path):
        clock = FakeClock()
        with telemetry.session(tmp_path, run_id="hb"):
            telemetry.Heartbeat(10, clock=clock, enabled=False).update(5)
        events = telemetry.read_events(tmp_path / "telemetry.jsonl")
        assert any(e["event"] == "heartbeat" for e in events)
        assert not any(
            e["event"] == "heartbeat" for e in telemetry.stable_events(events)
        )


class TestStableTraceFields:
    def test_trace_identity_fields_stripped(self):
        records = [
            _rec("span", {"name": "s", "span_id": 12345, "parent_id": 99,
                          "trace_id": "ab" * 16, "duration_s": 0.5,
                          "attrs": {"a": 1}}),
            _rec("trace_context", {"trace_id": "ab" * 16, "remote_parent": 7}),
        ]
        stable = telemetry.stable_events(records)
        for record in stable:
            for key in ("span_id", "parent_id", "trace_id", "remote_parent"):
                assert key not in record["fields"]


# ----------------------------------------------------------------------
# Span duration percentiles in the merged summary
# ----------------------------------------------------------------------

class TestSpanPercentiles:
    def test_summary_carries_percentiles(self, tmp_path):
        _write_stream(tmp_path / "telemetry.jsonl", [
            _rec("campaign_plan", {"kind": "dcgen", "requested": 1, "rows": 1,
                                   "n_tasks": 1, "model_calls": 1,
                                   "prompt_cache_hits": 0}),
            _span("dcgen.execute_batch", attrs={"guesses": 1, "model_calls": 1},
                  duration=0.010),
            _span("dcgen.execute_batch", attrs={"guesses": 0, "model_calls": 0},
                  duration=0.020),
            _span("campaign", duration=0.5),
        ])
        summary = telemetry.summarize_campaign(tmp_path)
        agg = summary["spans"]["dcgen.execute_batch"]
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            assert key in agg
            assert agg[key] > 0
        assert agg["p50_ms"] <= agg["p95_ms"] <= agg["p99_ms"]
        text = telemetry.render_summary(summary)
        assert "p95" in text
