"""Distributed trace identity: ids, trace refs, and cross-process uniqueness.

The span-id scheme is the foundation the whole export/`--check` story
stands on: ids derived from ``(pid, counter)`` can never collide across
a parent and its forked workers, unlike the previous per-process
``itertools.count()`` which restarted at 0 in every worker.  The merge
test at the bottom is the regression test for that bug: a real 2-worker
campaign's merged streams must contain globally-unique span ids that
all carry the parent's trace id.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.telemetry.context import (
    SPAN_COUNTER_BITS,
    as_trace_ref,
    make_span_id,
    new_trace_id,
    parse_traceparent,
    split_span_id,
)

from tests.test_telemetry_campaign import SEED, THRESHOLD, TOTAL, _generator


# ----------------------------------------------------------------------
# Span ids
# ----------------------------------------------------------------------

class TestSpanIds:
    def test_roundtrip(self):
        for pid, counter in ((1, 0), (4194304, 7), (31337, (1 << SPAN_COUNTER_BITS) - 1)):
            assert split_span_id(make_span_id(pid, counter)) == (pid, counter)

    def test_distinct_pids_never_collide(self):
        ids = {make_span_id(pid, counter) for pid in (100, 101, 4194303)
               for counter in range(50)}
        assert len(ids) == 3 * 50

    def test_fits_in_63_bits(self):
        """JSON numbers survive exactly up to 2^53; ints to 2^63 in every
        parser we rely on — the id must stay clear of the sign bit."""
        assert make_span_id(4194304, (1 << SPAN_COUNTER_BITS) - 1) < (1 << 63)

    def test_deterministic_within_process(self):
        assert make_span_id(42, 3) == make_span_id(42, 3)


# ----------------------------------------------------------------------
# Trace refs
# ----------------------------------------------------------------------

class TestTraceRef:
    def test_new_trace_id_mints_32_hex_chars(self):
        trace_id = new_trace_id()
        assert len(trace_id) == 32
        int(trace_id, 16)  # raises if not hex

    def test_trace_ids_unique(self):
        assert len({new_trace_id() for _ in range(64)}) == 64

    def test_valid_ref_passes_through(self):
        ref = {"trace_id": "ab" * 16, "span_id": make_span_id(7, 3)}
        assert as_trace_ref(ref) == ref

    def test_valid_ref_without_span_passes_through(self):
        ref = {"trace_id": "cd" * 16}
        assert as_trace_ref(ref) == ref
        assert as_trace_ref({**ref, "span_id": "7"}) == ref  # a non-int span is dropped

    @pytest.mark.parametrize("payload", [None, {}, {"span_id": 3}, {"trace_id": ""},
                                         {"trace_id": 7}, "not-a-dict", []])
    def test_malformed_dict_is_none(self, payload):
        assert as_trace_ref(payload) is None

    def test_traceparent_parses_to_its_ref(self):
        trace_id, span_id = "0af7651916cd43dd8448eb211c80319c", make_span_id(9, 5)
        header = f"00-{trace_id}-{span_id:016x}-01"
        assert parse_traceparent(header) == {"trace_id": trace_id, "span_id": span_id}
        assert parse_traceparent(f"  {header.upper()} ") == parse_traceparent(header)

    @pytest.mark.parametrize("header", [
        None, "", "garbage", "00-short-0000000000000001-01",
        "00-" + "g" * 32 + "-0000000000000001-01",
        "0af7651916cd43dd8448eb211c80319c",  # bare trace id, no structure
    ])
    def test_invalid_traceparent_is_none(self, header):
        assert parse_traceparent(header) is None

    def test_all_zero_parent_means_no_parent(self):
        header = "00-" + "ab" * 16 + "-" + "0" * 16 + "-01"
        assert parse_traceparent(header) == {"trace_id": "ab" * 16}


# ----------------------------------------------------------------------
# The merge test: a real 2-worker campaign (the satellite regression)
# ----------------------------------------------------------------------

def test_two_worker_campaign_span_ids_globally_unique(tmp_path):
    """Merged parent+worker streams: every span id unique, one trace id.

    Before ids became pid-derived, every process counted spans from 0,
    so any parent span collided with the first worker span of the same
    index — and the merged tree was garbage.
    """
    gen = _generator(workers=2)
    with telemetry.session(tmp_path, run_id="merge") as sess:
        trace_id = sess.trace_id
        gen.generate(TOTAL, seed=SEED)

    spans = telemetry.load_spans(tmp_path)
    streams = {s["stream"] for s in spans}
    assert len(streams) >= 2, "expected parent + worker streams"

    ids = [s["span_id"] for s in spans]
    assert len(ids) == len(set(ids)), "span ids collided across processes"

    # Every span id embeds the pid of the stream that emitted it.
    for span in spans:
        assert split_span_id(span["span_id"])[0] == span["pid"]

    # Every stream declared the same trace id as the parent session.
    for path in telemetry.campaign_files(tmp_path):
        declared = [e["fields"]["trace_id"] for e in telemetry.read_events(path)
                    if e["event"] == "trace_context"]
        assert declared and set(declared) == {trace_id}, path.name
