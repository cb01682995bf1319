"""Sampling profiler: samples land, spans attribute, nothing perturbs.

The last test is the acceptance criterion for the observability PR:
running the *golden* D&C-GEN + ordered campaigns under full tracing AND
an armed 1 ms profiler must reproduce the committed fixture streams
byte-for-byte, for workers 1 and 2.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time

import pytest

from repro import telemetry
from repro.generation import DCGenConfig, DCGenerator
from repro.telemetry.profiler import ProfilerError, SamplingProfiler
from repro.telemetry.tracing import thread_session

from tests.goldens import GOLDEN_PATH, SPEC, build_model, generate_ordered_stream


def _busy(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(i * i for i in range(500))


# ----------------------------------------------------------------------
# Core sampling behaviour
# ----------------------------------------------------------------------

def test_samples_a_busy_loop():
    profiler = SamplingProfiler(interval=0.001)
    with profiler:
        _busy(0.15)
    assert profiler.sample_count > 10
    folded = profiler.folded()
    assert folded
    line = folded.splitlines()[0]
    stack, count = line.rsplit(" ", 1)
    assert int(count) >= 1
    assert stack.startswith("span:")
    # Our own busy loop is on the sampled stack.
    assert "_busy" in folded

def test_span_attribution(tmp_path):
    profiler = SamplingProfiler(interval=0.001)
    with telemetry.session(tmp_path, run_id="prof"):
        with profiler:
            with telemetry.trace("hot.phase"):
                _busy(0.12)
    assert profiler.span_samples.get("hot.phase", 0) > 0
    assert any(stack.startswith("span:hot.phase;") for stack in profiler.samples)
    top = profiler.top_spans(1)
    assert top and top[0][0] == "hot.phase"

def test_profile_event_lands_in_session(tmp_path):
    with telemetry.session(tmp_path, run_id="prof"):
        with SamplingProfiler(interval=0.001):
            _busy(0.05)
    events = telemetry.read_events(tmp_path / "telemetry.jsonl")
    profiles = [e["fields"] for e in events if e["event"] == "profile"]
    assert len(profiles) == 1
    assert profiles[0]["samples"] > 0
    assert profiles[0]["interval_s"] == 0.001
    # ...and the determinism view drops it entirely.
    assert not [e for e in telemetry.stable_events(events) if e["event"] == "profile"]

def test_write_folded_file(tmp_path):
    profiler = SamplingProfiler(interval=0.001)
    with profiler:
        _busy(0.05)
    out = profiler.write(tmp_path / "profile.folded")
    text = out.read_text()
    assert text.endswith("\n")
    for line in text.splitlines():
        stack, count = line.rsplit(" ", 1)
        assert int(count) >= 1 and stack


# ----------------------------------------------------------------------
# Lifecycle guards
# ----------------------------------------------------------------------

def test_double_start_refused():
    profiler = SamplingProfiler(interval=0.001)
    profiler.start()
    try:
        with pytest.raises(ProfilerError):
            profiler.start()
    finally:
        profiler.stop()

def test_stop_without_start_is_noop():
    SamplingProfiler().stop()

def test_sampler_thread_runs_only_while_profiling():
    before = set(threading.enumerate())
    profiler = SamplingProfiler(interval=0.001)
    profiler.start()
    try:
        (sampler,) = set(threading.enumerate()) - before
        assert sampler.is_alive() and sampler.daemon
        time.sleep(0.05)
    finally:
        profiler.stop()
    assert not sampler.is_alive()
    assert set(threading.enumerate()) <= before
    assert profiler.sample_count > 0
    # The sampler never folds its own stack.
    assert not any("SamplingProfiler._sample" in stack for stack in profiler.samples)

def test_non_main_thread_start_samples():
    profilers = []

    def profile_here():
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            _busy(0.05)
        profilers.append(profiler)

    thread = threading.Thread(target=profile_here)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    (profiler,) = profilers
    assert profiler.sample_count > 0
    assert "profile_here" in profiler.folded()

def test_every_thread_sampled_at_one_rate():
    # A thread spinning in Python while the main thread sleeps: each tick
    # folds both stacks, so neither thread is sampled at a slower rate.
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(i * i for i in range(200))

    def nap():
        time.sleep(0.4)

    spinner = threading.Thread(target=spin)
    spinner.start()
    profiler = SamplingProfiler(interval=0.001)
    try:
        with profiler:
            nap()
    finally:
        stop.set()
        spinner.join(timeout=30)
    assert not spinner.is_alive()
    busy = sum(n for stack, n in profiler.samples.items() if ".spin" in stack)
    main = sum(n for stack, n in profiler.samples.items() if ".nap" in stack)
    assert main > 10
    assert busy >= main / 2, (busy, main)

def test_each_thread_rooted_at_its_own_span(tmp_path):
    # As `repro serve --profile`: the profiler starts on a thread with no
    # session while a fleet thread runs a traced job.  The job's stacks
    # sit under the job's span; the starter's own count stays at "-".
    def job():
        telemetry.start_session(tmp_path, run_id="job")
        try:
            with telemetry.trace("job.work"):
                _busy(0.4)
        finally:
            telemetry.end_session()

    profiler = SamplingProfiler(interval=0.001)
    with profiler:
        worker = threading.Thread(target=job)
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive()
    busy = [stack for stack in profiler.samples if ".job;" in stack and "_busy" in stack]
    assert busy
    assert all(stack.startswith("span:job.work;") for stack in busy), busy
    assert set(profiler.span_samples) == {"-"}
    assert thread_session(worker.ident) is None  # ended, forgotten

def test_bad_interval_refused():
    with pytest.raises(ValueError):
        SamplingProfiler(interval=0.0)


# ----------------------------------------------------------------------
# Acceptance: tracing + profiling never change a sampled byte
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_golden_streams_byte_identical_under_tracing_and_profiling(tmp_path, workers):
    golden = json.loads(GOLDEN_PATH.read_text())
    dc = SPEC["dcgen"]
    with telemetry.session(tmp_path / "dcgen", run_id="golden-profiled"):
        with SamplingProfiler(interval=0.001):
            model = build_model()
            gen = DCGenerator(
                model, DCGenConfig(threshold=dc["threshold"], workers=workers)
            )
            dcgen_stream = gen.generate(dc["total"], seed=dc["seed"])
    with telemetry.session(tmp_path / "ordered", run_id="golden-profiled"):
        with SamplingProfiler(interval=0.001):
            ordered_stream = generate_ordered_stream()
    digest = hashlib.sha256("\n".join(dcgen_stream).encode()).hexdigest()
    assert digest == golden["dcgen_sha256"], f"dcgen diverged (workers={workers})"
    digest = hashlib.sha256("\n".join(ordered_stream).encode()).hexdigest()
    assert digest == golden["ordered_sha256"], f"ordered diverged (workers={workers})"
    # Each traced directory is itself a valid, connected trace.
    for sub in ("dcgen", "ordered"):
        assert telemetry.check_trace_tree(telemetry.load_spans(tmp_path / sub)) == []
