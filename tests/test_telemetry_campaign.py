"""Campaign-level telemetry integration (ISSUE 5 acceptance tests).

Five contracts pinned here:

1. **Zero interference** — running the golden campaign inside a
   telemetry session emits the byte-identical stream the committed
   fixture records.  Observability must never alter sampling.
2. **Determinism** — two identically-seeded campaigns produce identical
   event streams (after :func:`stable_events` strips timestamps, pids
   and durations) and identical session metric deltas.
3. **Conservation** — a 2-worker journaled campaign's merged summary
   matches the planned budget from ``planned_execute_costs`` exactly:
   fleet guess count, model calls, prompt-cache hits, task count.
4. **Fault accounting** — an injected worker crash shows up as a
   counted ``task_failed``/``task_recovered`` pair with nothing
   unaccounted, and a crash/resume run's merged summary records the
   resume while still passing :func:`check_summary`; the resumed spans
   rejoin the first attempt's trace as one tree.
5. **Own-context accounting** — a session counts the work done in its
   own thread and nothing else: two concurrent campaigns (two server
   fleet slots) each pass :func:`check_summary`, and an engine rebuilt
   mid-session is counted in full.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import pytest

from repro import telemetry
from repro.generation import DCGenConfig, DCGenerator, build_batches, planned_execute_costs
from repro.runtime import faults

from tests.goldens import GOLDEN_PATH, SPEC, build_model

#: Smaller-than-golden campaign used by the accounting tests (the golden
#: scale is reserved for the byte-identity test, which must match the
#: committed fixture exactly).
TOTAL = 600
SEED = 11
THRESHOLD = 48


def _generator(workers: int = 1, gen_batch: int = 128) -> DCGenerator:
    model = build_model()
    return DCGenerator(
        model, DCGenConfig(threshold=THRESHOLD, gen_batch=gen_batch, workers=workers)
    )


def _summary_events(directory):
    out = []
    for path in telemetry.campaign_files(directory):
        out.extend(telemetry.read_events(path))
    return out


# ----------------------------------------------------------------------
# 1. Telemetry never changes the stream
# ----------------------------------------------------------------------

def test_golden_stream_byte_identical_with_telemetry(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    dc = SPEC["dcgen"]
    with telemetry.session(tmp_path, run_id="golden"):
        model = build_model()
        gen = DCGenerator(model, DCGenConfig(threshold=dc["threshold"]))
        dcgen_stream = gen.generate(dc["total"], seed=dc["seed"])
        free_stream = model.generate(SPEC["free"]["n"], seed=SPEC["free"]["seed"])
    assert hashlib.sha256("\n".join(dcgen_stream).encode()).hexdigest() == golden["dcgen_sha256"]
    assert hashlib.sha256("\n".join(free_stream).encode()).hexdigest() == golden["free_sha256"]
    # ...and the run actually traced: both campaigns planned + spanned.
    events = telemetry.read_events(tmp_path / "telemetry.jsonl")
    plans = [e["fields"] for e in events if e["event"] == "campaign_plan"]
    assert [p["kind"] for p in plans] == ["dcgen", "free"]
    span_names = {e["fields"]["name"] for e in events if e["event"] == "span"}
    assert {"campaign", "dcgen.plan", "dcgen.execute_batch", "free.chunk"} <= span_names


# ----------------------------------------------------------------------
# 2. Identical campaigns -> identical traces
# ----------------------------------------------------------------------

def _traced_campaign(directory) -> list[str]:
    model = build_model()
    gen = DCGenerator(model, DCGenConfig(threshold=THRESHOLD, gen_batch=128))
    with telemetry.session(directory, run_id="det") as sess:
        stream = gen.generate(TOTAL, seed=SEED)
        delta = sess.metrics_delta()
    return stream, delta


def test_identical_campaigns_emit_identical_telemetry(tmp_path):
    stream_a, delta_a = _traced_campaign(tmp_path / "a")
    stream_b, delta_b = _traced_campaign(tmp_path / "b")
    assert stream_a == stream_b
    assert delta_a == delta_b

    events_a = telemetry.stable_events(telemetry.read_events(tmp_path / "a" / "telemetry.jsonl"))
    events_b = telemetry.stable_events(telemetry.read_events(tmp_path / "b" / "telemetry.jsonl"))
    assert events_a == events_b

    summary_a = telemetry.summarize_campaign(tmp_path / "a")
    summary_b = telemetry.summarize_campaign(tmp_path / "b")
    for key in ("planned", "executed", "total_guesses", "faults", "resumed"):
        assert summary_a[key] == summary_b[key], key


def test_two_worker_merge_is_deterministic(tmp_path):
    """Worker split does not change the merged accounting."""
    for sub in ("a", "b"):
        model = build_model()
        gen = DCGenerator(model, DCGenConfig(threshold=THRESHOLD, gen_batch=128, workers=2))
        with telemetry.session(tmp_path / sub, run_id="det"):
            gen.generate(TOTAL, seed=SEED)
    summary_a = telemetry.summarize_campaign(tmp_path / "a")
    summary_b = telemetry.summarize_campaign(tmp_path / "b")
    for key in ("planned", "executed", "total_guesses", "faults", "resumed"):
        assert summary_a[key] == summary_b[key], key
    assert telemetry.check_summary(summary_a) == []
    assert telemetry.check_summary(summary_b) == []


# ----------------------------------------------------------------------
# 3. Merged summary == planned budget (the acceptance criterion)
# ----------------------------------------------------------------------

def test_two_worker_journaled_campaign_matches_planned_budget(tmp_path):
    model = build_model()
    gen = DCGenerator(model, DCGenConfig(threshold=THRESHOLD, gen_batch=128, workers=2))
    with telemetry.session(tmp_path / "tele", run_id="campaign"):
        stream = gen.generate(TOTAL, seed=SEED, journal=tmp_path / "run.jsonl")

    batches = build_batches(gen.leaf_tasks, 128)
    planned = planned_execute_costs(batches)

    summary = telemetry.summarize_campaign(tmp_path / "tele")
    assert summary["planned"]["rows"] == len(stream)
    executed = summary["executed"]
    assert executed["tasks"] == len(batches)
    assert executed["guesses"] == len(stream)
    assert executed["model_calls"] == planned["model_calls"]
    assert executed["prompt_cache_hits"] == planned["prompt_cache_hits"]
    assert summary["total_guesses"] == len(stream)
    assert telemetry.check_summary(summary) == []

    # Per-worker traces exist and the merge saw every source.
    workers = [name for name in summary["files"] if name.startswith("telemetry-worker-")]
    assert workers, "no per-worker telemetry streams were written"
    assert sum(w["tasks"] for w in summary["workers"].values()) == len(batches)

    # Journal writes were spanned and counted.
    assert summary["journal_records"] >= len(batches)


def test_serial_campaign_also_passes_check(tmp_path):
    gen = _generator(workers=1)
    with telemetry.session(tmp_path, run_id="serial"):
        stream = gen.generate(TOTAL, seed=SEED)
    summary = telemetry.summarize_campaign(tmp_path)
    assert summary["total_guesses"] == len(stream)
    assert telemetry.check_summary(summary) == []


# ----------------------------------------------------------------------
# 4. Fault accounting
# ----------------------------------------------------------------------

def test_worker_crash_retry_is_counted(tmp_path, monkeypatch):
    reference = _generator(workers=1).generate(TOTAL, seed=SEED)

    # One-shot crash of pool task #1: the first attempt dies, the retry
    # succeeds (the state dir marks the directive as already tripped).
    monkeypatch.setenv(faults.FAULT_ENV, "crash:worker:1")
    monkeypatch.setenv(faults.FAULT_STATE_ENV, str(tmp_path / "faults"))

    gen = _generator(workers=2)
    with telemetry.session(tmp_path / "tele", run_id="retry"):
        stream = gen.generate(TOTAL, seed=SEED)
    assert stream == reference  # the retry changed nothing downstream

    summary = telemetry.summarize_campaign(tmp_path / "tele")
    assert summary["faults"]["task_failed"] >= 1
    assert summary["faults"]["task_recovered"] >= 1
    assert summary["faults"]["unaccounted"] == []
    assert any(
        "InjectedFault" in detail["error"] for detail in summary["faults"]["details"]
    )
    assert telemetry.check_summary(summary) == []


def test_crash_resume_campaign_is_accounted(tmp_path, monkeypatch):
    reference = _generator(workers=1).generate(TOTAL, seed=SEED)
    journal = tmp_path / "run.jsonl"
    tele_dir = tmp_path / "tele"

    # Crash the parent after two journaled leaf batches...
    monkeypatch.setenv(faults.FAULT_ENV, "crash:leaf_batch:2")
    telemetry.start_session(tele_dir, run_id="resume")
    with pytest.raises(faults.InjectedFault):
        _generator(workers=1).generate(TOTAL, seed=SEED, journal=journal)

    # ...then clear the fault and resume into the same telemetry dir.
    monkeypatch.delenv(faults.FAULT_ENV)
    faults.reset()
    stream = _generator(workers=1).generate(TOTAL, seed=SEED, journal=journal, resume=True)
    telemetry.end_session()
    assert stream == reference  # resume is byte-identical

    summary = telemetry.summarize_campaign(tele_dir)
    assert summary["resumed"]["tasks"] >= 1  # the resume replayed journaled work
    assert summary["resumed"]["guesses"] > 0
    # The crash fired *before* the journal write, so the interrupted
    # batch ran twice: executed totals may exceed the plan but the
    # resume-aware invariants must still hold.
    assert summary["total_guesses"] >= len(reference)
    assert telemetry.check_summary(summary) == []

    events = _summary_events(tele_dir)
    assert any(e["event"] == "campaign_resume" for e in events)

    # The resume rejoined the first attempt's trace: its campaign span
    # hangs under the crashed one, so both legs export as one tree.  Both
    # legs share one session; a second session in this process would
    # restart the span counter and reuse the first leg's span ids.
    spans = telemetry.load_spans(tele_dir)
    assert [s["name"] for s in spans].count("campaign") == 2
    assert telemetry.check_trace_tree(spans) == []


# ----------------------------------------------------------------------
# 5. A session counts its own context's work
# ----------------------------------------------------------------------

def test_concurrent_sessions_each_account_their_own_campaign(tmp_path):
    """Two traced campaigns on two threads, each with its own model and
    session, as two server fleet slots run them."""
    generators = {name: _generator() for name in ("a", "b")}
    both_open = Barrier(2, timeout=120)

    def run(name: str) -> list[str]:
        with telemetry.session(tmp_path / name, run_id=name):
            both_open.wait()
            return generators[name].generate(TOTAL, seed=SEED)

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {name: pool.submit(run, name) for name in generators}
        streams = {name: future.result(timeout=300) for name, future in futures.items()}
    assert streams["a"] == streams["b"]
    for name in generators:
        summary = telemetry.summarize_campaign(tmp_path / name)
        assert summary["total_guesses"] == len(streams[name])
        assert telemetry.check_summary(summary) == [], name


def test_engine_rebuilt_in_a_session_is_counted_in_full(tmp_path):
    """A session open across an engine rebuild reports the new engine's
    work, not its count minus the replaced engine's."""
    gen = _generator()
    gen.generate(TOTAL, seed=SEED)  # the first engine's work, before the session
    with telemetry.session(tmp_path) as sess:
        gen.model.invalidate_inference()
        gen.generate(TOTAL, seed=SEED)
        delta = sess.metrics_delta()
    counters = gen.model.inference.counters
    assert counters.calls > 0
    assert delta["inference.calls"] == counters.calls
    assert delta["inference.prime_positions"] == counters.prime_positions
