"""Guessing as a service: protocol, admission, job store, live server.

The live-server tests drive a real ``CampaignServer`` over real sockets
using the chaos harness's thread runner and HTTP helpers — the same
path ``repro serve`` and the server soak exercise.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from repro import telemetry
from repro.generation import DCGenConfig, DCGenerator, OrderedGenerator, run_strategy
from repro.models import PagPassGPT
from repro.nn import GPT2Config, GPT2Inference
from repro.runtime import chaos, faults
from repro.runtime.faults import FAULT_ENV, FAULT_STATE_ENV
from repro.server import (
    AdmissionController,
    CampaignServer,
    CampaignSpec,
    JobStore,
    RequestError,
    ServerConfig,
    TokenBucket,
)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, trained_pagpassgpt):
    path = tmp_path_factory.mktemp("server-model") / "model.npz"
    trained_pagpassgpt.save(path)
    return str(path)


def _config(checkpoint: str, state_dir, **overrides) -> ServerConfig:
    kwargs = dict(
        checkpoint=checkpoint,
        state_dir=str(state_dir),
        port=0,
        fleet=1,
        poll_interval=0.02,
    )
    kwargs.update(overrides)
    return ServerConfig(**kwargs)


def _wait_terminal(port: int, job_id: int, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, job, _ = chaos._http_json(port, "GET", f"/campaigns/{job_id}")
        if job["state"] in ("done", "failed", "interrupted"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"request {job_id} never reached a terminal state")


# ----------------------------------------------------------------------
# Protocol validation
# ----------------------------------------------------------------------

class TestProtocol:
    def test_minimal_generate_payload(self):
        spec = CampaignSpec.from_payload({"n": 10}, kind="generate")
        assert spec.kind == "generate"
        assert spec.n == 10
        assert spec.strategy == "sampled"
        assert spec.tenant == "public"
        assert spec.budget() is None

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {},  # n is required
            {"n": 0},
            {"n": -3},
            {"n": 10, "strategy": "best_first"},
            {"n": 10, "bogus_field": 1},  # unknown fields are rejected
            {"n": 10, "tenant": "no spaces allowed"},
            {"n": 10, "workers": "two"},
            {"n": 10, "workers": 99},
            {"n": 10, "deadline": -5},
            {"n": 10, "max_guesses": 0},
            {"n": 10, "seed": True},
            {"n": 10, "strategy": "dcgen", "threshold": 0},
            {"n": 10, "strategy": "dcgen", "threshold": 1_000_001},
        ],
    )
    def test_invalid_generate_payloads(self, payload):
        with pytest.raises(RequestError) as info:
            CampaignSpec.from_payload(payload, kind="generate")
        assert info.value.status == 400
        assert info.value.code == "invalid_request"

    def test_score_payload_requires_nonempty_lines(self):
        with pytest.raises(RequestError):
            CampaignSpec.from_payload({"guesses": [], "test": ["x"]}, kind="score")
        with pytest.raises(RequestError):
            CampaignSpec.from_payload({"guesses": ["x"]}, kind="score")
        spec = CampaignSpec.from_payload(
            {"guesses": ["a", "b"], "test": ["a"]}, kind="score"
        )
        assert spec.guesses == ("a", "b")

    def test_journal_round_trip(self):
        spec = CampaignSpec.from_payload(
            {"n": 5, "strategy": "dcgen", "threshold": 16, "seed": 3,
             "tenant": "t1", "max_guesses": 9, "deadline": 2.5},
            kind="generate",
        )
        assert CampaignSpec.from_journal(spec.to_payload()) == spec
        # and the payload itself must be JSON-safe
        json.dumps(spec.to_payload())

    def test_request_budget(self):
        spec = CampaignSpec.from_payload(
            {"n": 5, "deadline": 2.5, "max_guesses": 100}, kind="generate"
        )
        budget = spec.budget()
        assert budget.wall_seconds == 2.5
        assert budget.max_guesses == 100


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_exact_refill_wait(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.take() == 0.0
        assert bucket.take() == 0.0
        assert bucket.take() == pytest.approx(0.5)  # 1 token / 2 per s
        clock.t = 0.5
        assert bucket.take() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.t = 100.0  # a long idle period must not bank extra tokens
        assert bucket.take() == 0.0
        assert bucket.take() == 0.0
        assert bucket.take() > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmission:
    def test_draining_outranks_everything(self):
        ctrl = AdmissionController(clock=FakeClock())
        with pytest.raises(RequestError) as info:
            ctrl.admit("t", tenant_queued=0, total_queued=0, draining=True)
        assert (info.value.status, info.value.code) == (503, "draining")
        assert info.value.retry_after == 30.0

    def test_global_queue_full_is_503(self):
        ctrl = AdmissionController(max_queue=4, clock=FakeClock())
        with pytest.raises(RequestError) as info:
            ctrl.admit("t", tenant_queued=0, total_queued=4, draining=False)
        assert (info.value.status, info.value.code) == (503, "queue_full")

    def test_tenant_queue_full_is_429(self):
        ctrl = AdmissionController(
            max_queue=64, max_tenant_queue=2, clock=FakeClock()
        )
        with pytest.raises(RequestError) as info:
            ctrl.admit("greedy", tenant_queued=2, total_queued=2, draining=False)
        assert (info.value.status, info.value.code) == (429, "tenant_queue_full")

    def test_rate_limit_has_exact_retry_after_per_tenant(self):
        clock = FakeClock()
        ctrl = AdmissionController(
            max_queue=64, max_tenant_queue=8, rate=2.0, burst=1.0, clock=clock
        )
        ctrl.admit("alice", tenant_queued=0, total_queued=0, draining=False)
        with pytest.raises(RequestError) as info:
            ctrl.admit("alice", tenant_queued=0, total_queued=0, draining=False)
        assert (info.value.status, info.value.code) == (429, "rate_limited")
        assert info.value.retry_after == pytest.approx(0.5)
        # every tenant has its own bucket
        ctrl.admit("bob", tenant_queued=0, total_queued=0, draining=False)


# ----------------------------------------------------------------------
# Job store persistence
# ----------------------------------------------------------------------

def _spec(n: int = 5, tenant: str = "t") -> CampaignSpec:
    return CampaignSpec.from_payload({"n": n, "tenant": tenant}, kind="generate")


class TestJobStore:
    def test_admit_is_durable_before_the_ack(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.admit(_spec())
        # the request is on disk the moment admit() returns
        raw = (tmp_path / "requests.journal.jsonl").read_text()
        assert f'"task_id":{job.job_id}' in raw
        assert '"kind":"request"' in raw and '"state":"queued"' in raw
        store.close()

    def test_restart_replays_lifecycle_and_recovers(self, tmp_path):
        store = JobStore(tmp_path)
        a, b, c, d = (store.admit(_spec()) for _ in range(4))
        store.set_state(a, "done", guesses=5)
        store.set_state(b, "running")
        store.set_state(c, "interrupted", reason="signal", resumable=True)
        store.close()

        again = JobStore(tmp_path)
        assert again.jobs[a.job_id].state == "done"
        assert again.jobs[a.job_id].detail == {"guesses": 5}
        # queued/running died with the process; interrupted(signal) is a
        # drain checkpoint — all three must be re-queued, in id order.
        assert [j.job_id for j in again.to_recover()] == [
            b.job_id, c.job_id, d.job_id
        ]
        e = again.admit(_spec())
        assert e.job_id == d.job_id + 1  # ids are never reused
        again.close()

    def test_interrupted_by_deadline_is_terminal(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.admit(_spec())
        store.set_state(job, "interrupted", reason="deadline")
        assert job.terminal and not job.resumable
        assert store.to_recover() == []
        store.close()

    def test_counts_and_tenant_depths(self, tmp_path):
        store = JobStore(tmp_path)
        store.admit(_spec(tenant="a"))
        store.admit(_spec(tenant="a"))
        done = store.admit(_spec(tenant="b"))
        store.set_state(done, "done")
        assert store.counts()["queued"] == 2
        assert store.counts()["done"] == 1
        assert store.queued_by_tenant() == {"a": 2}
        store.close()


class TestJobFailures:
    def test_full_journal_fails_the_job_at_any_worker_count(
        self, checkpoint, tmp_path, monkeypatch
    ):
        """An ENOSPC on a job's run journal ends that job ``failed`` with
        ``disk_full`` on the pool as in serial: the pool never turns it
        into a serial rerun that reports ``done``."""
        server = CampaignServer(_config(checkpoint, tmp_path / "state"))
        try:
            for workers in (1, 2):
                job = server.store.admit(CampaignSpec.from_payload(
                    {"strategy": "dcgen", "n": 600, "threshold": 32, "workers": workers},
                    kind="generate",
                ))
                faults.reset()
                monkeypatch.setenv(FAULT_ENV, "disk_full:journal:1")
                monkeypatch.setenv(FAULT_STATE_ENV, str(tmp_path / f"faults-{workers}"))
                state, detail = server._run_job_sync(job)
                monkeypatch.delenv(FAULT_ENV)
                assert (state, detail.get("error")) == ("failed", "disk_full"), workers
        finally:
            server.store.close()


# ----------------------------------------------------------------------
# Live server over real sockets
# ----------------------------------------------------------------------

class TestLiveServer:
    @pytest.fixture
    def server(self, checkpoint, tmp_path):
        runner = chaos._ServerThread(_config(checkpoint, tmp_path / "state"))
        port = runner.start()
        yield runner, port
        if runner.thread.is_alive():
            runner.drain(timeout=120.0)

    def test_submit_poll_fetch_matches_direct_generation(
        self, server, trained_pagpassgpt
    ):
        _, port = server
        status, obj, _ = chaos._http_json(
            port, "POST", "/campaigns", {"n": 40, "seed": 11, "tenant": "alice"}
        )
        assert status == 202
        assert obj["state"] == "queued"
        job = _wait_terminal(port, obj["id"])
        assert job["state"] == "done", job
        assert job["detail"]["guesses"] > 0
        status, data, _ = chaos._http_request(
            port, "GET", f"/campaigns/{obj['id']}/guesses"
        )
        assert status == 200
        expected = trained_pagpassgpt.generate(40, seed=11)
        assert data.decode("utf-8").splitlines() == expected

    def test_dcgen_threshold_one_matches_direct_generation(self, server, trained_pagpassgpt):
        """The server takes every threshold ``repro generate`` takes."""
        _, port = server
        status, obj, _ = chaos._http_json(
            port, "POST", "/campaigns", {"n": 60, "strategy": "dcgen", "seed": 4, "threshold": 1}
        )
        assert status == 202, obj
        job = _wait_terminal(port, obj["id"])
        assert job["state"] == "done", job
        _, data, _ = chaos._http_request(port, "GET", f"/campaigns/{obj['id']}/guesses")
        expected, _, _ = run_strategy(trained_pagpassgpt, "dcgen", 60, seed=4, threshold=1)
        assert data.decode("utf-8").splitlines() == expected

    @pytest.mark.parametrize("kind", ["pagpassgpt", "passgpt"])
    def test_ordered_job_matches_direct_enumeration(
        self, server, kind, trained_passgpt, tmp_path
    ):
        """Ordered jobs run on both GPT checkpoint kinds: pattern-
        conditioned for PagPassGPT, unconditional for PassGPT."""
        if kind == "pagpassgpt":
            # Two short patterns keep best-first enumeration under the
            # server's default OrderedConfig() to well under a second.
            model = PagPassGPT(
                model_config=GPT2Config(vocab_size=135, block_size=32, dim=16,
                                        n_layers=1, n_heads=2, dropout=0.0),
                seed=0,
            )
            model._fitted = True
            model.pattern_probs = {"N4": 0.6, "L2N2": 0.4}
            root = OrderedGenerator.for_patterns
        else:
            model, root = trained_passgpt, OrderedGenerator.unconditional
        path = tmp_path / f"{kind}.npz"
        model.save(path)
        runner, port = server
        status, obj, _ = chaos._http_json(
            port, "POST", "/campaigns",
            {"n": 30, "strategy": "ordered", "checkpoint": str(path)},
        )
        assert status == 202
        job = _wait_terminal(port, obj["id"])
        assert job["state"] == "done", job
        status, data, _ = chaos._http_request(
            port, "GET", f"/campaigns/{obj['id']}/guesses"
        )
        assert status == 200
        direct = root(model)
        assert data.decode("utf-8").splitlines() == direct.generate(30)
        exactness = {"emitted": 30, "exact_prefix": direct.stats.exact_prefix}
        assert {key: job["detail"][key] for key in exactness} == exactness
        # The detail is journaled with the terminal state: a restarted
        # server reports it too.
        runner.drain(timeout=120.0)
        store = JobStore(tmp_path / "state")
        assert {key: store.jobs[obj["id"]].detail[key] for key in exactness} == exactness
        store.close()

    def test_score_round_trip(self, server):
        _, port = server
        status, obj, _ = chaos._http_json(
            port, "POST", "/score",
            {"guesses": ["password", "hunter2", "hunter2"],
             "test": ["password", "letmein"]},
        )
        assert status == 200
        assert obj["hit_rate"] == pytest.approx(0.5)
        assert obj["unique_guesses"] == 2

    def test_quota_interruption_is_terminal_and_guesses_409(self, server):
        _, port = server
        status, obj, _ = chaos._http_json(
            port, "POST", "/campaigns", {"n": 500_000, "max_guesses": 64}
        )
        assert status == 202
        job = _wait_terminal(port, obj["id"])
        assert job["state"] == "interrupted", job
        assert job["detail"]["reason"] == "guesses"
        assert job["detail"]["resumable"] is False
        status, body, _ = chaos._http_json(
            port, "GET", f"/campaigns/{obj['id']}/guesses"
        )
        assert status == 409
        assert body["error"] == "not_finished"

    def test_passgpt_sampled_job_honours_its_deadline(
        self, server, trained_passgpt, tmp_path
    ):
        """A PassGPT checkpoint's sampled job runs the journaled free
        campaign, so its budget stops it like any other campaign."""
        path = tmp_path / "passgpt.npz"
        trained_passgpt.save(path)
        _, port = server
        status, obj, _ = chaos._http_json(
            port, "POST", "/campaigns",
            {"n": 200_000, "deadline": 0.5, "checkpoint": str(path)},
        )
        assert status == 202
        job = _wait_terminal(port, obj["id"])
        assert job["state"] == "interrupted", job
        assert job["detail"]["reason"] == "deadline"
        assert job["detail"]["resumable"] is False

    def test_corrupt_checkpoint_degrades_that_request_only(
        self, server, tmp_path
    ):
        _, port = server
        bad = tmp_path / "garbage.npz"
        bad.write_bytes(b"this is not a checkpoint")
        status, obj, _ = chaos._http_json(
            port, "POST", "/campaigns", {"n": 10, "checkpoint": str(bad)}
        )
        assert status == 202
        job = _wait_terminal(port, obj["id"])
        assert job["state"] == "failed"
        assert job["detail"]["error"]  # typed, named failure
        # ...and the server is still healthy for the next request
        status, obj, _ = chaos._http_json(port, "POST", "/campaigns", {"n": 10})
        assert status == 202
        assert _wait_terminal(port, obj["id"])["state"] == "done"

    def test_missing_checkpoint_is_rejected_at_admission(self, server):
        _, port = server
        status, body, _ = chaos._http_json(
            port, "POST", "/campaigns",
            {"n": 10, "checkpoint": "/nonexistent/model.npz"},
        )
        assert status == 400
        assert body["error"] == "invalid_request"

    def test_http_surface_errors(self, server):
        _, port = server
        status, _, _ = chaos._http_request(port, "POST", "/campaigns", timeout=30.0)
        assert status == 400  # empty body is not JSON
        status, body, _ = chaos._http_json(port, "GET", "/campaigns/999")
        assert status == 404 and body["error"] == "not_found"
        status, body, _ = chaos._http_json(port, "GET", "/nope")
        assert status == 404
        status, body, _ = chaos._http_json(port, "POST", "/status")
        assert status in (404, 405)

    def test_status_metrics_healthz(self, server):
        _, port = server
        status, body, _ = chaos._http_json(port, "GET", "/status")
        assert status == 200
        assert body["state"] == "serving"
        assert set(body["jobs"]) == {
            "queued", "running", "done", "failed", "interrupted"
        }
        status, metrics, _ = chaos._http_json(port, "GET", "/metrics")
        assert status == 200 and isinstance(metrics, dict)
        status, health, _ = chaos._http_json(port, "GET", "/healthz")
        assert status == 200 and health["ok"] is True


class TestBackpressure:
    def test_tenant_queue_cap_yields_429_with_retry_after(
        self, checkpoint, tmp_path
    ):
        runner = chaos._ServerThread(
            _config(checkpoint, tmp_path / "state", max_tenant_queue=1)
        )
        port = runner.start()
        try:
            status, first, _ = chaos._http_json(
                port, "POST", "/campaigns",
                {"n": 200_000, "tenant": "greedy", "seed": 1},
            )
            assert status == 202
            # wait until the fleet picks it up so the queue depth is ours
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                _, body, _ = chaos._http_json(port, "GET", "/status")
                if body["jobs"]["running"] >= 1:
                    break
                time.sleep(0.02)
            status, _, _ = chaos._http_json(
                port, "POST", "/campaigns",
                {"n": 10, "tenant": "greedy", "seed": 2},
            )
            assert status == 202  # fills the single tenant-queue slot
            status, body, retry_after = chaos._http_json(
                port, "POST", "/campaigns",
                {"n": 10, "tenant": "greedy", "seed": 3},
            )
            assert status == 429
            assert body["error"] == "tenant_queue_full"
            assert retry_after is not None and int(retry_after) >= 1
            # an independent tenant is still admitted
            status, _, _ = chaos._http_json(
                port, "POST", "/campaigns", {"n": 10, "tenant": "patient"}
            )
            assert status == 202
        finally:
            runner.drain(timeout=120.0)


class TestDrainAndResume:
    def test_sigterm_drain_checkpoints_and_restart_resumes_byte_identically(
        self, checkpoint, tmp_path, trained_pagpassgpt, trained_passgpt
    ):
        passgpt = tmp_path / "passgpt.npz"
        trained_passgpt.save(passgpt)
        # (request, its stream from a direct run, the job states the drain
        # may leave): a few D&C-GEN leaf batches may all land before the
        # stop does; 40 PassGPT free chunks cannot.
        cases = [
            ({"n": 1500, "strategy": "dcgen", "threshold": 32, "seed": 5},
             lambda: DCGenerator(
                 trained_pagpassgpt, DCGenConfig(threshold=32, workers=1)
             ).generate(1500, seed=5),
             {"interrupted", "done"}),
            ({"n": 20_000, "seed": 5, "checkpoint": str(passgpt)},
             lambda: trained_passgpt.generate(20_000, seed=5),
             {"interrupted"}),
        ]
        for index, (payload, direct, drained_states) in enumerate(cases):
            state_dir = tmp_path / f"state{index}"
            runner = chaos._ServerThread(_config(checkpoint, state_dir))
            port = runner.start()
            status, obj, _ = chaos._http_json(port, "POST", "/campaigns", payload)
            assert status == 202
            job_id = obj["id"]
            # let the campaign get under way, then stop the way SIGTERM does
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                _, job, _ = chaos._http_json(port, "GET", f"/campaigns/{job_id}")
                if job["state"] == "running" and job["progress"]["done"] > 0:
                    break
                if job["state"] in ("done", "failed"):
                    break
                time.sleep(0.01)
            summary = runner.drain(timeout=120.0)
            assert summary["reason"] == "signal"
            store = JobStore(state_dir)
            drained = store.jobs[job_id]
            store.close()
            assert drained.state in drained_states, drained
            assert drained.state == "done" or drained.resumable, drained

            # a fresh server over the same state dir must finish the job
            runner = chaos._ServerThread(_config(checkpoint, state_dir))
            port = runner.start()
            try:
                job = _wait_terminal(port, job_id)
                assert job["state"] == "done", job
                _, data, _ = chaos._http_request(
                    port, "GET", f"/campaigns/{job_id}/guesses"
                )
                assert data.decode("utf-8") == "\n".join(direct()) + "\n"
            finally:
                runner.drain(timeout=120.0)

    def test_draining_server_rejects_new_work_with_503(
        self, checkpoint, tmp_path
    ):
        runner = chaos._ServerThread(_config(checkpoint, tmp_path / "state"))
        port = runner.start()
        runner.server.draining = True  # poke the flag the drain path sets
        try:
            status, body, retry_after = chaos._http_json(
                port, "POST", "/campaigns", {"n": 10}
            )
            assert status == 503
            assert body["error"] == "draining"
            assert retry_after is not None
        finally:
            runner.server.draining = False
            runner.drain(timeout=120.0)


class TestServerSoak:
    def test_seeded_soak_holds_all_invariants(self, checkpoint, tmp_path):
        report = chaos.run_server_soak(
            checkpoint,
            tmp_path / "soak",
            base_seed=0,
            strategies=["dcgen", "sampled"],
            workers_list=[1, 2],
            per_strategy=1,
            clients=2,
            n=120,
        )
        assert report.ok, report.failures
        assert len(report.cases) == 4  # one request per schedule case
        assert len(report.drains) == 2  # one per server lifetime
        # The worker fault fired in phase 1...
        assert list((tmp_path / "soak" / "fault-state").glob("*.tripped"))
        # ...and phase 1's drain landed mid-run, leaving work to recover.
        phase1 = report.drains[0]["jobs"]
        assert phase1["queued"] + phase1["interrupted"] >= 1
        for result in report.cases:
            if result.resume_outcome == "job:done":
                assert result.identical is True
                assert result.check_ok is True
        # the report is JSON-serializable for soak-report.json
        json.dumps(report.to_dict())

    def test_schedule_without_a_pool_case_is_a_failure(self, checkpoint, tmp_path):
        report = chaos.run_server_soak(
            checkpoint, tmp_path / "soak", strategies=["dcgen", "sampled"],
            workers_list=[1], per_strategy=1, n=120,
        )
        assert not report.ok
        assert report.harness_failures == [
            "no case reaches the worker pool, so the soak's fault cannot fire"
        ]


class TestTracedFleet:
    """``job_telemetry`` keeps the fleet: each job's session counts only
    the work done in its own fleet thread."""

    N = 3000
    THRESHOLD = 64

    def _submit(self, port: int, seed: int) -> int:
        status, obj, _ = chaos._http_json(
            port, "POST", "/campaigns",
            {"n": self.N, "strategy": "dcgen", "seed": seed, "threshold": self.THRESHOLD},
        )
        assert status == 202, obj
        return obj["id"]

    def _check_session(self, state_dir, job_id: int) -> dict:
        """The job's merged summary passes ``summarize --check``; returns
        the session's closing metrics snapshot."""
        tele = state_dir / "jobs" / f"{job_id:06d}" / "tele"
        summary = telemetry.summarize_campaign(tele)
        assert telemetry.check_summary(summary) == [], job_id
        events = telemetry.read_events(tele / "telemetry.jsonl")
        [snapshot] = [e["fields"]["metrics"] for e in events if e["event"] == "metrics_snapshot"]
        return snapshot

    def test_two_traced_jobs_run_at_once(self, checkpoint, trained_pagpassgpt, tmp_path):
        state_dir = tmp_path / "state"
        runner = chaos._ServerThread(
            _config(checkpoint, state_dir, fleet=2, job_telemetry=True)
        )
        port = runner.start()
        try:
            assert runner.server.config.fleet == 2
            seeds = {self._submit(port, seed): seed for seed in (3, 4)}
            most_running = 0
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                _, status, _ = chaos._http_json(port, "GET", "/status")
                most_running = max(most_running, len(status["running"]))
                if status["jobs"]["done"] + status["jobs"]["failed"] == len(seeds):
                    break
                time.sleep(0.01)
            assert most_running == 2
            for job_id, seed in seeds.items():
                job = _wait_terminal(port, job_id)
                assert job["state"] == "done", job
                _, data, _ = chaos._http_request(port, "GET", f"/campaigns/{job_id}/guesses")
                expected, _, _ = run_strategy(
                    trained_pagpassgpt, "dcgen", self.N, seed=seed, threshold=self.THRESHOLD
                )
                assert data.decode("utf-8").splitlines() == expected
                self._check_session(state_dir, job_id)
        finally:
            runner.drain(timeout=120.0)

    def test_a_multi_slot_server_runs_blas_on_one_thread(
        self, checkpoint, tmp_path, monkeypatch
    ):
        from repro.server import core

        pinned = []
        monkeypatch.setattr(core, "set_blas_threads", pinned.append)
        for fleet in (1, 2):
            server = CampaignServer(_config(checkpoint, tmp_path / f"state-{fleet}", fleet=fleet))
            server.store.close()
        assert pinned == [1]

    def test_one_blas_thread_survives_a_fork_in_another_thread(self):
        """What a multi-slot server relies on: a slot may fork its worker
        pool while another slot is inside a BLAS call.  With OpenBLAS's
        own threads that call spins forever."""
        script = """
import os, threading, time
import numpy as np
from repro.nn.backend.blas import set_num_threads
if not set_num_threads(1):
    raise SystemExit("no OpenBLAS")
a = np.ones((256, 256), dtype=np.float32)
stop, done = threading.Event(), []
def work():
    while not stop.is_set():
        a @ a
        done.append(1)
thread = threading.Thread(target=work, daemon=True)
thread.start()
end = time.monotonic() + 1.0
while time.monotonic() < end:
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    time.sleep(0.002)
stop.set()
thread.join(10)
print("stranded" if thread.is_alive() else "finished", len(done))
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, timeout=120, env=env)
        if "no OpenBLAS" in run.stderr:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert run.returncode == 0, run.stderr
        verdict, matmuls = run.stdout.split()
        assert verdict == "finished" and int(matmuls) > 0

    def test_traced_jobs_in_a_row_reuse_the_slots_engine(
        self, checkpoint, tmp_path, monkeypatch
    ):
        built = []
        init = GPT2Inference.__init__

        def recording_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            built.append(engine)

        monkeypatch.setattr(GPT2Inference, "__init__", recording_init)
        state_dir = tmp_path / "state"
        runner = chaos._ServerThread(_config(checkpoint, state_dir, job_telemetry=True))
        port = runner.start()
        try:
            calls = 0
            for seed in (3, 4):
                job = _wait_terminal(port, self._submit(port, seed))
                assert job["state"] == "done", job
                calls += self._check_session(state_dir, job["id"])["inference.calls"]
        finally:
            runner.drain(timeout=120.0)
        [engine] = built  # the second job ran on the first job's engine
        assert calls == engine.counters.calls


# ----------------------------------------------------------------------
# Observability surface: Prometheus exposition, traces, repro top
# ----------------------------------------------------------------------

def _http_with_headers(port, method, path, payload=None, headers=None):
    """Like chaos._http_request but with caller-controlled headers."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        all_headers = {"Content-Type": "application/json"} if body else {}
        all_headers.update(headers or {})
        conn.request(method, path, body=body, headers=all_headers)
        response = conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        conn.close()


# Label values are quoted and may contain any escaped character --
# including "}" (e.g. route="/campaigns/{id}") -- so the label block
# must be parsed as quoted pairs, not as a brace-delimited blob.
_PROM_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{" + _PROM_LABEL + r"(," + _PROM_LABEL + r")*,?\})?"
    r" (?:[0-9.eE+-]+|NaN|[+-]Inf)$"
)
_PROM_TYPE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$"
)


class TestObservability:
    @pytest.fixture
    def server(self, checkpoint, tmp_path):
        runner = chaos._ServerThread(_config(checkpoint, tmp_path / "state"))
        port = runner.start()
        yield runner, port, tmp_path / "state"
        if runner.thread.is_alive():
            runner.drain(timeout=120.0)

    def _scrape(self, port):
        status, data, headers = _http_with_headers(
            port, "GET", "/metrics?format=prometheus"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        return data.decode("utf-8")

    def test_prometheus_exposition_parses_line_by_line(self, server):
        _, port, _ = server
        # Generate some traffic so request histograms exist.
        chaos._http_json(port, "GET", "/status")
        chaos._http_json(port, "GET", "/healthz")
        text = self._scrape(port)
        assert text.endswith("\n")
        seen_types = {}
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# TYPE"):
                assert _PROM_TYPE.match(line), line
                name = line.split(" ")[2]
                assert name not in seen_types, f"duplicate TYPE for {name}"
                seen_types[name] = line.split(" ")[3]
            elif line.startswith("#"):
                continue  # HELP or comment
            else:
                assert _PROM_SAMPLE.match(line), line
                base = line.split("{")[0].split(" ")[0]
                # Samples appear contiguously under their family's TYPE:
                # the base (after stripping histogram/counter suffixes)
                # must already have been declared.
                assert any(
                    base == t or base.startswith(t + "_") for t in seen_types
                ), line
        assert seen_types, "no metric families rendered"

    def test_prometheus_histogram_buckets_cumulative_to_inf(self, server):
        _, port, _ = server
        for _ in range(3):
            chaos._http_json(port, "GET", "/status")
        text = self._scrape(port)
        lines = text.splitlines()
        bucket_lines = [
            l for l in lines
            if l.startswith("repro_server_request_ms_bucket")
            and 'route="/status"' in l
        ]
        assert bucket_lines, text
        les, counts = [], []
        for line in bucket_lines:
            label_part = line[line.index("{") + 1:line.index("}")]
            labels = dict(p.split("=", 1) for p in label_part.split(","))
            les.append(labels['le'].strip('"'))
            counts.append(float(line.rsplit(" ", 1)[1]))
        assert les[-1] == "+Inf"
        assert counts == sorted(counts), "bucket counts must be cumulative"
        count_line = next(
            l for l in lines
            if l.startswith("repro_server_request_ms_count")
            and 'route="/status"' in l
        )
        assert float(count_line.rsplit(" ", 1)[1]) == counts[-1]
        assert any(
            l.startswith("repro_server_request_ms_sum") and 'route="/status"' in l
            for l in lines
        )

    def test_metrics_json_shape_unchanged(self, server):
        """The JSON endpoint holds counters, gauges and histograms; a job's
        inference work is among the counters, in both formats."""
        _, port, _ = server
        status, obj, _ = chaos._http_json(port, "POST", "/campaigns", {"n": 5, "seed": 2})
        assert status == 202
        _wait_terminal(port, obj["id"])
        status, metrics, _ = chaos._http_json(port, "GET", "/metrics")
        assert status == 200
        assert set(metrics) == {"counters", "gauges", "histograms"}
        assert metrics["counters"]["inference.calls"] > 0
        assert "# TYPE repro_inference_calls_total counter" in self._scrape(port).splitlines()

    def test_traceparent_header_joins_the_callers_trace(self, server):
        _, port, state_dir = server
        trace_id = "0af7651916cd43dd8448eb211c80319c"
        parent = "00f067aa0ba902b7"
        status, data, _ = _http_with_headers(
            port, "POST", "/campaigns", {"n": 5, "seed": 3},
            headers={"traceparent": f"00-{trace_id}-{parent}-01"},
        )
        assert status == 202
        job_id = json.loads(data)["id"]
        _wait_terminal(port, job_id)
        # The trace ref was journaled with the request record.
        records = [
            json.loads(line)
            for line in (state_dir / "requests.journal.jsonl").read_text().splitlines()
        ]
        request = next(
            r for r in records
            if r.get("kind") == "request" and r.get("task_id") == job_id
        )
        assert request["payload"]["trace"]["trace_id"] == trace_id
        assert request["payload"]["trace"]["span_id"] == int(parent, 16)

    def test_traced_job_joins_the_callers_trace(self, checkpoint, tmp_path):
        """The job's own session adopts the request's trace: one
        ``trace_context`` naming the caller's trace and span, and the
        campaign span a remote child of that span."""
        state_dir = tmp_path / "state"
        runner = chaos._ServerThread(_config(checkpoint, state_dir, job_telemetry=True))
        port = runner.start()
        trace_id = "4bf92f3577b34da6a3ce929d0e0e4736"
        parent = "00f067aa0ba902b7"
        try:
            status, data, _ = _http_with_headers(
                port, "POST", "/campaigns",
                {"n": 200, "strategy": "dcgen", "seed": 3, "threshold": 64},
                headers={"traceparent": f"00-{trace_id}-{parent}-01"},
            )
            assert status == 202
            job = _wait_terminal(port, json.loads(data)["id"])
            assert job["state"] == "done", job
        finally:
            runner.drain(timeout=120.0)
        tele = state_dir / "jobs" / f"{job['id']:06d}" / "tele"
        contexts = [
            e["fields"] for e in telemetry.read_events(tele / "telemetry.jsonl")
            if e["event"] == "trace_context"
        ]
        assert contexts == [{"trace_id": trace_id, "remote_parent": int(parent, 16)}]
        spans = telemetry.load_spans(tele)
        [campaign] = [s for s in spans if s["name"] == "campaign"]
        assert campaign["parent_id"] == int(parent, 16)
        assert telemetry.check_trace_tree(spans) == []

    def test_submission_without_traceparent_mints_a_trace(self, server):
        _, port, state_dir = server
        status, obj, _ = chaos._http_json(port, "POST", "/campaigns", {"n": 5})
        assert status == 202
        records = [
            json.loads(line)
            for line in (state_dir / "requests.journal.jsonl").read_text().splitlines()
        ]
        request = next(
            r for r in records
            if r.get("kind") == "request" and r.get("task_id") == obj["id"]
        )
        trace = request["payload"]["trace"]
        assert len(trace["trace_id"]) == 32

    def test_labeled_outcome_counters_surface_in_both_formats(self, server):
        _, port, _ = server
        status, obj, _ = chaos._http_json(port, "POST", "/campaigns", {"n": 5, "seed": 1})
        assert status == 202
        _wait_terminal(port, obj["id"])
        status, metrics, _ = chaos._http_json(port, "GET", "/metrics")
        labeled = [
            k for k in metrics["counters"]
            if k.startswith("server.jobs_finished{") and 'state="done"' in k
        ]
        assert labeled
        text = self._scrape(port)
        assert any(
            l.startswith("repro_server_jobs_finished_total{") and 'state="done"' in l
            for l in text.splitlines()
        )

    def test_repro_top_once_renders_a_frame(self, server):
        from repro.server.top import run_top

        _, port, _ = server
        out = io.StringIO()
        code = run_top(f"http://127.0.0.1:{port}", once=True, stream=out)
        assert code == 0
        frame = out.getvalue()
        assert "repro top" in frame
        assert "state: serving" in frame

    def test_repro_top_unreachable_exits_1(self):
        from repro.server.top import run_top

        assert run_top("http://127.0.0.1:1", once=True, stream=io.StringIO()) == 1
