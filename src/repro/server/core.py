"""The campaign server: admission, a shared fleet, deadlines, drain.

:class:`CampaignServer` is the long-lived process the ROADMAP's serving
layer calls for, with robustness as the headline guarantee:

* every accepted request is journaled **before** the 202 leaves the
  socket, so a crashed server restarts and re-queues exactly the
  accepted-but-unfinished work (:mod:`repro.server.jobs`);
* each request executes through the existing campaign machinery — its
  own :class:`~repro.runtime.RunJournal`, the supervised retrying pool
  (``runtime/retry.supervised_map`` underneath ``workers > 1``
  campaigns), per-request backend fallback — so worker crashes, hangs,
  and compiled-backend failures degrade *that request*, never the
  process;
* per-request deadlines compose min-wins with the server-wide budget
  via :meth:`~repro.runtime.Budget.merge`;
* SIGTERM starts a graceful drain: admission closes (503 +
  ``Retry-After``), running requests finish or checkpoint at their next
  durable boundary (the process-global stop request trips their merged
  budgets), queued requests stay journaled for the next process, and
  the server exits 0.

Execution model: the asyncio event loop owns all bookkeeping (journal
writes, state transitions, admission); campaigns run in a small thread
fleet (``config.fleet`` slots), and the heavy lifting inside a campaign
happens in *worker processes* via the supervised pool, so the GIL only
ever carries coordination.  Each fleet slot keeps its own model
instances (inference caches are not thread-safe across concurrent
campaigns).
"""

from __future__ import annotations

import asyncio
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .. import telemetry
from ..evaluation import hit_rate, repeat_rate
from ..generation import UnsupportedStrategy, run_strategy
from ..models import GPTGuesser, load_checkpoint
from ..nn import CheckpointError
from ..runtime import (
    Budget,
    CampaignInterrupted,
    DiskFullError,
    JournalError,
    atomic_write_text,
    signals,
)
from .admission import AdmissionController
from .jobs import Job, JobStore
from .protocol import CampaignSpec, RequestError

GUESSES_FILE = "guesses.txt"
JOB_JOURNAL = "run.journal.jsonl"
JOB_TELEMETRY_DIR = "tele"


@dataclass
class ServerConfig:
    """Everything ``repro serve`` exposes as flags."""

    checkpoint: str
    state_dir: str
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is ``server.port``
    fleet: int = 2
    max_queue: int = 64
    max_tenant_queue: int = 8
    rate: float = 50.0
    burst: float = 20.0
    #: Server-wide wall-clock budget; composes min-wins into every
    #: request.  When it expires the server drains itself (exit 3).
    deadline: Optional[float] = None
    #: Per-job telemetry sessions (forces ``fleet = 1``: each session
    #: belongs to its fleet thread, but the registry counters it reports
    #: deltas of are process-global, so traced jobs must serialize).
    job_telemetry: bool = False
    poll_interval: float = 0.05


class _ModelSlots:
    """Per-thread model cache: fleet slots never share inference state."""

    def __init__(self, default_path: str) -> None:
        self.default_path = str(default_path)
        self._local = threading.local()

    def get(self, path: Optional[str]) -> GPTGuesser:
        path = str(path or self.default_path)
        cache = getattr(self._local, "models", None)
        if cache is None:
            cache = self._local.models = {}
        model = cache.get(path)
        if model is None:
            model = cache[path] = load_checkpoint(path)
        return model


class CampaignServer:
    """See module docstring.  Drive with :meth:`serve_forever`."""

    def __init__(self, config: ServerConfig) -> None:
        if config.job_telemetry:
            config.fleet = 1
        self.config = config
        self.store = JobStore(config.state_dir)
        self.admission = AdmissionController(
            max_queue=config.max_queue,
            max_tenant_queue=config.max_tenant_queue,
            rate=config.rate,
            burst=config.burst,
        )
        self.budget = (
            Budget(wall_seconds=config.deadline) if config.deadline is not None else None
        )
        self.models = _ModelSlots(config.checkpoint)
        self.port: Optional[int] = None
        #: Set once the listener is bound and recovery is enqueued
        #: (thread-started harnesses wait on it before connecting).
        self.ready = threading.Event()
        self.draining = False
        self.drain_reason: Optional[str] = None
        self._started_at = time.monotonic()
        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        #: Executions in flight on the loop (fleet + synchronous scores);
        #: drain waits for it to hit zero before closing the journal.
        self._inflight = 0
        self._drain_event: Optional[asyncio.Event] = None
        self._fleet_tasks: list[asyncio.Task] = []
        self._executor = ThreadPoolExecutor(
            max_workers=config.fleet, thread_name_prefix="fleet"
        )
        self._http: Optional[asyncio.base_events.Server] = None
        self._registry = telemetry.get_registry()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind, recover journaled work, and spin up the fleet."""
        from . import http  # local import: http imports nothing from core

        # Fail fast on an unusable default checkpoint (CheckpointError
        # propagates to the CLI as exit 2) and warm slot 0's cache.
        await asyncio.get_running_loop().run_in_executor(
            self._executor, self.models.get, None
        )
        self._drain_event = asyncio.Event()
        recovered = self.store.to_recover()
        for job in recovered:
            self.store.set_state(job, "queued", recovered=True)
            self._queue.put_nowait(job)
        if recovered:
            telemetry.emit(
                "server_recovered", level="warning", jobs=[j.job_id for j in recovered]
            )
        self._fleet_tasks = [
            asyncio.create_task(self._fleet_worker(i)) for i in range(self.config.fleet)
        ]
        self._http = await asyncio.start_server(
            lambda r, w: http.handle_connection(self, r, w),
            host=self.config.host,
            port=self.config.port,
        )
        self.port = self._http.sockets[0].getsockname()[1]
        self._update_gauges()
        self.ready.set()

    async def serve_forever(self) -> dict:
        """Run until a stop request (SIGTERM/SIGINT) or budget expiry.

        Returns a drain summary: ``{"reason", "jobs": counts}``.  The
        caller (``repro serve``) maps the reason onto the exit-code
        table — ``signal`` exits 0 (graceful drain is the *intended*
        shutdown), ``deadline`` exits 3.  An embedder drains the server
        the way SIGTERM does, with ``signals.request(SIGTERM)``.
        """
        if self._drain_event is None:  # allow callers to start() first
            await self.start()
        reason = None
        while reason is None:
            if signals.requested() is not None:
                reason = "signal"
            elif self.budget is not None and self.budget.remaining() == 0.0:
                reason = "deadline"
            else:
                await asyncio.sleep(self.config.poll_interval)
        await self.drain(reason)
        return {"reason": reason, "jobs": self.store.counts()}

    async def drain(self, reason: str) -> None:
        """Stop admitting, checkpoint in-flight work, shut down.

        Queued jobs are *not* started: they stay journaled as ``queued``
        and the next server process re-queues them.  Running jobs stop
        at their next durable boundary, where their merged budget sees
        the pending stop request (``signal``: a resumable ``interrupted``
        checkpoint) or the server's spent wall budget (``deadline``:
        terminal).
        """
        if self.draining:
            return
        self.draining = True
        self.drain_reason = reason
        self._registry.gauge("server.draining").set(1)
        telemetry.emit("server_drain", level="warning", reason=reason)
        self._drain_event.set()
        await asyncio.gather(*self._fleet_tasks, return_exceptions=True)
        while self._inflight:  # synchronous score requests still running
            await asyncio.sleep(self.config.poll_interval)
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()
        self._executor.shutdown(wait=True)
        self.store.close()
        self._update_gauges()

    # ------------------------------------------------------------------
    # Submission (event loop only)
    # ------------------------------------------------------------------
    def _admit(self, spec: CampaignSpec, trace: Optional[dict] = None) -> Job:
        if spec.kind == "generate" and spec.checkpoint is not None:
            if not Path(spec.checkpoint).exists():
                raise RequestError(
                    400, "invalid_request", f"checkpoint {spec.checkpoint!r} not found"
                )
        queued = self.store.queued_by_tenant()
        self.admission.admit(
            spec.tenant,
            tenant_queued=queued.get(spec.tenant, 0),
            total_queued=sum(queued.values()),
            draining=self.draining,
        )
        # Every admitted request owns a trace: the caller's (propagated
        # via ``traceparent``) or a freshly minted one.  Journaled with
        # the request, it survives crash recovery, and the job's
        # telemetry session adopts it — so one id follows the request
        # from the socket through the fleet slot into forked workers.
        if trace is None:
            trace = telemetry.TraceContext.new().to_dict()
        job = self.store.admit(spec, trace=trace)
        self._update_gauges()
        return job

    def submit_generate(self, payload: object, trace: Optional[dict] = None) -> Job:
        """Validate + admit + enqueue a campaign; returns the queued job."""
        spec = CampaignSpec.from_payload(payload, kind="generate")
        job = self._admit(spec, trace=trace)
        self._queue.put_nowait(job)
        return job

    async def submit_score(self, payload: object, trace: Optional[dict] = None) -> dict:
        """Validate + admit + execute a scoring request synchronously.

        Scoring shares the admission gate and the journaled lifecycle,
        but the caller waits for the result: scoring is pure CPU over
        the supplied lists, so the fleet executor bounds its concurrency
        and the response carries the metrics directly.
        """
        spec = CampaignSpec.from_payload(payload, kind="score")
        job = self._admit(spec, trace=trace)
        state, detail = await self._execute(job)
        if state != "done":
            raise RequestError(500, detail.get("error", "failed"),
                               detail.get("message", "scoring failed"))
        return {"id": job.job_id, **detail}

    # ------------------------------------------------------------------
    # Fleet
    # ------------------------------------------------------------------
    async def _fleet_worker(self, slot: int) -> None:
        while True:
            get = asyncio.ensure_future(self._queue.get())
            stop = asyncio.ensure_future(self._drain_event.wait())
            done, _ = await asyncio.wait(
                {get, stop}, return_when=asyncio.FIRST_COMPLETED
            )
            if stop in done:
                # Draining: never start new work.  If ``get`` also won
                # the race its job simply stays journaled as queued —
                # the journal, not the in-memory queue, is the truth.
                get.cancel()
                return
            stop.cancel()
            await self._execute(get.result())

    async def _execute(self, job: Job) -> tuple[str, dict]:
        self.store.set_state(job, "running")
        self._update_gauges()
        self._inflight += 1
        try:
            state, detail = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._run_job_sync, job
            )
        except BaseException as exc:  # noqa: BLE001 — a fleet slot must survive
            # Nothing may kill the fleet: even an injected BaseException
            # that escaped the campaign machinery degrades to a typed
            # per-request failure.
            state, detail = "failed", {"error": type(exc).__name__, "message": str(exc)}
        finally:
            self._inflight -= 1
        self.store.set_state(job, state, **detail)
        self._registry.counter(f"server.jobs_{state}").inc()
        # Labeled variant for Prometheus scrapes: per-tenant/strategy
        # outcome counts without exploding the flat JSON namespace.
        self._registry.counter(
            "server.jobs_finished",
            labels={
                "state": state,
                "tenant": str(job.spec.tenant),
                "strategy": str(job.spec.strategy or job.spec.kind),
            },
        ).inc()
        telemetry.emit("server_job_finished", job=job.job_id, state=state)
        self._update_gauges()
        return state, detail

    # ------------------------------------------------------------------
    # Job execution (fleet threads)
    # ------------------------------------------------------------------
    def _run_job_sync(self, job: Job) -> tuple[str, dict]:
        """Execute one request to a terminal state; never raises."""
        job.started_at = time.monotonic()
        spec = job.spec
        try:
            if spec.kind == "score":
                return "done", {
                    "hit_rate": hit_rate(list(spec.guesses), list(spec.test)),
                    "repeat_rate": repeat_rate(list(spec.guesses)),
                    "unique_guesses": len(set(spec.guesses)),
                }
            return self._run_generate(job)
        except CampaignInterrupted as exc:
            # Deadline/quota: the request's budget is spent — terminal.
            # Signal/drain: a checkpoint; the next server process (or
            # this one, after recovery) resumes it byte-identically.
            return "interrupted", {
                "reason": exc.reason,
                "progress": exc.progress,
                "resumable": exc.reason == "signal",
            }
        except DiskFullError as exc:
            return "failed", {"error": "disk_full", "message": str(exc)}
        except UnsupportedStrategy as exc:
            return "failed", {"error": "invalid_request", "message": str(exc)}
        except (CheckpointError, JournalError) as exc:
            return "failed", {"error": "corrupt_artifact", "message": str(exc)}
        except Exception as exc:  # noqa: BLE001 — typed per-request failure
            return "failed", {"error": type(exc).__name__, "message": str(exc)}

    def _run_generate(self, job: Job) -> tuple[str, dict]:
        spec = job.spec
        jobdir = self.store.job_dir(job)
        jobdir.mkdir(parents=True, exist_ok=True)
        journal = jobdir / JOB_JOURNAL
        resume = journal.exists()  # crash/drain leftovers -> continue them
        model = self.models.get(spec.checkpoint)
        # Min-wins deadline composition; even with no limits anywhere a
        # fresh Budget is created so a delivered SIGTERM (drain) trips
        # the campaign at its next durable boundary.
        budget = Budget.merge(self.budget, spec.budget()) or Budget()

        # Structured heartbeat: `/status` reads job.progress live; the
        # (TTY-disabled) Heartbeat additionally emits throttled
        # `heartbeat` telemetry events so a traced job's stream shows
        # rate/ETA even though the server runs headless.
        heartbeat = telemetry.Heartbeat(spec.n or 0, enabled=False)

        def progress(done: int, total: int) -> None:
            job.progress["done"] = int(done)
            job.progress["total"] = int(total)
            heartbeat.update(int(done), int(total))

        session_dir = None
        if self.config.job_telemetry:
            # One session per (re)run: wipe the dir so the summary
            # covers exactly the process that produced the final bytes
            # (mixing two processes' parent streams double-counts).
            session_dir = jobdir / JOB_TELEMETRY_DIR
            shutil.rmtree(session_dir, ignore_errors=True)
            # Traced jobs are audited against their plan (`summarize
            # --check` gates model calls and prompt-cache hits exactly),
            # so each must start from a cold inference cache: warmth
            # inherited from an earlier job on this slot would make the
            # actuals beat the plan.
            model.invalidate_inference()
            # The session joins the request's trace (minted at admit or
            # received via ``traceparent``): its campaign span becomes a
            # remote child of the caller's span, and pool workers chain
            # under it — one connected tree per request.
            telemetry.start_session(
                session_dir,
                run_id=f"job-{job.job_id}",
                context=telemetry.TraceContext.from_dict(job.trace),
            )
        try:
            guesses, _, stats = run_strategy(
                model, spec.strategy, spec.n, seed=spec.seed, workers=spec.workers,
                threshold=spec.threshold, journal=journal, resume=resume,
                progress=progress, budget=budget,
            )
        finally:
            if session_dir is not None:
                telemetry.end_session()
        out = jobdir / GUESSES_FILE
        atomic_write_text(out, "\n".join(guesses) + "\n")
        journal.unlink(missing_ok=True)  # campaign finished; journal spent
        return "done", {"guesses": len(guesses), "resumed": resume, **stats}

    # ------------------------------------------------------------------
    # Introspection (``/status`` and ``/metrics``)
    # ------------------------------------------------------------------
    def _update_gauges(self) -> None:
        counts = self.store.counts()
        self._registry.gauge("server.queue_depth").set(counts["queued"])
        self._registry.gauge("server.running").set(counts["running"])
        self._registry.gauge("server.draining").set(1 if self.draining else 0)

    def status(self) -> dict:
        """The ``/status`` payload: lifecycle counts plus live heartbeats."""
        counts = self.store.counts()
        running = []
        now = time.monotonic()
        for job in self.store.jobs.values():
            if job.state != "running":
                continue
            done, total = job.progress["done"], job.progress["total"]
            entry = {"id": job.job_id, "tenant": job.spec.tenant,
                     "done": done, "total": total}
            if job.started_at is not None:
                elapsed = max(now - job.started_at, 1e-9)
                rate = done / elapsed
                entry["rate"] = round(rate, 1)
                if rate > 0 and total > done:
                    entry["eta"] = telemetry.format_eta((total - done) / rate)
            running.append(entry)
        status = {
            "state": "draining" if self.draining else "serving",
            "uptime_s": round(now - self._started_at, 3),
            "jobs": counts,
            "running": sorted(running, key=lambda e: e["id"]),
            "tenants": {
                tenant: {"queued": depth}
                for tenant, depth in sorted(self.store.queued_by_tenant().items())
            },
        }
        if self.budget is not None:
            status["budget"] = {"wall_remaining_s": round(self.budget.remaining(), 3)}
        return status

    def metrics(self) -> dict:
        """The ``/metrics`` payload: the full registry snapshot."""
        return self._registry.snapshot()

    def metrics_prometheus(self) -> str:
        """``/metrics?format=prometheus``: text exposition (0.0.4)."""
        return telemetry.render_prometheus(self._registry)
