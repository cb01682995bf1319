"""Journal-persisted campaign lifecycle: nothing accepted is ever lost.

The server journals every accepted campaign — and every state
transition — into one :class:`~repro.runtime.RunJournal` under the
state directory *before* acknowledging anything to the client.  That
single append-only file is the source of truth, and the only copy of
it: a crashed or SIGKILLed server process restarts, replays the journal,
and re-queues exactly the campaigns that were queued, running, or
drain-checkpointed, while each campaign's own journal (under
``jobs/<id>/``) makes the re-execution byte-identical to an undisturbed
run.  Scores never reach the store.

Journal layout (record kinds)::

    header   {"kind": "campaign-server", "format": 1}
    request  task_id=<job id>  payload=<CampaignSpec.to_payload()>
    state    task_id=<job id>  payload={"state": ..., ...detail}

Replay streams the ``request`` records into jobs, then applies the
``state`` records, the last per job id winning, so replay cost stays
linear and a job's history of transitions remains greppable in the raw
file.  It skips the ``"kind": "score"`` requests older servers
journaled, and their states; their ids stay spent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..runtime import RunJournal
from .protocol import RESUMABLE_REASONS, TERMINAL_STATES, CampaignSpec

SERVER_JOURNAL = "requests.journal.jsonl"

#: Pinned identity of a server state directory; resuming against a
#: journal written by anything else is refused by the header check.
SERVER_HEADER = {"kind": "campaign-server", "format": 1}


@dataclass
class Job:
    """One accepted campaign plus its mutable runtime bookkeeping."""

    job_id: int
    spec: CampaignSpec
    state: str = "queued"
    detail: dict = field(default_factory=dict)
    #: In-memory progress (done/total rows), fed by the generator's
    #: progress callback and surfaced on ``/status`` as the heartbeat.
    progress: dict = field(default_factory=lambda: {"done": 0, "total": 0})
    started_at: Optional[float] = None
    #: Pinned trace ref (``{"trace_id", "span_id"?}``): minted — or
    #: received via ``traceparent`` — when the request was admitted,
    #: journaled with it, and adopted by the job's campaign telemetry
    #: session so the whole execution joins the request's trace.
    trace: Optional[dict] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES and not self.resumable

    @property
    def resumable(self) -> bool:
        """Interrupted by drain/signal: a restarted server continues it."""
        return (
            self.state == "interrupted"
            and self.detail.get("reason") in RESUMABLE_REASONS
        )

    def public(self, verbose: bool = True) -> dict:
        """The JSON shape ``GET /campaigns/<id>`` returns."""
        out = {
            "id": self.job_id,
            "tenant": self.spec.tenant,
            "state": self.state,
            "n": self.spec.n,
            "strategy": self.spec.strategy,
        }
        if verbose:
            out["detail"] = dict(self.detail)
            if self.state == "running":
                progress = dict(self.progress)
                if self.started_at is not None:
                    progress["elapsed_s"] = round(time.monotonic() - self.started_at, 3)
                out["progress"] = progress
        return out


class JobStore:
    """Owns the server journal and the in-memory job table.

    All mutation must happen on one thread (the event loop): the journal
    stream is a single fd and transition ordering is part of the
    persisted truth.  Reads (counts, lookups) are safe anywhere.
    """

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        path = self.state_dir / SERVER_JOURNAL
        self.journal = RunJournal.attach(path, dict(SERVER_HEADER), resume=path.exists())
        self.jobs: Dict[int, Job] = {}
        self._next_id = 0
        for job_id, payload in self.journal.replay("request"):
            self._next_id = max(self._next_id, job_id + 1)
            if payload.get("kind") == "score":
                continue
            # The trace ref rides the request record but is not part of
            # the spec; strip it before the strict spec reconstruction.
            trace = payload.pop("trace", None)
            self.jobs[job_id] = Job(job_id, CampaignSpec.from_journal(payload), trace=trace)
        for job_id, detail in self.journal.replay("state"):
            job = self.jobs.get(job_id)
            if job is not None:  # last wins
                job.state = detail.pop("state")
                job.detail = detail

    # ------------------------------------------------------------------
    def job_dir(self, job: Job) -> Path:
        return self.jobs_dir / f"{job.job_id:06d}"

    def admit(self, spec: CampaignSpec, trace: Optional[dict] = None) -> Job:
        """Persist an accepted campaign; durable before the 202 goes out."""
        job = Job(self._next_id, spec, trace=trace)
        self._next_id += 1
        payload = spec.to_payload()
        if trace is not None:
            payload = {**payload, "trace": trace}
        self.journal.record("request", job.job_id, payload)
        self.journal.record("state", job.job_id, {"state": "queued"})
        self.jobs[job.job_id] = job
        return job

    def set_state(self, job: Job, state: str, **detail) -> None:
        """Journal a transition, then apply it in memory."""
        self.journal.record("state", job.job_id, {"state": state, **detail})
        job.state = state
        job.detail = dict(detail)

    # ------------------------------------------------------------------
    def to_recover(self) -> List[Job]:
        """Jobs a restarted server must re-queue, in submission order.

        ``queued`` and ``running`` jobs died with the previous process;
        ``interrupted(signal)`` jobs are drain checkpoints.  All three
        resume from their own campaign journals byte-identically.
        """
        return [
            job
            for _, job in sorted(self.jobs.items())
            if job.state in ("queued", "running") or job.resumable
        ]

    def counts(self) -> dict:
        out = {state: 0 for state in ("queued", "running", "done", "failed", "interrupted")}
        for job in self.jobs.values():
            out[job.state] += 1
        return out

    def queued_by_tenant(self) -> dict:
        out: dict = {}
        for job in self.jobs.values():
            if job.state == "queued":
                out[job.spec.tenant] = out.get(job.spec.tenant, 0) + 1
        return out

    def close(self) -> None:
        self.journal.close()
