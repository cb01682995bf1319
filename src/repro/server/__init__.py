"""Guessing as a service: a resilient asyncio campaign server.

``repro serve`` turns the journaled, supervised campaign engine into a
long-lived service: concurrent clients submit campaign and scoring
requests over HTTP, admission control pushes back explicitly
(429/503 + ``Retry-After``) instead of buffering without bound, every
accepted campaign survives a server crash via the request journal, and
SIGTERM drains gracefully — in-flight work finishes or checkpoints,
queued work stays journaled for the next process, exit code 0.

Layers:

* :mod:`~repro.server.protocol` — typed request validation + lifecycle;
* :mod:`~repro.server.admission` — token buckets and queue caps;
* :mod:`~repro.server.jobs` — the journal-persisted campaign store;
* :mod:`~repro.server.core` — the fleet, budgets, drain, recovery;
* :mod:`~repro.server.http` — the stdlib asyncio HTTP front-end.
"""

from .admission import AdmissionController, TokenBucket
from .core import CampaignServer, ServerConfig, load_checkpoint
from .jobs import Job, JobStore
from .protocol import (
    RESUMABLE_REASONS,
    STATES,
    TERMINAL_STATES,
    CampaignSpec,
    RequestError,
    score_lists,
)

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "CampaignServer",
    "ServerConfig",
    "load_checkpoint",
    "Job",
    "JobStore",
    "RESUMABLE_REASONS",
    "STATES",
    "TERMINAL_STATES",
    "CampaignSpec",
    "RequestError",
    "score_lists",
]
