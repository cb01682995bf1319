"""Typed request protocol for the campaign server.

Every request the server accepts is first validated into a frozen
:class:`CampaignSpec` — the serving-layer twin of the campaign-plan
objects the generators consume.  Validation is strict on purpose:
unknown fields, wrong types, and out-of-range values are *admission*
failures (HTTP 400) rather than something a worker discovers an hour
into a campaign.  A spec is JSON-round-trippable so the server journal
can persist it verbatim and rebuild it on restart.

Request lifecycle (persisted per request in the server journal)::

    queued -> running -> done
                      -> failed        (typed error; terminal)
                      -> interrupted   (deadline/quota: terminal;
                                        signal/drain: resumable)

:class:`RequestError` is the one exception the HTTP layer translates
into a response: it carries the status code, a stable machine-readable
``code``, and — for backpressure rejections — a ``retry_after`` hint
that becomes the ``Retry-After`` header.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..runtime import Budget

#: Request lifecycle states, in nominal order.
STATES = ("queued", "running", "done", "failed", "interrupted")

#: States after which the server itself will never touch a request again
#: (an ``interrupted`` request whose reason is ``signal`` is *resumable*:
#: a restarted server re-queues it — see :meth:`resumable`).
TERMINAL_STATES = ("done", "failed", "interrupted")

#: Budget-interruption reasons that a restarted/resumed server continues;
#: everything else (deadline, quotas) spent the request's own budget.
RESUMABLE_REASONS = ("signal",)

GENERATE_STRATEGIES = ("sampled", "dcgen", "ordered")

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Hard per-request ceilings — admission-time guardrails, not tunables.
MAX_REQUEST_GUESSES = 5_000_000
MAX_SCORE_LINES = 200_000
MAX_WORKERS = 16


class RequestError(Exception):
    """A request the server refuses, with its HTTP translation attached.

    ``retry_after`` (seconds, optional) is set on backpressure
    rejections (429/503) so clients can back off precisely instead of
    hammering the admission gate.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.retry_after = retry_after

    def to_payload(self) -> dict:
        payload = {"error": self.code, "message": str(self)}
        if self.retry_after is not None:
            payload["retry_after"] = round(self.retry_after, 3)
        return payload


def _bad(message: str) -> RequestError:
    return RequestError(400, "invalid_request", message)


def _take_int(payload: dict, key: str, default, lo: int, hi: int) -> Optional[int]:
    value = payload.pop(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{key} must be an integer")
    if not lo <= value <= hi:
        raise _bad(f"{key} must be in [{lo}, {hi}], got {value}")
    return value


def _take_number(payload: dict, key: str, lo: float) -> Optional[float]:
    value = payload.pop(key, None)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{key} must be a number")
    value = float(value)
    if not math.isfinite(value) or value <= lo:
        raise _bad(f"{key} must be a finite number > {lo}, got {value}")
    return value


def _take_lines(payload: dict, key: str) -> tuple[str, ...]:
    value = payload.pop(key, None)
    if not isinstance(value, list) or not value:
        raise _bad(f"{key} must be a non-empty list of strings")
    if len(value) > MAX_SCORE_LINES:
        raise _bad(f"{key} holds {len(value)} lines; the limit is {MAX_SCORE_LINES}")
    if not all(isinstance(v, str) for v in value):
        raise _bad(f"{key} must contain only strings")
    return tuple(value)


@dataclass(frozen=True)
class CampaignSpec:
    """One validated request: everything a worker needs to execute it."""

    kind: str  # "generate" | "score"
    tenant: str = "public"
    # --- generate ---
    n: int = 0
    seed: int = 0
    strategy: str = "sampled"
    workers: int = 1
    threshold: int = 256
    checkpoint: Optional[str] = None  # None -> the server's default model
    deadline: Optional[float] = None  # per-request wall-clock budget
    max_guesses: Optional[int] = None
    max_model_calls: Optional[int] = None
    # --- score ---
    guesses: tuple[str, ...] = field(default=())
    test: tuple[str, ...] = field(default=())

    # ------------------------------------------------------------------
    @classmethod
    def from_payload(cls, payload: object, kind: str) -> "CampaignSpec":
        """Validate a decoded JSON body into a spec, or raise 400.

        Consumes the payload dict key by key; anything left over is an
        unknown field and rejected — a typo'd limit silently ignored is
        a campaign run with no limit.
        """
        if not isinstance(payload, dict):
            raise _bad("request body must be a JSON object")
        payload = dict(payload)
        tenant = payload.pop("tenant", "public")
        if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
            raise _bad("tenant must match [A-Za-z0-9._-]{1,64}")
        fields: dict = {"kind": kind, "tenant": tenant}
        if kind == "generate":
            n = _take_int(payload, "n", None, 1, MAX_REQUEST_GUESSES)
            if n is None:
                raise _bad("n (number of guesses) is required")
            strategy = payload.pop("strategy", "sampled")
            if strategy not in GENERATE_STRATEGIES:
                raise _bad(f"strategy must be one of {GENERATE_STRATEGIES}")
            checkpoint = payload.pop("checkpoint", None)
            if checkpoint is not None and not isinstance(checkpoint, str):
                raise _bad("checkpoint must be a string path")
            fields.update(
                n=n,
                strategy=strategy,
                checkpoint=checkpoint,
                seed=_take_int(payload, "seed", 0, 0, 2**32 - 1),
                workers=_take_int(payload, "workers", 1, 1, MAX_WORKERS),
                threshold=_take_int(payload, "threshold", 256, 1, 1_000_000),
                deadline=_take_number(payload, "deadline", 0.0),
                max_guesses=_take_int(payload, "max_guesses", None, 1, MAX_REQUEST_GUESSES),
                max_model_calls=_take_int(payload, "max_model_calls", None, 1, 2**31),
            )
        elif kind == "score":
            fields.update(
                guesses=_take_lines(payload, "guesses"),
                test=_take_lines(payload, "test"),
            )
        else:  # pragma: no cover - routing bug, not client input
            raise _bad(f"unknown request kind {kind!r}")
        if payload:
            raise _bad(f"unknown field(s): {', '.join(sorted(payload))}")
        return cls(**fields)

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-safe dict, exact enough to rebuild the spec on restart."""
        out = asdict(self)
        out["guesses"] = list(self.guesses)
        out["test"] = list(self.test)
        return out

    @classmethod
    def from_journal(cls, payload: dict) -> "CampaignSpec":
        payload = dict(payload)
        payload["guesses"] = tuple(payload.get("guesses") or ())
        payload["test"] = tuple(payload.get("test") or ())
        return cls(**payload)

    def budget(self) -> Optional[Budget]:
        """The request's own budget, or ``None`` when limitless."""
        if self.deadline is None and self.max_guesses is None and self.max_model_calls is None:
            return None
        return Budget(
            wall_seconds=self.deadline,
            max_guesses=self.max_guesses,
            max_model_calls=self.max_model_calls,
        )
