"""Distributed trace identity: trace ids, span ids, trace refs.

A campaign that spans an HTTP request, a server fleet slot, a forked
worker pool, and a crash-resumed re-run needs one stable identity for
the whole tree.  That identity is a **trace ref**, the plain dict
``{"trace_id": <32 lowercase hex>, "span_id": <int, optional>}``:

* ``trace_id`` — 128 random bits (the W3C trace-context format),
  minted once at the edge (the server request handler or the CLI
  session) and carried everywhere else;
* ``span_id`` — the span a *remote* child attaches under: the caller's
  span for a job session, the parent process's campaign span for a pool
  worker, the first attempt's campaign span for a resumed run.

Run-journal headers, server request records and worker initargs store
and pass the ref unchanged; :func:`as_trace_ref` is its one validity
rule and :func:`parse_traceparent` reads one from a W3C header.

Span ids themselves must be unique **across processes** so that merged
parent + worker streams form an unambiguous tree.  They are derived
deterministically from ``(pid, counter)`` via :func:`make_span_id`:
the pid occupies the high bits, a per-session counter the low 40 bits.
Two processes can never collide (different pids), and one process never
reuses a counter value within a session.  Unlike random 64-bit ids this
keeps same-process reruns byte-comparable: two identical seeded
campaigns in one process emit identical span ids, which the determinism
suite relies on.
"""

from __future__ import annotations

import os
import re
from typing import Optional

#: Low bits reserved for the per-session span counter; pids (<= 2^22 on
#: Linux) shifted above it stay comfortably inside 63 bits.
SPAN_COUNTER_BITS = 40
_SPAN_COUNTER_MASK = (1 << SPAN_COUNTER_BITS) - 1

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})"
    r"-(?P<parent_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex characters."""
    return os.urandom(16).hex()


def make_span_id(pid: int, counter: int) -> int:
    """Collision-free span id from ``(pid, counter)``.

    Distinct pids occupy disjoint id ranges; within a process the
    session counter never repeats.  The result fits in 63 bits, so it
    survives JSON round-trips exactly.
    """
    return (int(pid) << SPAN_COUNTER_BITS) | (int(counter) & _SPAN_COUNTER_MASK)


def split_span_id(span_id: int) -> tuple:
    """Invert :func:`make_span_id` → ``(pid, counter)``."""
    return int(span_id) >> SPAN_COUNTER_BITS, int(span_id) & _SPAN_COUNTER_MASK


def as_trace_ref(payload: object) -> Optional[dict]:
    """``payload`` as a trace ref, or ``None`` when it names no trace.

    A ref needs a non-empty str ``trace_id``; a ``span_id`` that is not
    an int is dropped.
    """
    if not isinstance(payload, dict):
        return None
    trace_id = payload.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    ref = {"trace_id": trace_id}
    span_id = payload.get("span_id")
    if isinstance(span_id, int):
        ref["span_id"] = int(span_id)
    return ref


def parse_traceparent(header: Optional[str]) -> Optional[dict]:
    """The trace ref a W3C ``traceparent`` header names; invalid/absent → ``None``.

    An all-zero parent id names no span.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    ref = {"trace_id": match.group("trace_id")}
    parent = int(match.group("parent_id"), 16)
    if parent:
        ref["span_id"] = parent
    return ref
