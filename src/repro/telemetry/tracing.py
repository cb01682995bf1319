"""Telemetry sessions and nested span tracing.

A :class:`TelemetrySession` binds one process to one campaign telemetry
directory: the parent writes ``telemetry.jsonl``, each worker process
writes ``telemetry-worker-<pid>.jsonl``.  The session also marks the
metrics registry at start so everything it reports is a **delta** — a
forked worker inherits the parent's counter values copy-on-write, and
deltas are what keep per-worker numbers clean.

:func:`trace` is the span primitive::

    with trace("dcgen.execute_batch", batch_id=3) as span:
        ...
        span.set(guesses=len(out), model_calls=calls)

On exit one ``span`` event is emitted carrying the span's name, id,
parent id, wall duration, merged attributes, and the non-zero registry
counter deltas observed while it was open.  Spans nest via a per-session
stack; with no active session :func:`trace` is a cheap no-op.

The active session lives in a :class:`contextvars.ContextVar`, so only
the thread that started it sees it: a server fleet slot's job session
never collects the event loop's events and journal spans.

Every session belongs to exactly one **trace** (see
:mod:`~repro.telemetry.context`): span ids are minted from
``(pid, counter)`` so merged parent + worker streams never collide, and
a session started with a :class:`TraceContext` attaches its root spans
under a *remote* parent span — the parent process's campaign span for a
pool worker, the server's request span for a job session.  Journaled
campaigns pin their trace in the run-journal header
(:func:`pin_trace`) and re-adopt it on crash resume
(:func:`rejoin_trace`), so an interrupted campaign's resumed spans stay
in the original tree.

Everything here is deliberately optional: production code calls
:func:`emit` / :func:`trace` unconditionally, and pays nothing beyond an
``is None`` check until a session is started (by the CLI, the bench, or
a worker initializer).
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from .context import TraceContext, make_span_id, new_trace_id
from .logger import TelemetryLogger
from .metrics import get_registry, values_delta


class Span:
    """Mutable attribute bag yielded by :func:`trace`."""

    __slots__ = ("name", "span_id", "parent_id", "attrs")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int], attrs: dict) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach result attributes reported in the span record."""
        self.attrs.update(attrs)


class _NullSpan:
    """Span stand-in when no session is active; ``set`` is a no-op."""

    __slots__ = ()
    name = None
    span_id = None
    parent_id = None
    attrs: dict = {}

    def set(self, **attrs) -> None:  # noqa: D102 — deliberate no-op
        pass


_NULL_SPAN = _NullSpan()


class TelemetrySession:
    """One process's handle on a campaign telemetry directory."""

    def __init__(
        self,
        directory: Union[str, Path],
        run_id: str = "run",
        worker: Optional[int] = None,
        level: str = "debug",
        clock=time.time,
        context: Optional[TraceContext] = None,
    ) -> None:
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        name = "telemetry.jsonl" if worker is None else f"telemetry-worker-{worker}.jsonl"
        self.worker = worker
        self.run_id = run_id
        self.level = level
        self.logger = TelemetryLogger(
            self.dir / name, run_id=run_id, worker=worker, level=level, clock=clock
        )
        self.registry = get_registry()
        #: Pid that created the session (a forked child must not close
        #: the parent's stream when it replaces the inherited session).
        self.pid = os.getpid()
        #: Registry mark: everything the session reports is relative to it.
        self._mark = self.registry.values()
        #: Open spans, outermost first.  Holds the Span objects (not just
        #: ids) so a crash-resume trace adoption can re-parent them.
        self._span_stack: list = []
        #: Per-session counter; combined with ``pid`` it yields span ids
        #: unique across every process that ever writes into ``dir``.
        self._span_ids = itertools.count()
        if context is not None:
            self.trace_id = context.trace_id
            self.remote_parent = context.parent_span_id
        else:
            self.trace_id = new_trace_id()
            self.remote_parent = None
        self._emit_trace_context()

    # ------------------------------------------------------------------
    # Trace identity
    # ------------------------------------------------------------------
    def _emit_trace_context(self) -> None:
        self.logger.emit(
            "trace_context",
            level="debug",
            trace_id=self.trace_id,
            remote_parent=self.remote_parent,
        )

    def next_span_id(self) -> int:
        """Mint a process-unique span id (``(pid, counter)``-derived)."""
        return make_span_id(self.pid, next(self._span_ids))

    def current_span(self) -> Optional[Span]:
        """The innermost open span, or ``None``."""
        return self._span_stack[-1] if self._span_stack else None

    def current_span_id(self) -> Optional[int]:
        """Id new children attach under: innermost span or remote parent."""
        if self._span_stack:
            return self._span_stack[-1].span_id
        return self.remote_parent

    def trace_ref(self) -> dict:
        """``{"trace_id", "span_id"?}`` naming the current attach point.

        This is what gets pinned into run-journal headers and shipped to
        worker initializers: a remote session built from it joins this
        trace as a child of whatever span is open right now.
        """
        ref = {"trace_id": self.trace_id}
        attach = self.current_span_id()
        if attach is not None:
            ref["span_id"] = attach
        return ref

    def adopt_trace(self, trace_id: str, root_span_id: Optional[int]) -> bool:
        """Join an existing trace (crash-resumed campaign rejoining).

        Replaces the session's trace id and re-parents currently-open
        root spans (``parent_id is None``) under ``root_span_id``, so a
        resumed campaign span becomes a child of the original run's
        root instead of starting a second tree.  A span can never adopt
        itself as parent.  Returns whether anything changed; when it
        did, a fresh ``trace_context`` event records the new identity.
        """
        changed = False
        if trace_id and trace_id != self.trace_id:
            self.trace_id = trace_id
            changed = True
        if root_span_id is not None:
            for span in self._span_stack:
                if span.parent_id is None and span.span_id != root_span_id:
                    span.parent_id = root_span_id
                    changed = True
                break  # only the outermost open span can be a root
            if not self._span_stack and self.remote_parent != root_span_id:
                self.remote_parent = root_span_id
                changed = True
        if changed:
            self._emit_trace_context()
        return changed

    # ------------------------------------------------------------------
    def metrics_delta(self) -> dict:
        """Non-zero counter/gauge/group changes since the session started."""
        return values_delta(self._mark, self.registry.values())

    def emit_metrics(self, event: str = "metrics_snapshot") -> None:
        """Record the current session-relative metrics delta."""
        self.logger.emit(event, metrics=self.metrics_delta())

    def close(self, emit_snapshot: bool = True) -> None:
        if not self.logger.closed:
            if emit_snapshot:
                self.emit_metrics()
            self.logger.close()


#: The calling context's active session (``None`` when telemetry is off).
_SESSION: contextvars.ContextVar[Optional[TelemetrySession]] = contextvars.ContextVar(
    "repro_telemetry_session", default=None
)


def start_session(
    directory: Union[str, Path],
    run_id: str = "run",
    worker: Optional[int] = None,
    level: str = "debug",
    clock=time.time,
    context: Optional[TraceContext] = None,
) -> TelemetrySession:
    """Activate a session for the calling context (replacing any current one).

    A forked worker inherits the parent's session object; its
    initializer calls this to replace it with a per-worker stream —
    the parent's descriptor stays untouched in the child.  ``context``
    joins an existing trace (worker under a parent campaign span, job
    session under a server request span) instead of minting a new one.
    """
    current = _SESSION.get()
    if current is not None and current.pid == os.getpid():
        # Replacing an open same-process session: close it cleanly first.
        current.close()
    sess = TelemetrySession(
        directory, run_id=run_id, worker=worker, level=level, clock=clock, context=context
    )
    _SESSION.set(sess)
    return sess


def end_session(emit_snapshot: bool = True) -> None:
    """Close and deactivate the calling context's session (no-op when none)."""
    sess = _SESSION.get()
    if sess is not None:
        if sess.pid == os.getpid():
            sess.close(emit_snapshot=emit_snapshot)
        # An inherited (forked) session is just dropped: writing a
        # snapshot into the parent's stream would corrupt its accounting.
        _SESSION.set(None)


def active() -> Optional[TelemetrySession]:
    """The calling context's active session, or ``None``."""
    return _SESSION.get()


@contextmanager
def session(directory: Union[str, Path], **kwargs) -> Iterator[TelemetrySession]:
    """``with session(dir):`` — start, then always end."""
    sess = start_session(directory, **kwargs)
    try:
        yield sess
    finally:
        end_session()


def trace_ref() -> Optional[dict]:
    """The active session's attach point, or ``None`` (see ``Session.trace_ref``)."""
    sess = _SESSION.get()
    return sess.trace_ref() if sess is not None else None


def pin_trace(header: dict) -> dict:
    """Pin the active trace into a run-journal header (in place).

    With no active session the header passes through untouched, so
    journals written with and without telemetry stay attach-compatible
    (:meth:`repro.runtime.journal.RunJournal.attach` excludes the trace
    key from header identity).
    """
    ref = trace_ref()
    if ref is not None:
        header["trace"] = ref
    return header


def rejoin_trace(stored: Optional[dict]) -> bool:
    """Adopt a journal header's pinned trace on crash resume.

    ``stored`` is the ``"trace"`` value from an attached journal's
    header (``None``/missing → no-op, as is an inactive session).  On a
    fresh run the stored ref *is* the current ref, so adoption is a
    no-op; on resume it re-roots the new session into the original
    run's trace.  Returns whether the session changed identity.
    """
    sess = _SESSION.get()
    if sess is None or not isinstance(stored, dict):
        return False
    trace_id = stored.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        return False
    root = stored.get("span_id")
    return sess.adopt_trace(trace_id, root if isinstance(root, int) else None)


def emit(event: str, level: str = "info", **fields) -> None:
    """Emit an event on the active session; silently dropped when none."""
    sess = _SESSION.get()
    if sess is not None:
        sess.logger.emit(event, level=level, **fields)


@contextmanager
def trace(name: str, level: str = "info", **attrs) -> Iterator[Span]:
    """Time a block as a nested span with registry counter deltas."""
    sess = _SESSION.get()
    if sess is None:
        yield _NULL_SPAN
        return
    span = Span(name, sess.next_span_id(), sess.current_span_id(), dict(attrs))
    before = sess.registry.values()
    sess._span_stack.append(span)
    started = time.perf_counter()
    try:
        yield span
    finally:
        duration = time.perf_counter() - started
        sess._span_stack.pop()
        sess.logger.emit(
            "span",
            level=level,
            name=name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            duration_s=round(duration, 6),
            attrs=span.attrs,
            delta=values_delta(before, sess.registry.values()),
        )
