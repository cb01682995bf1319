"""Pool-task supervision: per-task retry, hung-pool rebuild, hand-back.

:func:`supervised_map` is a fault-tolerant replacement for ``pool.map``:
tasks are streamed through ``imap_unordered`` with a pending-task
tracker, so one failed or hung task costs only its own re-execution.
Completed results are **never** discarded.  A task that still fails
after :data:`RESUBMISSIONS` resubmissions is handed back to the caller
instead of being run here; the campaign runner
(:class:`repro.generation.campaign.Tasks`) runs what comes back in the
parent, so there is one serial path whatever the worker count.

A hung worker is detected by the watchdog that ``REPRO_TASK_TIMEOUT``
arms (:func:`task_timeout`): when no result arrives in time the pool is
terminated (the only way to reclaim a wedged worker process) and every
still-pending task is resubmitted to a fresh pool.  The watchdog is off
unless that variable is set; ``0`` also leaves it off, and negative,
non-finite, or non-numeric values raise ``ValueError`` instead of
leaking into pool waits.

``supervised_map`` also accepts a ``stop`` callable (typically
``Budget.stopper(...)`` from :mod:`repro.runtime.deadline`): it is
polled while *waiting* for worker results, so a deadline or a delivered
SIGTERM interrupts a campaign even when every worker is busy on a long
task.  The raise propagates after completed results have been delivered
(and therefore journaled), and the pool is terminated on the way out —
workers killed mid-task are reaped, and their unjournaled tasks are
exactly the ones a ``--resume`` re-executes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import Any, Callable, Optional

#: Hang watchdog for pool results (seconds, float); unset means no watchdog.
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: How often the ``stop`` callable is polled while waiting on workers.
STOP_POLL_INTERVAL = 0.1

#: Resubmissions of a failed or hung task before the pool gives it up.
RESUBMISSIONS = 2

#: Backoff before resubmission round ``r``: ``BACKOFF_BASE * 2**(r-1)``
#: seconds, capped at ``BACKOFF_MAX``.
BACKOFF_BASE = 0.05
BACKOFF_MAX = 2.0


def backoff(attempt: int) -> float:
    """Seconds to sleep before resubmission round ``attempt`` (1-based)."""
    return min(BACKOFF_MAX, BACKOFF_BASE * 2 ** (attempt - 1))


def task_timeout() -> Optional[float]:
    """The hang watchdog ``REPRO_TASK_TIMEOUT`` arms, in seconds.

    ``None`` (wait forever) when the variable is unset, blank or ``0``;
    negative, non-finite, or non-numeric values raise ``ValueError``.
    """
    env = os.environ.get(TASK_TIMEOUT_ENV)
    if env is None or not env.strip():
        return None
    try:
        timeout = float(env)
    except ValueError:
        raise ValueError(
            f"bad {TASK_TIMEOUT_ENV} value {env!r}; expected seconds as a float"
        ) from None
    if timeout < 0 or timeout != timeout or timeout in (float("inf"),):
        raise ValueError(
            f"bad {TASK_TIMEOUT_ENV} value {env!r}; must be a finite "
            "number of seconds >= 0 (0 disables the hang watchdog)"
        )
    return timeout or None


class _PoolBroken(Exception):
    """The pool failed to start or its result stream raised: a failure
    of the pool, not of a task (its ``__cause__`` says what happened)."""


def _next_result(stream, timeout: Optional[float], stop: Optional[Callable[[], None]]):
    """One result from ``stream``, or ``None`` once the hang watchdog fires.

    Without ``stop`` this is one wait of ``timeout`` seconds (forever
    when ``None``).  With it, the wait is sliced into
    :data:`STOP_POLL_INTERVAL` chunks with ``stop()`` polled between
    slices, while a wall-clock deadline keeps the watchdog at
    ``timeout`` seconds in total.  An error from the stream is re-raised
    as :class:`_PoolBroken`, so it cannot be mistaken for one of
    ``stop``'s.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        if stop is not None:
            stop()
        wait = timeout if stop is None else STOP_POLL_INTERVAL
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            wait = min(wait, remaining)
        try:
            return stream.next(wait)
        except mp.TimeoutError:
            if stop is None or (deadline is not None and time.monotonic() >= deadline):
                return None
        except Exception as exc:
            raise _PoolBroken() from exc


def supervised_map(
    pool_factory: Callable[[], Any],
    guarded: Callable[[int], tuple[int, bool, Any]],
    n_tasks: int,
    on_result: Callable[[int, Any], None],
    context: str = "parallel execution",
    stop: Optional[Callable[[], None]] = None,
) -> dict[int, Optional[str]]:
    """Fault-tolerant ``pool.map`` over task indices ``0..n_tasks-1``.

    ``guarded`` runs in the workers and must return ``(index, ok,
    value_or_error)`` instead of raising — that keeps per-task failures
    attributable.  ``on_result(index, value)`` fires in the parent once
    per task the pool completes, as results arrive (unordered); journal
    writers hook in here so completed work is durable the moment it
    exists.

    Returns ``{index: last error}`` for the tasks the pool gave up on:
    those that failed on every attempt, those still pending when the
    watchdog fired for the last time (error ``None``: they never
    reported one), and every pending task when the pool fails to start
    or its result stream breaks.  The caller runs them itself.

    ``stop`` (optional) is polled while waiting for results; it should
    raise to interrupt the map (see
    :meth:`repro.runtime.deadline.Budget.stopper`).  Whatever ``stop``
    or ``on_result`` raises propagates, and so does a delivered signal;
    the pool is terminated and joined first, so worker processes killed
    mid-task are always reaped and every *delivered* result has already
    been handed to ``on_result``.

    Every supervision decision is also emitted as a structured telemetry
    event (no-ops without an active session): ``task_failed`` per failed
    attempt — with the task index and exception repr, so post-mortems
    never require a rerun — ``task_recovered`` when a previously-failed
    task delivers, and ``pool_rebuild`` on hung-pool replacement.
    """
    from .. import telemetry  # lazy: runtime is imported during telemetry init

    registry = telemetry.get_registry()
    timeout = task_timeout()
    pending = set(range(n_tasks))
    errors: dict[int, str] = {}  # last failure of each not-yet-delivered task
    pool = None

    def record_failure(index: int, error: str, attempt: int) -> None:
        errors[index] = error
        registry.counter("retry.task_failures").inc()
        telemetry.emit(
            "task_failed",
            level="warning",
            context=context,
            task=index,
            error=error,
            attempt=attempt,
        )

    try:
        for attempt in range(RESUBMISSIONS + 1):
            if not pending:
                break
            if stop is not None:
                stop()
            if attempt:
                time.sleep(backoff(attempt))
            submit = sorted(pending)
            try:
                if pool is None:
                    pool = pool_factory()
                stream = pool.imap_unordered(guarded, submit)
            except Exception as exc:
                raise _PoolBroken() from exc
            for _ in submit:
                result = _next_result(stream, timeout, stop)
                if result is None:
                    # A wedged worker can only be reclaimed by killing
                    # the pool; completed results are already delivered,
                    # only pending tasks go around again.
                    pool.terminate()
                    pool.join()
                    pool = None
                    registry.counter("retry.pool_rebuilds").inc()
                    telemetry.emit(
                        "pool_rebuild",
                        level="warning",
                        context=context,
                        pending=sorted(pending),
                        attempt=attempt,
                    )
                    break
                index, ok, value = result
                if not ok:
                    record_failure(index, value, attempt)
                    continue
                pending.discard(index)
                if errors.pop(index, None) is not None:
                    registry.counter("retry.tasks_recovered").inc()
                    telemetry.emit("task_recovered", context=context, task=index)
                on_result(index, value)
    except _PoolBroken as broken:
        # The pool did not start or its stream broke: this attempt of
        # every pending task failed, and none of them goes around again.
        cause = broken.__cause__
        for index in sorted(pending):
            record_failure(index, f"{type(cause).__name__}: {cause}", attempt)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    return {index: errors.get(index) for index in sorted(pending)}
