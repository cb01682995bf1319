"""Fault injection for the fault-tolerance and chaos test harnesses.

Faults are declared in the ``REPRO_FAULT`` environment variable as a
comma-separated list of directives::

    crash:<site>[:K]      raise InjectedFault at <site>
    hang:<site>[:K]       sleep HANG_SECONDS at <site> (wedged worker)
    corrupt:<site>[:K]    truncate the file written at <site> (maybe_corrupt)
    disk_full:<site>[:K]  raise DiskFullError (ENOSPC) at <site> (maybe_disk_full)
    signal:<site>[:K]     deliver SIGTERM to this process at <site>

``<site>`` names an instrumented point in the production code; the sites
currently wired are:

======================  ======================================================
``worker``              start of every pool-worker task (``index`` = task index)
``leaf_batch``          parent-side completion of a D&C-GEN leaf batch
``free_chunk``          parent-side completion of a free-generation chunk
``frontier``            ordered-generation frontier snapshot (before the write)
``epoch``               completion of a training epoch (before its checkpoint)
``checkpoint``          ``save_checkpoint`` after writing (corrupt only)
``train_state``         ``save_training_state`` after writing (corrupt only)
``journal``             ``RunJournal.record`` before the append (disk_full only)
``atomic``              ``atomic_write`` before the temp write (disk_full only)
======================  ======================================================

``K`` selects when the directive fires: for indexed sites it matches the
task index; for counter sites it fires on the call after ``K`` clean
completions (i.e. "crash after K completed batches").  Omitting ``K``
fires on every call.

Setting ``REPRO_FAULT_STATE`` to a directory makes every directive
**one-shot** (a marker file records that it already tripped — so a retry
of the failed task succeeds, which is how the retry tests distinguish
"transient" from "permanent" failures) and records every supervised call
to ``<dir>/calls.log`` as ``site:index`` lines, which the tests use to
assert exact execution counts.

``hang`` sleeps :data:`HANG_SECONDS`, far longer than any watchdog a
test or chaos run arms, so only the pool's hang watchdog
(``REPRO_TASK_TIMEOUT``, see :mod:`repro.runtime.retry`) can end it.

``signal`` delivers a real SIGTERM to the current process, exercising
the graceful-shutdown path (:mod:`repro.runtime.signals`) at an exact,
reproducible site instead of an arbitrary wall-clock instant — that
determinism is what lets the chaos harness assert byte-identical resume
after "a SIGTERM anywhere".

:class:`InjectedFault` derives from ``BaseException`` on purpose: an
injected crash stands in for a SIGKILL / OOM of the whole process, so no
production ``except Exception`` fallback may swallow it.
"""

from __future__ import annotations

import os
import signal as _signal
import time
from pathlib import Path
from typing import Iterator, Optional

#: Fault directive list (see module docstring).
FAULT_ENV = "REPRO_FAULT"
#: Directory for one-shot markers and the call log.
FAULT_STATE_ENV = "REPRO_FAULT_STATE"
#: Injected-hang sleep (far longer than any test timeout).
HANG_SECONDS = 30.0

_ACTIONS = ("crash", "hang", "corrupt", "disk_full", "signal")

#: Per-process call counters by action family and site (counter-site
#: directives only).
_counts: dict[tuple[tuple, str], int] = {}


class InjectedFault(BaseException):
    """An injected crash. BaseException so generic fallbacks can't eat it."""


def reset() -> None:
    """Clear per-process counters (test isolation)."""
    _counts.clear()


def _directives() -> list[tuple[str, str, Optional[int]]]:
    spec = os.environ.get(FAULT_ENV, "").strip()
    if not spec:
        return []
    out = []
    for item in spec.split(","):
        parts = item.strip().split(":")
        if len(parts) < 2 or parts[0] not in _ACTIONS:
            raise ValueError(f"bad {FAULT_ENV} directive {item!r}; "
                             "expected action:site[:K] with action in " + "/".join(_ACTIONS))
        out.append((parts[0], parts[1], int(parts[2]) if len(parts) > 2 else None))
    return out


def _trip_once(action: str, site: str, arg: Optional[int]) -> bool:
    """Whether this directive should fire now (one-shot under a state dir)."""
    state = os.environ.get(FAULT_STATE_ENV)
    if not state:
        return True
    marker = Path(state) / f"{action}-{site}-{arg}.tripped"
    marker.parent.mkdir(parents=True, exist_ok=True)
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _log_call(site: str, index: Optional[int]) -> None:
    state = os.environ.get(FAULT_STATE_ENV)
    if not state:
        return
    Path(state).mkdir(parents=True, exist_ok=True)
    line = f"{site}:{'' if index is None else index}\n".encode()
    # O_APPEND single write: atomic across concurrent worker processes.
    fd = os.open(Path(state) / "calls.log", os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def _firing(actions: tuple, site: str, index: Optional[int] = None) -> Iterator[tuple[str, int]]:
    """``(action, call)`` for each directive of the ``actions`` family
    aimed at ``site`` that fires on this call, by the ``K`` rules."""
    matching = [(a, arg) for a, s, arg in _directives() if s == site and a in actions]
    if not matching:
        return
    count = _counts.get((actions, site), 0)
    _counts[(actions, site)] = count + 1
    for action, arg in matching:
        hit = arg is None or (arg == index if index is not None else count >= arg)
        if hit and _trip_once(action, site, arg):
            yield action, count


def maybe_fail(site: str, index: Optional[int] = None) -> None:
    """Fire any crash/hang/signal directive aimed at ``site``; else no-op.

    ``index`` marks an indexed site (pool tasks); without it the site is
    counted per process and ``K`` means "after K clean calls".
    """
    _log_call(site, index)
    for action, count in _firing(("crash", "hang", "signal"), site, index):
        if action == "crash":
            raise InjectedFault(
                f"injected crash at site {site!r} (call {count}, index {index})"
            )
        if action == "signal":
            # A real SIGTERM at a deterministic site: the graceful
            # handler (if installed) converts it into a stop request.
            os.kill(os.getpid(), _signal.SIGTERM)
            continue
        time.sleep(HANG_SECONDS)


def maybe_corrupt(site: str, path: str | Path) -> None:
    """Fire a ``corrupt:<site>`` directive by truncating ``path`` in place."""
    for _ in _firing(("corrupt",), site):
        corrupt_file(path)
        return  # at most once per call


def maybe_disk_full(site: str) -> None:
    """Fire a ``disk_full:<site>`` directive by raising ENOSPC.

    Placed *before* durable writes (``RunJournal.record``,
    ``atomic_write``) so the chaos harness can simulate a full disk at
    an exact record boundary; the write paths guarantee that a raise
    here — like a real ENOSPC mid-write — never leaves a torn artifact.
    """
    for _, count in _firing(("disk_full",), site):
        from .atomic import DiskFullError  # local: atomic must not import faults

        raise DiskFullError(f"injected ENOSPC at site {site!r} (call {count})")


def corrupt_file(path: str | Path, keep_fraction: float = 0.5) -> None:
    """Truncate ``path`` to a fraction of its size (simulates a torn write)."""
    path = Path(path)
    size = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.truncate(max(1, int(size * keep_fraction)))
