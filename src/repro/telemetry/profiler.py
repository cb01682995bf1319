"""Sampling wall-clock profiler: ``setitimer`` + ``sys._current_frames``.

A stdlib-only continuous profiler for long campaigns: a POSIX interval
timer delivers ``SIGALRM`` every ``interval`` seconds, and the Python
signal handler (which runs between bytecodes on the main thread)
records the current call stack of every thread.  Each sample is folded
into the classic flamegraph line format::

    span:dcgen.execute_batch;cli.py:cmd_generate;dcgen.py:generate;... 42

The leading ``span:<name>`` frame attributes the sample to the
innermost open telemetry span (``span:-`` when none), so the flamegraph
directly answers *which phase* burns the wall-clock — the same
attribution axis the span records and the bench's phase timers use.

Design constraints honoured here:

* **Signal-safety** — the handler only walks the delivered main-thread
  frame and increments a dict counter; no I/O, no interpreter-internal
  locks (``sys._current_frames`` takes CPython's thread-list lock, so
  all-threads sampling runs on the keeper thread, never in the
  handler), no locks shared with the sampled code paths.
* **Fork-safety** — POSIX interval timers are *not* inherited across
  ``fork()``, so worker pools spawned while profiling run unprofiled
  instead of double-sampling; the parent's samples still attribute the
  pool wait to the supervising span.
* **Determinism** — sampling never touches rng, metrics values, or the
  guess stream; the profile artifact is wall-clock-shaped by nature and
  is therefore excluded from ``stable_events`` determinism diffs.
* **GIL liveness** — a daemon "keeper" thread idles at 50ms while the
  profiler runs, guaranteeing a second GIL taker so CPython 3.11's
  ``drop_gil`` forced-switch wait can never block the main thread
  indefinitely (see ``_keep_gil_moving``).

Only the main thread may install signal handlers, so :meth:`start`
raises :class:`ProfilerError` anywhere else (e.g. a server fleet slot);
callers gate on that instead of crashing mid-campaign.
"""

from __future__ import annotations

import contextvars
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Union

from ..runtime.atomic import atomic_write_text
from . import tracing

#: Frames deeper than this are truncated (keeps handler cost bounded).
MAX_STACK_DEPTH = 128


class ProfilerError(RuntimeError):
    """Profiling cannot run here (non-main thread, nested start, ...)."""


def _format_frame(frame) -> str:
    code = frame.f_code
    filename = os.path.basename(code.co_filename)
    qualname = getattr(code, "co_qualname", None) or code.co_name
    return f"{filename}:{qualname}"


class SamplingProfiler:
    """Wall-clock sampling profiler with span attribution.

    Usage::

        profiler = SamplingProfiler(interval=0.005)
        profiler.start()
        ...             # campaign runs, samples accumulate
        profiler.stop()
        profiler.write("profile.folded")

    or as a context manager.  ``all_threads`` additionally samples
    non-main threads via ``sys._current_frames`` (fleet slots, the
    asyncio loop's executor threads).
    """

    def __init__(
        self,
        interval: float = 0.005,
        all_threads: bool = True,
        clock=time.perf_counter,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        self.interval = float(interval)
        self.all_threads = all_threads
        self._clock = clock
        #: Folded stack line -> sample count.
        self.samples: Dict[str, int] = {}
        #: Span name -> sample count (the attribution summary).
        self.span_samples: Dict[str, int] = {}
        self.sample_count = 0
        self.started_at: Optional[float] = None
        self.elapsed: float = 0.0
        self._running = False
        self._previous_handler = None
        self._keeper: Optional[threading.Thread] = None
        self._keeper_stop: Optional[threading.Event] = None
        self._keeper_ident: Optional[int] = None

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _fold_stack(self, frame, span_label: str) -> None:
        stack = []
        depth = 0
        while frame is not None and depth < MAX_STACK_DEPTH:
            stack.append(_format_frame(frame))
            frame = frame.f_back
            depth += 1
        stack.append(span_label)
        stack.reverse()  # root-first, as flamegraph tooling expects
        key = ";".join(stack)
        self.samples[key] = self.samples.get(key, 0) + 1

    def _span_label(self) -> str:
        sess = tracing.active()
        span = sess.current_span() if sess is not None else None
        return f"span:{span.name if span is not None else '-'}"

    def _handle_signal(self, signum, frame) -> None:
        # Runs between bytecodes on the main thread.  It must never
        # touch interpreter-internal locks: in particular it must NOT
        # call ``sys._current_frames`` — that takes CPython's
        # thread-list HEAD_LOCK, and re-acquiring engine locks from
        # signal context at kHz rates was observed to wedge the main
        # thread in a permanent sem_wait beneath a numpy call.  The
        # delivered ``frame`` is the interrupted main-thread stack and
        # costs nothing to walk; other threads are sampled by the
        # keeper (ordinary thread context) instead.
        self.sample_count += 1
        span_label = self._span_label()
        span_name = span_label[len("span:"):]
        self.span_samples[span_name] = self.span_samples.get(span_name, 0) + 1
        self._fold_stack(frame, span_label)

    # ------------------------------------------------------------------
    # Keeper thread: aux-thread sampling + GIL liveness
    # ------------------------------------------------------------------
    # A daemon thread with two jobs.  First, it owns every
    # ``sys._current_frames`` call: walking the thread list takes
    # interpreter-internal locks, which is routine from an ordinary
    # thread but hazardous from the signal handler (see
    # ``_handle_signal``), so non-main threads are sampled here at the
    # keeper cadence rather than per-signal.  Second, its periodic GIL
    # acquisition guarantees a second GIL taker, so CPython's
    # ``drop_gil`` forced-switch wait (releasing thread blocks until
    # *another* thread takes the GIL) can never strand the main thread
    # once worker/server threads have exited.  It touches no rng,
    # metrics or stream state, so determinism is unaffected.
    _KEEPER_PERIOD = 0.05

    def _keep_gil_moving(self) -> None:
        self._keeper_ident = threading.get_ident()
        while not self._keeper_stop.wait(self._KEEPER_PERIOD):
            if not self.all_threads:
                continue
            span_label = self._span_label()
            main_id = threading.main_thread().ident
            for thread_id, thread_frame in sys._current_frames().items():
                if thread_id == main_id or thread_id == self._keeper_ident:
                    continue  # main sampled via the handler; keeper is ours
                self._fold_stack(thread_frame, span_label)

    def _start_keeper(self) -> None:
        self._keeper_stop = threading.Event()
        # A new thread starts with an empty context (no session): run the
        # keeper in a copy of ours, so it labels stacks with our open span.
        self._keeper = threading.Thread(
            target=contextvars.copy_context().run,
            args=(self._keep_gil_moving,),
            name="profiler-gil-keeper",
            daemon=True,
        )
        self._keeper.start()

    def _stop_keeper(self) -> None:
        if self._keeper is None:
            return
        self._keeper_stop.set()
        self._keeper.join(timeout=5.0)
        self._keeper = None
        self._keeper_ident = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise ProfilerError("profiler already running")
        if threading.current_thread() is not threading.main_thread():
            raise ProfilerError("sampling profiler must start on the main thread")
        self._previous_handler = signal.signal(signal.SIGALRM, self._handle_signal)
        # Restart interrupted syscalls instead of surfacing EINTR: at
        # kHz sampling rates an EINTR storm hammers every blocking wait
        # beneath numpy/BLAS; the kernel restarting them transparently
        # is both cheaper and safer.  Python-level delivery (between
        # bytecodes, wakeup fd) is unaffected by SA_RESTART.
        signal.siginterrupt(signal.SIGALRM, False)
        self._start_keeper()
        self.started_at = self._clock()
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Disarm the timer, restore the handler, record the summary."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
        self._stop_keeper()
        self._previous_handler = None
        self._running = False
        self.elapsed += self._clock() - (self.started_at or 0.0)
        tracing.emit(
            "profile",
            level="debug",
            samples=self.sample_count,
            distinct_stacks=len(self.samples),
            interval_s=self.interval,
            span_samples=dict(sorted(self.span_samples.items())),
        )

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def folded(self) -> str:
        """Samples in folded flamegraph format, deterministically sorted."""
        lines = [f"{stack} {count}" for stack, count in sorted(self.samples.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def top_spans(self, limit: int = 10) -> list:
        """``(span_name, samples)`` pairs, most-sampled first."""
        ranked = sorted(self.span_samples.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:limit]

    def write(self, path: Union[str, Path]) -> Path:
        """Atomically write the folded profile; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, self.folded())
        return path
