"""Sampling wall-clock profiler: one sampler thread + ``sys._current_frames``.

A stdlib-only continuous profiler for long campaigns.  While it runs, a
daemon sampler thread wakes every ``interval`` seconds and takes one
tick: it counts the tick against the innermost telemetry span open in
the thread that started the profiler, then records the call stack of
every other live thread.  Each stack is folded into the classic
flamegraph line format::

    span:dcgen.execute_batch;cli.py:cmd_generate;dcgen.py:generate;... 42

The leading ``span:<name>`` frame attributes the sample to the
innermost span open in *that* thread's session (``span:-`` when none;
see :func:`~repro.telemetry.tracing.thread_session`), so the flamegraph
directly answers *which phase* burns the wall-clock — the same
attribution axis the span records use — and a server fleet slot's
stacks sit under its own job's spans.  Every thread is sampled at the
same rate: the main thread, server fleet slots, the asyncio loop's
executor threads.

* **Wall clock** — a thread blocked in I/O, on a lock, or in a C call
  that released the GIL is sampled where it waits.  A tick needs the
  GIL, so while another thread holds it a tick waits for the next
  thread switch (``sys.getswitchinterval()``, 5 ms by default).
* **Fork** — threads do not survive ``fork()``, so worker pools spawned
  while profiling run unprofiled; the parent's samples still attribute
  the pool wait to the supervising span.
* **Determinism** — sampling never touches rng, metrics values, or the
  guess stream; the profile artifact is wall-clock-shaped by nature and
  is therefore excluded from ``stable_events`` determinism diffs.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from typing import Dict, Optional, Union

from ..runtime.atomic import atomic_write_text
from . import tracing

#: Frames deeper than this are truncated (keeps tick cost bounded).
MAX_STACK_DEPTH = 128


class ProfilerError(RuntimeError):
    """The profiler cannot start (it is already running)."""


def _span_name(thread_id: int) -> str:
    """Innermost span open in thread ``thread_id``'s session, or ``-``."""
    sess = tracing.thread_session(thread_id)
    span = sess.current_span() if sess is not None else None
    return span.name if span is not None else "-"


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

    or as a context manager.
    """

    def __init__(self, interval: float = 0.005) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        self.interval = float(interval)
        #: Folded stack line -> sample count.
        self.samples: Dict[str, int] = {}
        #: Span name -> sample count (the attribution summary).
        self.span_samples: Dict[str, int] = {}
        #: Ticks taken; each folds one stack per sampled thread.
        self.sample_count = 0
        self._thread: Optional[threading.Thread] = None
        self._starter = 0  # id of the thread that started the profiler
        self._halt = threading.Event()

    # ------------------------------------------------------------------
    # Sampling (the sampler thread is the only writer of the counts)
    # ------------------------------------------------------------------
    def _fold_stack(self, frame, span_label: str) -> None:
        stack = []
        while frame is not None and len(stack) < MAX_STACK_DEPTH:
            stack.append(_format_frame(frame))
            frame = frame.f_back
        stack.append(span_label)
        stack.reverse()  # root-first, as flamegraph tooling expects
        key = ";".join(stack)
        self.samples[key] = self.samples.get(key, 0) + 1

    def _tick(self, own_ident: int) -> None:
        self.sample_count += 1
        span_name = _span_name(self._starter)
        self.span_samples[span_name] = self.span_samples.get(span_name, 0) + 1
        for thread_id, frame in sys._current_frames().items():
            if thread_id != own_ident:
                self._fold_stack(frame, f"span:{_span_name(thread_id)}")

    def _sample(self) -> None:
        own_ident = threading.get_ident()
        while not self._halt.wait(self.interval):
            self._tick(own_ident)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise ProfilerError("profiler already running")
        self._halt.clear()
        self._starter = threading.get_ident()
        self._thread = threading.Thread(
            target=self._sample, name="profiler-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampler thread and record the summary event."""
        if self._thread is None:
            return
        self._halt.set()
        self._thread.join()
        self._thread = None
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
