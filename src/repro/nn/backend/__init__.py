"""Pluggable cached-forward backends for :class:`~repro.nn.inference.GPT2Inference`.

Two implementations sit behind the same ``step()``/``start()``/
``extend()`` and ``KVCache`` surface:

* ``numpy`` — the reference kernels in :mod:`repro.nn.inference`
  (``_step_numpy``, ``_prefill_numpy``); always available, define
  correctness.
* ``compiled`` — the fused C kernels in :mod:`.compiled`: one cached
  forward step over ``seq`` new tokens per row, rendered from an explicit
  op graph (:mod:`.graph` → :mod:`.cstyle`), compiled once with ``cc``
  and loaded via ``ctypes``, with numpy's own BLAS doing the matmuls in
  numpy's own call shapes so the output is bit-identical to the
  reference.  The decode step and the prefill run the same segments.

The ``backend=`` argument to ``GPT2Inference`` (the CLI's
``--backend``) wins, then the ``REPRO_BACKEND`` environment variable;
by default ``compiled`` is used whenever a C compiler is on PATH and
``numpy`` otherwise.  A compiled backend that cannot be built (compile
error, missing BLAS symbols, parity-canary failure) degrades to numpy
with a warning — it never fails a campaign.
"""

from __future__ import annotations

import os

from .blas import BlasSymbols, BlasUnavailable, find_blas
from .compiled import (
    BackendUnavailable,
    CompiledStepBackend,
    build_library,
    compiler_available,
    compiler_path,
    kernel_cache_dir,
)
from .cstyle import render_op_test_source, render_step_source
from .graph import HostOp, Op, Segment, StepShape, build_step_graph, fuse_segments

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "BackendUnavailable",
    "BlasSymbols",
    "BlasUnavailable",
    "CompiledStepBackend",
    "HostOp",
    "Op",
    "Segment",
    "StepShape",
    "build_library",
    "build_step_graph",
    "compiler_available",
    "compiler_path",
    "find_blas",
    "fuse_segments",
    "kernel_cache_dir",
    "render_op_test_source",
    "render_step_source",
    "requested_backend",
]

BACKEND_ENV = "REPRO_BACKEND"
BACKEND_NAMES = ("numpy", "compiled")


def requested_backend(explicit: str | None = None) -> str:
    """Resolve the backend request: explicit argument > env > ``compiled``
    when a C compiler is available, else ``numpy``."""
    name = (
        explicit
        or os.environ.get(BACKEND_ENV)
        or ("compiled" if compiler_available() else "numpy")
    )
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r} (expected one of {', '.join(BACKEND_NAMES)})"
        )
    return name
