"""Compiled forward backend: render → cc → ctypes → verify.

One :class:`CompiledStepBackend` serves one ``GPT2Inference`` instance.
Construction renders the fused C source for the model's
:class:`~.graph.StepShape`, compiles it once (or reuses a cached shared
library — in-memory per process, on-disk under ``~/.cache/repro-kernels``
keyed by source digest), binds the model's weight pointers into the
context struct, and then runs a **parity canary**: at batch 2 and batch
1, prefills of several shapes (a prompt from an empty cache, a one-token
and a two-token ``extend``) followed by decode steps, then a prefill and
a step into a cache right-sized to them, each compared bit-for-bit
against the numpy reference, including the KV-cache contents.  Any
mismatch, missing compiler, or compile error raises
:class:`BackendUnavailable` — the caller falls back to numpy and the
campaign continues.

``step()`` and ``prefill()`` are drop-ins for the numpy kernels
(``_step_numpy`` and ``_prefill_numpy``): same ``(ids, KVCache) ->
logits`` contract, same cache mutation, bit-identical output.  Both run
the same fused segments.  ``supports()`` is the cheap per-call guard
(contiguity, dtype, buffer length, position bounds); anything outside
the guard silently takes the numpy path for that call.  Token ids are
checked by the caller before either kernel runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ...telemetry.metrics import get_registry
from .blas import BlasSymbols, BlasUnavailable, find_blas
from .cstyle import (
    CTX_CACHE_PTRS,
    CTX_GLOBAL_PTRS,
    CTX_LAYER_PTRS,
    CTX_SCRATCH_PTRS,
    RENDERER_VERSION,
    ctx_ctypes_struct,
    render_step_source,
)
from .graph import HostOp, Segment, StepShape, build_step_graph, fuse_segments

__all__ = [
    "BackendUnavailable",
    "CompiledStepBackend",
    "compiler_path",
    "compiler_available",
    "kernel_cache_dir",
    "build_library",
]

KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE"

# Flag sets tried in order.  -ffp-contract=off is non-negotiable (only
# explicit fmaf() calls may fuse); -march=native is preferred for the
# vector ISA but dropped if the local cc rejects it.
_FLAG_SETS: Tuple[Tuple[str, ...], ...] = (
    ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC"),
    ("-O3", "-ffp-contract=off", "-shared", "-fPIC"),
)

# Process-wide library cache: digest -> loaded CDLL.  Shared across
# backend instances so a second model of the same shape pays nothing.
_LIB_CACHE: Dict[str, ctypes.CDLL] = {}

_COMPILE_SECONDS = 0.0


class _ThreadScratch(threading.local):
    """Grow-only kernel scratch buffers, one set per thread.

    Every engine on a thread shares the set: engines on one thread never
    run kernels at the same time, and each kernel writes every scratch
    element it reads, so sharing changes no result.  A process that
    builds an engine per model load then holds one set per thread, not
    one per engine.  Growth installs a new dict, so an engine can tell
    by identity whether its context still points at the current set.
    """

    def __init__(self) -> None:
        empty = np.empty(0, dtype=np.float32)
        self.buffers: Dict[str, np.ndarray] = {name: empty for name in CTX_SCRATCH_PTRS}


_SCRATCH = _ThreadScratch()


class BackendUnavailable(RuntimeError):
    """The compiled backend cannot be used; callers fall back to numpy."""


def compiler_path() -> Optional[str]:
    """Absolute path of the C compiler, honouring ``CC``; None if absent."""
    return shutil.which(os.environ.get("CC") or "cc")


def compiler_available() -> bool:
    return compiler_path() is not None


def kernel_cache_dir() -> str:
    override = os.environ.get(KERNEL_CACHE_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-kernels")


def _digest(source: str, flags: Tuple[str, ...]) -> str:
    h = hashlib.sha256()
    h.update(RENDERER_VERSION.encode())
    h.update(platform.machine().encode())
    h.update(" ".join(flags).encode())
    h.update(source.encode())
    return h.hexdigest()[:16]


def _compile(source: str, flags: Tuple[str, ...], out_path: str) -> None:
    cc = compiler_path()
    if cc is None:
        raise BackendUnavailable("no C compiler found (set CC or install cc)")
    cache_dir = os.path.dirname(out_path)
    os.makedirs(cache_dir, exist_ok=True)
    fd, src_path = tempfile.mkstemp(suffix=".c", dir=cache_dir)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(source)
        fd_so, tmp_so = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        os.close(fd_so)
        try:
            proc = subprocess.run(
                [cc, *flags, "-o", tmp_so, src_path, "-lm"],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                raise BackendUnavailable(
                    f"cc failed ({' '.join(flags)}): {proc.stderr.strip()[:500]}"
                )
            os.replace(tmp_so, out_path)  # atomic publish
        finally:
            if os.path.exists(tmp_so):
                os.unlink(tmp_so)
        # Keep the source next to the library for auditability.
        try:
            os.replace(src_path, out_path[:-3] + ".c")
        except OSError:
            pass
    finally:
        if os.path.exists(src_path):
            os.unlink(src_path)


def build_library(source: str, tag: str = "step") -> ctypes.CDLL:
    """Compile ``source`` (or reuse a cached build) and load it.

    Counts ``backend.kernels_compiled`` / ``backend.cache_hits`` and
    accumulates ``backend.compile_seconds`` in the metrics registry.
    Raises :class:`BackendUnavailable` when no compiler is usable.
    """
    global _COMPILE_SECONDS
    registry = get_registry()
    cache_dir = kernel_cache_dir()
    digests = [(flags, _digest(source, flags)) for flags in _FLAG_SETS]

    for _flags, digest in digests:
        if digest in _LIB_CACHE:
            registry.counter("backend.cache_hits").inc()
            return _LIB_CACHE[digest]
    for _flags, digest in digests:
        so_path = os.path.join(cache_dir, f"{tag}-{digest}.so")
        if os.path.exists(so_path):
            try:
                lib = ctypes.CDLL(so_path)
            except OSError:
                continue  # stale/foreign build; fall through to recompile
            _LIB_CACHE[digest] = lib
            registry.counter("backend.cache_hits").inc()
            return lib

    errors: List[str] = []
    for flags, digest in digests:
        so_path = os.path.join(cache_dir, f"{tag}-{digest}.so")
        started = time.perf_counter()
        try:
            _compile(source, flags, so_path)
        except BackendUnavailable as exc:
            if str(exc) not in errors:
                errors.append(str(exc))
            continue
        _COMPILE_SECONDS += time.perf_counter() - started
        lib = ctypes.CDLL(so_path)
        _LIB_CACHE[digest] = lib
        registry.counter("backend.kernels_compiled").inc()
        registry.gauge("backend.compile_seconds").set(round(_COMPILE_SECONDS, 6))
        return lib
    raise BackendUnavailable("; ".join(errors) or "compilation failed")


def _as_f32_contiguous(arr: np.ndarray, keep: List[np.ndarray]) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float32)
    keep.append(out)  # pin: ctx holds raw pointers into this memory
    return out


class CompiledStepBackend:
    """ctypes driver for the fused forward-step kernels (step and prefill)."""

    name = "compiled"

    def __init__(self, inference: Any) -> None:
        cfg = inference.config
        self._vocab = int(inference.token_emb.shape[0])
        self._block = int(inference.pos_emb.shape[0])
        head_trans, head_arr = self._head_layout(inference.lm_head)
        self.shape = StepShape(
            dim=int(cfg.dim),
            n_layers=int(cfg.n_layers),
            n_heads=int(cfg.n_heads),
            block_size=self._block,
            vocab_size=self._vocab,
            head_transposed=head_trans,
        )
        try:
            self.blas: BlasSymbols = find_blas()
        except BlasUnavailable as exc:
            raise BackendUnavailable(str(exc)) from exc
        source = render_step_source(self.shape, blas_int64=self.blas.ilp64)
        self._lib = build_library(source, tag="step")
        self._lib.repro_set_blas(
            ctypes.c_void_p(self.blas.sgemm), ctypes.c_void_p(self.blas.sgemv)
        )

        self._keep: List[np.ndarray] = []  # pins every array the ctx points into
        self._ctx = self._bind_weights(inference, head_arr)
        self._bound: Optional[Dict[str, np.ndarray]] = None  # scratch the ctx points at
        self._schedule = self._build_schedule()
        self._verify_against_reference(inference)

    # -- construction ---------------------------------------------------

    @staticmethod
    def _head_layout(lm_head: np.ndarray) -> Tuple[bool, np.ndarray]:
        """Match numpy's dispatch for ``h @ lm_head``.

        A C-contiguous (dim, vocab) head takes the NoTrans gemm; the tied
        head (a transpose view of token_emb) takes the Trans gemm on the
        (vocab, dim) base.  Anything else is copied to (dim, vocab) —
        the same buffering numpy itself performs.
        """
        if lm_head.flags.c_contiguous:
            return False, lm_head
        base = lm_head.T
        if base.flags.c_contiguous:
            return True, base
        return False, np.ascontiguousarray(lm_head)

    def _bind_weights(self, inference: Any, head_arr: np.ndarray) -> Any:
        shape = self.shape
        ctx_cls = ctx_ctypes_struct(shape.n_layers)
        ctx = ctx_cls()
        keep = self._keep

        def ptr(arr: np.ndarray) -> int:
            return _as_f32_contiguous(arr, keep).ctypes.data

        ctx.token_emb = ptr(inference.token_emb)
        ctx.pos_emb = ptr(inference.pos_emb)
        ctx.lnf_w = ptr(inference.ln_f_w)
        ctx.lnf_b = ptr(inference.ln_f_b)
        ctx.lm_head = ptr(head_arr)
        ctx.head_trans = 1 if shape.head_transposed else 0

        # _BlockWeights attribute names differ from the short C names
        # only for the second MLP matmul.
        attr_map = {"fcp_w": "fc_proj_w", "fcp_b": "fc_proj_b"}
        for field in CTX_LAYER_PTRS:
            arr_field = getattr(ctx, field)
            for layer, bw in enumerate(inference.blocks):
                arr_field[layer] = ptr(getattr(bw, attr_map.get(field, field)))
        self._ctx_ref = ctypes.byref(ctx)
        return ctx

    def _build_schedule(self) -> List[Tuple[str, Any]]:
        schedule: List[Tuple[str, Any]] = []
        for item in fuse_segments(build_step_graph(self.shape)):
            if isinstance(item, Segment):
                segment = getattr(self._lib, item.name)
                # (ctx, batch, seq, start, cap, mrows)
                segment.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 5
                segment.restype = None
                schedule.append(("seg", segment))
            else:
                schedule.append((item.func, item.buf))
        return schedule

    def _reserve(self, batch: int, seq: int, stop: int) -> Dict[str, np.ndarray]:
        """This thread's scratch, grown to fit ``seq`` new tokens per row
        attending over ``stop`` positions, with the context pointed at it.
        """
        shape = self.shape
        rows = batch * seq
        sizes = {
            "x": rows * shape.dim,
            "h": rows * shape.dim,
            "qkv": rows * 3 * shape.dim,
            "scores": rows * shape.n_heads * stop,
            "att": rows * shape.dim,
            "ff": rows * shape.ff_dim,
            "t": rows * shape.ff_dim,
            "logits": batch * self._vocab,
        }
        scratch = _SCRATCH.buffers
        if any(scratch[name].size < size for name, size in sizes.items()):
            scratch = {
                name: buf if buf.size >= sizes[name] else np.empty(sizes[name], dtype=np.float32)
                for name, buf in scratch.items()
            }
            _SCRATCH.buffers = scratch
        if self._bound is not scratch:
            for name, buf in scratch.items():
                setattr(self._ctx, name, buf.ctypes.data)
            self._bound = scratch  # also keeps the buffers alive while pointed at
        return scratch

    # -- per-call guard -------------------------------------------------

    def supports(self, ids: np.ndarray, cache: Any) -> bool:
        """True when this call is inside the kernel's validated domain.

        ``ids`` is ``(batch,)`` for a decode step and ``(batch, seq)``
        for a prefill.  Every KV buffer must be C-contiguous float32 and
        hold all ``stop`` positions the call touches (a ``trimmed()``
        cache keeps ``capacity`` at the block size, so the buffer length
        is what counts; a right-sized gather holds exactly what its
        caller fills).  A prefill ending at ``stop == 1`` stays on
        numpy: there numpy leaves the sgemm/sgemv paths.
        """
        shape = self.shape
        keys = getattr(cache, "keys", None)
        values = getattr(cache, "values", None)
        if keys is None or values is None or len(keys) != shape.n_layers:
            return False
        batch = ids.shape[0]
        seq = ids.shape[1] if ids.ndim == 2 else 1
        stop = cache.length + seq
        if batch < 1 or seq < 1 or stop > self._block or (ids.ndim == 2 and stop < 2):
            return False
        for buf in (*keys, *values):
            if (
                buf.dtype != np.float32
                or not buf.flags.c_contiguous
                or buf.ndim != 4
                or buf.shape[0] != batch
                or buf.shape[1] != shape.n_heads
                or buf.shape[2] < stop
                or buf.shape[3] != shape.head_dim
            ):
                return False
        return True

    # -- execution ------------------------------------------------------

    def step(self, next_ids: np.ndarray, cache: Any) -> np.ndarray:
        """Run one fused decode step; mirrors ``_step_numpy`` exactly."""
        ids = np.ascontiguousarray(np.asarray(next_ids).reshape(-1), dtype=np.int64)
        # numpy's step multiplies 2-D activations: one BLAS call per product.
        return self._run(ids, cache, batch=ids.shape[0], seq=1, mrows=ids.shape[0])

    def prefill(self, ids: np.ndarray, cache: Any) -> np.ndarray:
        """Feed ``(batch, seq)`` tokens; mirrors ``_prefill_numpy`` exactly."""
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        batch, seq = ids.shape
        # numpy's prefill multiplies 3-D activations: one call per batch row.
        return self._run(ids, cache, batch=batch, seq=seq, mrows=seq)

    def _run(self, ids: np.ndarray, cache: Any, batch: int, seq: int, mrows: int) -> np.ndarray:
        """Walk the segment/host-op schedule for ``seq`` new tokens per row."""
        start = cache.length
        stop = start + seq
        scratch = self._reserve(batch, seq, stop)
        ctx = self._ctx
        ctx.ids = ids.ctypes.data
        for layer in range(self.shape.n_layers):
            ctx.keys[layer] = cache.keys[layer].ctypes.data
            ctx.values[layer] = cache.values[layer].ctypes.data

        args = (self._ctx_ref, batch, seq, start, cache.keys[0].shape[2], mrows)
        n_scores = batch * seq * self.shape.n_heads * stop
        n_ff = batch * seq * self.shape.ff_dim
        for kind, payload in self._schedule:
            if kind == "seg":
                payload(*args)
            elif kind == "exp":
                flat = scratch["scores"][:n_scores]
                np.exp(flat, out=flat)
            else:  # tanh
                flat = scratch["t"][:n_ff]
                np.tanh(flat, out=flat)
        cache.length = stop
        return scratch["logits"][: batch * self._vocab].reshape(batch, self._vocab).copy()

    # -- init-time parity canary ----------------------------------------

    def _verify_against_reference(self, inference: Any) -> None:
        """Prefills then steps, bit-compared against numpy — logits and caches.

        From an empty block-size cache: a prompt of up to three tokens
        (sgemm rows, causal mask), a one-token extend (sgemv rows, one
        query per slice), a two-token extend at ``start > 0``, then two
        decode steps — each where the block size leaves room.  Then a
        three-token prompt and one step into caches of exactly four
        positions, the right-sized buffers D&C-GEN and ordered decode
        into, so a kernel that strides the KV buffers by the block size
        instead of their length is refused.
        """
        shape = self.shape
        rng = np.random.default_rng(0)
        full = (3, 1, 2, None, None)  # prefill lengths; None is a step
        short = min(4, self._block)
        replays = [(2, self._block, full), (1, self._block, full), (2, short, (3, None))]
        for batch, cap, calls in replays:
            ref_cache = self._canary_cache(batch, cap)
            got_cache = self._canary_cache(batch, cap)
            where = f"batch={batch}" if cap == self._block else f"batch={batch}, capacity {cap}"
            for seq in calls:
                step = seq is None
                stop = ref_cache.length + (seq or 1)
                if stop > cap or (not step and stop < 2):
                    continue  # no room, or numpy's own path (never the kernel's)
                size = (batch,) if step else (batch, seq)
                ids = rng.integers(0, self._vocab, size=size, dtype=np.int64)
                if not self.supports(ids, got_cache):
                    raise BackendUnavailable("parity canary: kernel rejected canonical cache")
                if step:
                    ref = inference._step_numpy(ids, ref_cache)
                    got = self.step(ids, got_cache)
                else:
                    ref = inference._prefill_numpy(ids, ref_cache)
                    got = self.prefill(ids, got_cache)
                if ref.tobytes() != got.tobytes():
                    kind = "step" if step else f"prefill seq={seq}"
                    raise BackendUnavailable(
                        f"parity canary failed: logits differ at {where}, {kind}"
                    )
            for layer in range(shape.n_layers):
                if (
                    ref_cache.keys[layer].tobytes() != got_cache.keys[layer].tobytes()
                    or ref_cache.values[layer].tobytes() != got_cache.values[layer].tobytes()
                ):
                    raise BackendUnavailable(
                        f"parity canary failed: KV cache differs at {where}, layer {layer}"
                    )

    def _canary_cache(self, batch: int, cap: int) -> Any:
        """A zeroed ``cap``-position canary cache whose buffers are carved
        from block-size arenas: a kernel that strides by the block size
        then writes into memory the canary owns and fails the comparison
        instead of corrupting the heap."""
        from ..inference import KVCache

        shape = self.shape
        cache = KVCache(shape.n_layers, batch, shape.n_heads, cap, shape.head_dim)
        arena = batch * shape.n_heads * self._block * shape.head_dim
        for buffers in (cache.keys, cache.values):
            for layer, buf in enumerate(buffers):
                buffers[layer] = np.zeros(arena, dtype=np.float32)[: buf.size].reshape(buf.shape)
        return cache
