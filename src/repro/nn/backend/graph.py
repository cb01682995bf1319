"""Explicit op graph for one cached forward step over ``seq`` new tokens.

The numpy reference kernels (``GPT2Inference._step_numpy`` for one token
per row, ``GPT2Inference._prefill_numpy`` for a prompt or an ``extend``)
are the same fixed sequence of small dense ops on tiny tensors.  This
module writes that sequence down as data: :func:`build_step_graph`
produces the per-layer op list for a given :class:`StepShape`, and
:func:`fuse_segments` splits it into maximal runs of C-compilable ops
separated by *host ops* — the two transcendentals (``exp`` inside
softmax, ``tanh`` inside GELU) that must be evaluated by numpy itself so
the compiled path reproduces the reference bit-for-bit (libm's
``expf``/``tanhf`` round differently from numpy's SIMD kernels).

One graph serves both kernels.  The batch, the number of new tokens per
row (``seq``), the first new position (``start``), the KV row stride
(``cap``) and the rows per dense BLAS call (``mrows``) are runtime
arguments of every segment: a decode step is the graph at ``seq == 1``
with each dense product issued as one call over all rows (numpy's 2-D
matmul), a prefill issues one call per batch row (numpy's 3-D matmul)
and masks future positions causally.

The graph is deliberately concrete: buffer names refer to the fixed
scratch layout shared between the renderer (:mod:`.cstyle`) and the
runtime (:mod:`.compiled`).  There is no shape inference or generic
scheduling — the value of the IR is that the fusion boundaries, the op
order, and the buffer traffic are inspectable and testable instead of
being implicit in a hand-written C file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "StepShape",
    "Op",
    "HostOp",
    "Segment",
    "build_step_graph",
    "fuse_segments",
    "HOST_KINDS",
]


@dataclass(frozen=True)
class StepShape:
    """Compile-time shape key for one kernel library (step and prefill).

    Two models with equal ``StepShape`` share a compiled library (the
    weight *values* are passed at runtime through the context struct).
    ``block_size`` is the maximum sequence length the kernel must
    support; the actual KV-cache capacity is a runtime argument so
    ``KVCache.gather``/``trimmed`` buffers of any capacity work.
    """

    dim: int
    n_layers: int
    n_heads: int
    block_size: int
    vocab_size: int
    head_transposed: bool  # lm_head passed as (vocab, dim), used transposed

    @property
    def head_dim(self) -> int:
        return self.dim // self.n_heads

    @property
    def ff_dim(self) -> int:
        return 4 * self.dim

    @property
    def kscale(self) -> float:
        """float32(sqrt(head_dim)) — the reference divides scores by this."""
        import numpy as np

        return float(np.float32(math.sqrt(float(self.head_dim))))

    def key(self) -> Tuple[Any, ...]:
        return (
            self.dim,
            self.n_layers,
            self.n_heads,
            self.block_size,
            self.vocab_size,
            self.head_transposed,
        )

    def validate(self) -> None:
        if self.dim <= 0 or self.n_layers <= 0 or self.n_heads <= 0:
            raise ValueError("StepShape dims must be positive")
        if self.dim % self.n_heads:
            raise ValueError("dim must be divisible by n_heads")
        if self.block_size <= 0 or self.vocab_size <= 0:
            raise ValueError("block_size and vocab_size must be positive")


# Host ops and the flat scratch buffer each one transforms in place.
HOST_KINDS: Dict[str, str] = {"host_exp": "scores", "host_tanh": "t"}


@dataclass(frozen=True)
class Op:
    """One primitive in the forward-step graph.

    ``kind`` selects the emitter in :mod:`.cstyle`; ``layer`` is the
    transformer block index (``None`` for the embed/final ops); ``attrs``
    carries emitter-specific operands (buffer and weight names, widths).
    """

    kind: str
    layer: Optional[int] = None
    attrs: Tuple[Tuple[str, Any], ...] = ()

    def attr(self, name: str, default: Any = None) -> Any:
        for key, value in self.attrs:
            if key == name:
                return value
        return default

    @property
    def is_host(self) -> bool:
        return self.kind in HOST_KINDS


def _op(kind: str, layer: Optional[int] = None, **attrs: Any) -> Op:
    return Op(kind=kind, layer=layer, attrs=tuple(sorted(attrs.items())))


@dataclass(frozen=True)
class HostOp:
    """A fusion boundary: numpy applies ``func`` to flat buffer ``buf``."""

    func: str  # "exp" | "tanh"
    buf: str  # scratch name; active length depends on batch/seq/stop


@dataclass
class Segment:
    """A maximal run of compilable ops, rendered as one C function."""

    index: int
    ops: List[Op] = field(default_factory=list)

    @property
    def name(self) -> str:
        return f"repro_seg{self.index}"


def build_step_graph(shape: StepShape) -> List[Op]:
    """The full op list for one cached forward step, mirroring numpy.

    Order and operand grouping follow ``GPT2Inference._step_numpy`` and
    ``GPT2Inference._prefill_numpy`` exactly — any reordering (e.g.
    folding a bias add into a matmul epilogue) changes float32 rounding
    and breaks the byte-identity contract, so the graph is the reference
    ordering made explicit.  ``attn_scores`` covers ``q·Kᵀ``, the scale,
    the causal ``-1e9`` fill and the max shift; the final ``layernorm``
    (``last``) reads only each row's last new position, as the reference
    does before the LM head.
    """
    shape.validate()
    dim, ff = shape.dim, shape.ff_dim
    ops: List[Op] = [_op("embed")]
    for layer in range(shape.n_layers):
        ops.extend(
            [
                _op("layernorm", layer, src="x", out="h", w="ln1_w", b="ln1_b"),
                _op("matmul", layer, a="h", w="qkv_w", out="qkv", k=dim, n=3 * dim),
                _op("bias_add", layer, buf="qkv", b="qkv_b", n=3 * dim),
                _op("cache_write", layer),
                _op("attn_scores", layer),
                _op("host_exp", layer),
                _op("softmax_norm", layer),
                _op("attn_mix", layer),
                _op("matmul", layer, a="att", w="proj_w", out="h", k=dim, n=dim),
                _op("residual_add", layer, buf="x", src="h", b="proj_b", n=dim),
                _op("layernorm", layer, src="x", out="h", w="ln2_w", b="ln2_b"),
                _op("matmul", layer, a="h", w="fc_w", out="ff", k=dim, n=ff),
                _op("bias_add", layer, buf="ff", b="fc_b", n=ff),
                _op("gelu_inner", layer),
                _op("host_tanh", layer),
                _op("gelu_outer", layer),
                _op("matmul", layer, a="t", w="fcp_w", out="h", k=ff, n=dim),
                _op("residual_add", layer, buf="x", src="h", b="fcp_b", n=dim),
            ]
        )
    ops.append(_op("layernorm", None, src="x", out="h", w="lnf_w", b="lnf_b", last=True))
    ops.append(_op("head"))
    return ops


def fuse_segments(ops: List[Op]) -> List[Union[Segment, HostOp]]:
    """Split the op list at host ops into compilable segments.

    Returns the interleaved schedule the runtime walks: C segment, host
    transcendental, C segment, ...  For an ``n_layers``-block model this
    yields ``2*n_layers + 1`` segments separated by ``2*n_layers`` host
    calls.
    """
    program: List[Union[Segment, HostOp]] = []
    current = Segment(index=0)
    for op in ops:
        if op.is_host:
            if current.ops:
                program.append(current)
            program.append(HostOp(func=op.kind.replace("host_", ""), buf=HOST_KINDS[op.kind]))
            current = Segment(index=len([p for p in program if isinstance(p, Segment)]))
        else:
            current.ops.append(op)
    if current.ops:
        program.append(current)
    return program
