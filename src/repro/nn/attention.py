"""Causal multi-head self-attention, as in the GPT-2 decoder."""

from __future__ import annotations

import numpy as np

from ..autograd import functional as F
from ..autograd.tensor import Tensor
from .layers import Dropout, Linear
from .module import Module

_NEG_INF = -1e9


def causal_mask(seq_len: int) -> np.ndarray:
    """Boolean mask that is True at positions a query must NOT attend to."""
    return np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)


class CausalSelfAttention(Module):
    """Masked multi-head self-attention with fused QKV projection.

    Shapes follow GPT-2: input ``(batch, seq, dim)``, ``n_heads`` heads of
    size ``dim // n_heads``, upper-triangular causal masking, optional
    attention and residual dropout.
    """

    def __init__(
        self,
        dim: int,
        n_heads: int,
        rng: np.random.Generator,
        attn_dropout: float = 0.0,
        resid_dropout: float = 0.0,
        proj_std: float = 0.02,
    ) -> None:
        super().__init__()
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} must be divisible by n_heads {n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng, std=proj_std)
        self.attn_drop = Dropout(attn_dropout, rng)
        self.resid_drop = Dropout(resid_dropout, rng)

    def forward(self, x: Tensor, pad_mask: np.ndarray | None = None) -> Tensor:
        """Apply attention.

        Parameters
        ----------
        x:
            Activations, shape ``(batch, seq, dim)``.
        pad_mask:
            Optional boolean array ``(batch, seq)`` that is True at padding
            positions; keys at those positions are masked out.
        """
        batch, seq, _ = x.shape
        q, k, v = F.split_heads(self.qkv(x), self.n_heads)  # 3 x (B, H, S, hd)
        mask = causal_mask(seq)[None, None, :, :]
        if pad_mask is not None:
            mask = mask | pad_mask[:, None, None, :]
        scores = F.scale_mask(
            q.matmul(k.swapaxes(-1, -2)), 1.0 / np.sqrt(self.head_dim), mask, _NEG_INF
        )
        weights = self.attn_drop(F.softmax(scores, axis=-1))

        out = weights.matmul(v)  # (B, H, S, hd)
        out = out.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
        return self.resid_drop(self.proj(out))
