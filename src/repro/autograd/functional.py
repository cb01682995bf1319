"""Fused, numerically stable ops built on :mod:`repro.autograd.tensor`.

These implement the delicate pieces of the GPT-2 forward/backward pass as
single graph nodes with hand-derived gradients, both for numerical
stability (log-sum-exp tricks) and to keep graphs small during training.

The training-step nodes (:func:`linear`, :func:`gelu`, :func:`softmax`,
:func:`layer_norm`, :func:`dropout`, :func:`split_heads` and
:func:`scale_mask`) run the float32 operations of the unfused
composition they replace, in the same order, but write them into as few
buffers as they can, so a training run's losses and weights stay the
same to the bit.  ``tests/test_autograd_functional.py`` holds each node
to that composition.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .tensor import Tensor, _op, _unbroadcast, _DEFAULT_DTYPE

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


@functools.cache
def _contiguous_product_exact(rows: int, shape: tuple[int, ...]) -> bool:
    """Whether ``g @ w.T`` gives the same bits on a C-contiguous copy of
    ``w.T`` as on the transposed view, for ``rows``-row products with
    weights of ``shape``.

    BLAS picks its kernel, and so its summation order, from the call's
    shape and transposition alone, never from the values: one comparison
    on seeded random data decides a shape for the whole process.  Small
    row counts and some widths take a kernel whose bits differ.
    """
    rng = np.random.default_rng(0)
    g = rng.standard_normal((rows, shape[1]), dtype=_DEFAULT_DTYPE)
    w = rng.standard_normal(shape, dtype=_DEFAULT_DTYPE)
    return (g @ w.T).tobytes() == (g @ np.ascontiguousarray(w.T)).tobytes()


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` over the last axis as one node.

    The input gradient ``g @ weight.T`` runs on a C-contiguous copy of
    ``weight.T``, about twice as fast as numpy's product on the
    transposed view, wherever :func:`_contiguous_product_exact` finds the
    two bitwise equal; elsewhere it keeps numpy's product.  The weight
    gradient stays the per-row stacked product summed over the batch
    axis: one 2-D product over all rows would change its low bits.
    """
    out_data = x.data @ weight.data
    if bias is not None:
        out_data += bias.data

    def backward(g: np.ndarray, a=x, w=weight, b=bias) -> list:
        pending = []
        if a.requires_grad or a._parents:
            wt = w.data.T
            if g.ndim > 1 and _contiguous_product_exact(g.shape[-2], w.data.shape):
                wt = np.ascontiguousarray(wt)
            pending.append((a, g @ wt))
        if w.requires_grad or w._parents:
            gw = np.swapaxes(a.data, -1, -2) @ g
            pending.append((w, _unbroadcast(gw, w.data.shape)))
        if b is not None and (b.requires_grad or b._parents):
            pending.append((b, _unbroadcast(g, b.data.shape)))
        return pending

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _op(out_data, parents, backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with a fused backward pass."""
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray, a=x, s=out_data, ax=axis) -> list:
        grad = g * s
        inner = grad.sum(axis=ax, keepdims=True)
        np.subtract(g, inner, out=grad)
        grad *= s
        return [(a, grad)]

    return _op(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (log-sum-exp stabilised)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp

    def backward(g: np.ndarray, a=x, ls=out_data, ax=axis) -> list:
        softmax_vals = np.exp(ls)
        return [(a, g - softmax_vals * g.sum(axis=ax, keepdims=True))]

    return _op(out_data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """GELU activation (tanh approximation, as in GPT-2).

    Cubes are spelled as repeated multiplication: ``ndarray ** 3`` routes
    through the generic pow loop, which is two orders of magnitude slower
    on this hot path.  The forward pass fills four buffers (``x * x`` and
    the tanh, both kept for backward, ``1 + tanh`` and the output), the
    backward pass three.
    """
    data = x.data
    x2 = data * data
    t = x2 * data
    t *= 0.044715
    t += data
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    out_data = 0.5 * data
    out_data *= 1.0 + t

    def backward(g: np.ndarray, a=x, t=t, x2=x2) -> list:
        # 0.5 (1 + t) + 0.5 x (1 - t^2) sqrt(2/pi) (1 + 3c x^2), times g.
        d_inner = x2 * (3 * 0.044715)
        d_inner += 1.0
        d_inner *= _SQRT_2_OVER_PI
        grad = t * t
        np.subtract(1.0, grad, out=grad)
        slope = 0.5 * a.data
        slope *= grad
        slope *= d_inner
        np.add(t, 1.0, out=grad)
        grad *= 0.5
        grad += slope
        grad *= g
        return [(a, grad)]

    return _op(out_data, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis with affine transform.

    Fused node: computes mean/variance once and reuses them in the
    backward pass, which matters because GPT-2 calls this twice per block.
    """
    mu = x.data.mean(axis=-1, keepdims=True)
    x_hat = x.data - mu  # centred now, normalised below
    out_data = x_hat * x_hat  # the squares until the affine transform
    var = out_data.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat *= inv_std
    np.multiply(x_hat, weight.data, out=out_data)
    out_data += bias.data

    def backward(g: np.ndarray, a=x, w=weight, b=bias, xh=x_hat, istd=inv_std) -> list:
        pending = []
        axes = tuple(range(g.ndim - 1))
        scratch = None
        if a.requires_grad or a._parents:
            # Classic fused layer-norm gradient:
            # (g w - mean(g w) - x_hat mean(g w x_hat)) * inv_std.
            grad_x = g * w.data
            scratch = grad_x * xh
            centre = grad_x.mean(axis=-1, keepdims=True)
            spread = scratch.mean(axis=-1, keepdims=True)
            grad_x -= centre
            np.multiply(xh, spread, out=scratch)
            grad_x -= scratch
            grad_x *= istd
            pending.append((a, grad_x))
        if w.requires_grad:
            if scratch is None:
                scratch = g * xh
            else:
                np.multiply(g, xh, out=scratch)
            pending.append((w, scratch.sum(axis=axes)))
        if b.requires_grad:
            pending.append((b, g.sum(axis=axes)))
        return pending

    return _op(out_data, (x, weight, bias), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Mean token-level cross-entropy between ``logits`` and ``targets``.

    Parameters
    ----------
    logits:
        Shape ``(..., vocab)``.
    targets:
        Integer array with shape ``logits.shape[:-1]``.
    ignore_index:
        Target value whose positions contribute neither loss nor gradient
        (used to mask ``<PAD>`` tokens).
    """
    targets = np.asarray(targets)
    flat_logits = logits.data.reshape(-1, logits.data.shape[-1])
    flat_targets = targets.reshape(-1)

    if ignore_index is not None:
        valid = flat_targets != ignore_index
    else:
        valid = np.ones_like(flat_targets, dtype=bool)
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy received no valid target positions")

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - logsumexp

    safe_targets = np.where(valid, flat_targets, 0)
    picked = log_probs[np.arange(len(flat_targets)), safe_targets]
    loss = -(picked * valid).sum() / n_valid
    out_data = np.asarray(loss, dtype=_DEFAULT_DTYPE)

    def backward(g: np.ndarray, a=logits, lp=log_probs, tg=safe_targets, v=valid, n=n_valid) -> list:
        probs = np.exp(lp)
        probs[np.arange(len(tg)), tg] -= 1.0
        probs *= (v / n)[:, None]
        return [(a, (g * probs).reshape(a.data.shape))]

    return _op(out_data, (logits,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)``."""
    if not training:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = np.empty(x.data.shape, dtype=_DEFAULT_DTYPE)
    np.greater_equal(rng.random(x.data.shape), p, out=keep)
    keep /= 1.0 - p
    out_data = x.data * keep

    def backward(g: np.ndarray, a=x, k=keep) -> list:
        return [(a, g * k)]

    return _op(out_data, (x,), backward)


def split_heads(qkv: Tensor, n_heads: int) -> tuple[Tensor, Tensor, Tensor]:
    """Split a fused ``(batch, seq, 3 * dim)`` projection into query, key
    and value heads, each a ``(batch, n_heads, seq, head_dim)`` view.

    The three views write their gradients into one zero-filled buffer
    laid out like ``qkv``, which reaches ``qkv`` once: backward neither
    allocates three ``qkv``-sized arrays nor sums them.  A view that gets
    no gradient leaves its third of the buffer zero.
    """
    batch, seq, width = qkv.data.shape
    shape = (batch, seq, 3, n_heads, width // (3 * n_heads))
    heads = qkv.data.reshape(shape).transpose(2, 0, 3, 1, 4)
    # The gradient buffer of the running backward pass: the first view
    # to get a gradient allocates it and hands it to ``hub`` (Tensor.backward
    # keeps a node's first gradient as is, so later writes reach ``hub``),
    # the others add into it, and ``hub`` (always processed after all
    # three) releases it, so a second backward pass starts afresh.
    shared: list[np.ndarray] = []

    def hub_backward(g: np.ndarray, a=qkv, buf=shared) -> list:
        buf.clear()
        return [(a, g.reshape(a.data.shape))]

    hub = _op(qkv.data, (qkv,), hub_backward)

    def view(index: int) -> Tensor:
        def backward(g: np.ndarray, h=hub, buf=shared) -> list:
            first = not buf
            if first:
                buf.append(np.zeros(shape, dtype=_DEFAULT_DTYPE))
            slot = buf[0][:, :, index].transpose(0, 2, 1, 3)
            slot += g
            return [(h, buf[0])] if first else []

        return _op(heads[index], (hub,), backward)

    return view(0), view(1), view(2)


def scale_mask(x: Tensor, scale: float, mask: np.ndarray, value: float) -> Tensor:
    """``x * scale``, then ``value`` wherever ``mask`` (broadcast against
    ``x``) is True, as one node: attention scores take their
    ``1/sqrt(head_dim)`` scale and their causal and padding mask here.
    Masked positions pass no gradient.
    """
    scale = np.asarray(scale, dtype=_DEFAULT_DTYPE)
    mask = np.asarray(mask, dtype=bool)
    out_data = x.data * scale
    np.copyto(out_data, np.asarray(value, dtype=_DEFAULT_DTYPE), where=mask)

    def backward(g: np.ndarray, a=x, s=scale, m=mask) -> list:
        grad = np.where(m, 0.0, g)
        grad *= s
        return [(a, grad)]

    return _op(out_data, (x,), backward)
