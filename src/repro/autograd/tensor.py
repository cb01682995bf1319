"""Reverse-mode automatic differentiation on numpy arrays.

This module is the substrate that replaces PyTorch in the reproduction: a
``Tensor`` wraps a ``numpy.ndarray`` and records the operations applied to
it so that :meth:`Tensor.backward` can propagate gradients through the
recorded graph.  The design follows the classic tape-free "define-by-run"
scheme: every op returns a new ``Tensor`` holding references to its parents
and a closure that, given the output gradient, accumulates gradients into
the parents.

Only the ops needed by the password-guessing models live here; fused or
numerically delicate ops (softmax, layer-norm, cross-entropy) are in
:mod:`repro.autograd.functional`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int]

_DEFAULT_DTYPE = np.float32

# Global switch used by ``no_grad`` to cheaply disable graph recording
# during generation / evaluation, where gradients are never needed.
_grad_enabled = True


class no_grad:
    """Context manager that disables gradient recording.

    Mirrors ``torch.no_grad()``: inside the block every op produces
    constant tensors with no parents, which keeps generation loops from
    retaining the whole computation graph.
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether ops currently record the backward graph."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting in the forward pass replicates values; the corresponding
    backward op must therefore *sum* the incoming gradient over every axis
    that was expanded.
    """
    if grad.shape == shape:
        return grad
    # Sum out leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """Whether ``index`` uses only basic indexing (ints, slices,
    ``None``, ``Ellipsis``), which never selects a position twice."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None
        or item is Ellipsis
        or isinstance(item, slice)
        or (isinstance(item, (int, np.integer)) and not isinstance(item, (bool, np.bool_)))
        for item in items
    )


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


def as_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (no-op if it already is one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=_DEFAULT_DTYPE))


class Tensor:
    """A numpy array plus the machinery for reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array content.  Always stored as ``float32`` unless the caller
        passes an array with another float dtype explicitly.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    parents:
        The tensors this one was computed from (internal).
    backward_fn:
        Closure mapping the output gradient to parent-gradient updates
        (internal).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        elif data.dtype != _DEFAULT_DTYPE and np.issubdtype(data.dtype, np.floating):
            data = data.astype(_DEFAULT_DTYPE)
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _grad_enabled
        self._parents: tuple[Tensor, ...] = tuple(parents) if _grad_enabled else ()
        self._backward_fn = backward_fn if _grad_enabled else None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    def item(self) -> float:
        """Return the scalar value of a one-element tensor."""
        if self.data.size != 1:
            raise ValueError(f"item() requires a one-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if self.grad is None:
            self.grad = grad.astype(_DEFAULT_DTYPE, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (i.e. ``d self / d self``); for the usual
        scalar-loss case no argument is needed.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad, dtype=_DEFAULT_DTYPE)}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward_fn is None:
                # Leaf tensor: stash the gradient.
                node._accumulate(node_grad)
            if node._backward_fn is not None:
                # The op's backward closure returns (parent, grad) pairs.
                # It deliberately does NOT reference the output tensor, so
                # graphs are reference-cycle-free and are reclaimed by
                # refcounting the moment the loss tensor goes out of scope
                # (a cycle here once forced multi-gigabyte gen-2 GC churn
                # in long benchmark processes).
                for parent, pgrad in node._backward_fn(node_grad):
                    key = id(parent)
                    if key in grads:
                        # Out of place: one op may hand the same array to
                        # two parents (``a + b`` passes ``g`` to both), or
                        # a read-only one, so ``+=`` could change another
                        # parent's gradient or fail.
                        grads[key] = grads[key] + pgrad
                    else:
                        grads[key] = pgrad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data + other_t.data

        def backward(g: np.ndarray, a=self, b=other_t) -> list:
            pending = []
            if a.requires_grad or a._parents:
                pending.append((a, _unbroadcast(g, a.data.shape)))
            if b.requires_grad or b._parents:
                pending.append((b, _unbroadcast(g, b.data.shape)))
            return pending

        return _op(out_data, (self, other_t), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray, a=self) -> list:
            return [(a, -g)]

        return _op(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data * other_t.data

        def backward(g: np.ndarray, a=self, b=other_t) -> list:
            pending = []
            if a.requires_grad or a._parents:
                pending.append((a, _unbroadcast(g * b.data, a.data.shape)))
            if b.requires_grad or b._parents:
                pending.append((b, _unbroadcast(g * a.data, b.data.shape)))
            return pending

        return _op(out_data, (self, other_t), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data / other_t.data

        def backward(g: np.ndarray, a=self, b=other_t) -> list:
            pending = []
            if a.requires_grad or a._parents:
                pending.append((a, _unbroadcast(g / b.data, a.data.shape)))
            if b.requires_grad or b._parents:
                pending.append(
                    (b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))
                )
            return pending

        return _op(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(g: np.ndarray, a=self, n=exponent) -> list:
            return [(a, g * n * a.data ** (n - 1))]

        return _op(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix multiply with full batched-broadcasting support."""
        other_t = as_tensor(other)
        out_data = self.data @ other_t.data

        def backward(g: np.ndarray, a=self, b=other_t) -> list:
            pending = []
            if a.requires_grad or a._parents:
                ga = g @ np.swapaxes(b.data, -1, -2)
                pending.append((a, _unbroadcast(ga, a.data.shape)))
            if b.requires_grad or b._parents:
                gb = np.swapaxes(a.data, -1, -2) @ g
                pending.append((b, _unbroadcast(gb, b.data.shape)))
            return pending

        return _op(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray, a=self, out=out_data) -> list:
            return [(a, g * out)]

        return _op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g: np.ndarray, a=self) -> list:
            return [(a, g / a.data)]

        return _op(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray, a=self, out=out_data) -> list:
            return [(a, g * 0.5 / out)]

        return _op(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray, a=self, out=out_data) -> list:
            return [(a, g * (1.0 - out * out))]

        return _op(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray, a=self, out=out_data) -> list:
            return [(a, g * out * (1.0 - out))]

        return _op(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray, a=self, m=mask) -> list:
            return [(a, g * m)]

        return _op(self.data * mask, (self,), backward)

    def leaky_relu(self, slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, slope * self.data)

        def backward(g: np.ndarray, a=self, m=mask, s=slope) -> list:
            return [(a, g * np.where(m, 1.0, s).astype(_DEFAULT_DTYPE))]

        return _op(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(g: np.ndarray, a=self, s=sign) -> list:
            return [(a, g * s)]

        return _op(np.abs(self.data), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray, a=self, ax=axis, kd=keepdims) -> list:
            if ax is None:
                grad = np.broadcast_to(g, a.data.shape)
            else:
                if not kd:
                    g = np.expand_dims(g, ax)
                grad = np.broadcast_to(g, a.data.shape)
            return [(a, np.ascontiguousarray(grad))]

        return _op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[i] for i in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray, a=self, ax=axis, kd=keepdims, out=out_data) -> list:
            if ax is None:
                mask = (a.data == out).astype(_DEFAULT_DTYPE)
                grad = g * mask / mask.sum()
            else:
                out_b = out if kd else np.expand_dims(out, ax)
                g_b = g if kd else np.expand_dims(g, ax)
                mask = (a.data == out_b).astype(_DEFAULT_DTYPE)
                mask /= mask.sum(axis=ax, keepdims=True)
                grad = g_b * mask
            return [(a, grad)]

        return _op(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(g: np.ndarray, a=self) -> list:
            return [(a, g.reshape(a.data.shape))]

        return _op(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(g: np.ndarray, a=self, inv=tuple(inverse)) -> list:
            return [(a, g.transpose(inv))]

        return _op(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        out_data = np.swapaxes(self.data, axis1, axis2)

        def backward(g: np.ndarray, a=self, a1=axis1, a2=axis2) -> list:
            return [(a, np.swapaxes(g, a1, a2))]

        return _op(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(g: np.ndarray, a=self, idx=index, basic=_is_basic_index(index)) -> list:
            grad = np.zeros_like(a.data)
            if basic:
                # No position can repeat, so a plain add gives the bits
                # of np.add.at at a fraction of its cost.
                grad[idx] += g
            else:
                np.add.at(grad, idx, g)
            return [(a, grad)]

        return _op(out_data, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows along the first axis (embedding lookup).

        ``indices`` may have any shape; the result has shape
        ``indices.shape + self.shape[1:]``.
        """
        idx = np.asarray(indices)
        out_data = self.data[idx]

        def backward(g: np.ndarray, a=self, i=idx) -> list:
            grad = np.zeros_like(a.data)
            np.add.at(grad, i.reshape(-1), g.reshape(-1, a.data.shape[-1]))
            return [(a, grad)]

        return _op(out_data, (self,), backward)


def _op(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], list],
) -> Tensor:
    """Create the output tensor for an op, wiring its backward closure.

    ``backward`` maps the output gradient to a list of
    ``(parent, gradient)`` pairs, which :meth:`Tensor.backward` merges
    into its gradient dictionary.  The closure must not capture the
    output tensor itself: keeping graphs cycle-free lets refcounting
    reclaim them immediately.
    """
    if not _grad_enabled or not any(p.requires_grad or p._parents for p in parents):
        return Tensor(data)

    out = Tensor(data, requires_grad=True, parents=parents)
    out._backward_fn = backward
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray, ts=tuple(tensors), offs=offsets, ax=axis) -> list:
        pending = []
        for i, t in enumerate(ts):
            if t.requires_grad or t._parents:
                sl = [slice(None)] * g.ndim
                sl[ax] = slice(int(offs[i]), int(offs[i + 1]))
                pending.append((t, g[tuple(sl)]))
        return pending

    return _op(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray, ts=tuple(tensors), ax=axis) -> list:
        pending = []
        for i, t in enumerate(ts):
            if t.requires_grad or t._parents:
                pending.append((t, np.take(g, i, axis=ax)))
        return pending

    return _op(out_data, tensors, backward)


def zeros(shape: Iterable[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(tuple(shape), dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape: Iterable[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(tuple(shape), dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)
