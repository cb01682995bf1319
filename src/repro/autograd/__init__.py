"""Reverse-mode autodiff engine on numpy (the reproduction's PyTorch substitute)."""

from .tensor import Tensor, as_tensor, concat, stack, zeros, ones, no_grad, is_grad_enabled
from .functional import (
    softmax, log_softmax, gelu, layer_norm, cross_entropy, dropout, linear, split_heads, scale_mask,
)
from .gradcheck import check_gradients, numerical_gradient

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "zeros",
    "ones",
    "no_grad",
    "is_grad_enabled",
    "softmax",
    "log_softmax",
    "gelu",
    "layer_norm",
    "cross_entropy",
    "dropout",
    "linear",
    "split_heads",
    "scale_mask",
    "check_gradients",
    "numerical_gradient",
]
