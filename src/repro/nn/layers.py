"""Core layers: Linear, Embedding, LayerNorm, Dropout, Sequential, MLP."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..autograd import functional as F
from ..autograd.tensor import Tensor
from . import init
from .module import Module, Parameter


class Linear(Module):
    """Affine transform ``y = x W + b`` on the last axis."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        std: float = 0.02,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.normal(rng, (in_features, out_features), std=std))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator, std: float = 0.02) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal(rng, (num_embeddings, dim), std=std))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.min(initial=0) < 0 or (ids.size and ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()} max={ids.max()}"
            )
        return self.weight.take_rows(ids)


class LayerNorm(Module):
    """Layer normalisation over the last axis with learned affine."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.weight = Parameter(init.ones((dim,)))
        self.bias = Parameter(init.zeros((dim,)))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)


class Sequential(Module):
    """Run modules (or callables such as activations) in order."""

    def __init__(self, *steps) -> None:
        super().__init__()
        self.steps = list(steps)

    def forward(self, x):
        for step in self.steps:
            x = step(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    Used by the GAN/VAE/flow baselines; hidden layers use He init when the
    activation is ReLU-like, Xavier otherwise.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        activation: Callable[[Tensor], Tensor] = Tensor.relu,
        final_activation: Optional[Callable[[Tensor], Tensor]] = None,
    ) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.layers = [
            Linear(sizes[i], sizes[i + 1], rng, std=float(np.sqrt(2.0 / sizes[i])))
            for i in range(len(sizes) - 1)
        ]
        self.activation = activation
        self.final_activation = final_activation

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = self.activation(layer(x))
        x = self.layers[-1](x)
        if self.final_activation is not None:
            x = self.final_activation(x)
        return x
