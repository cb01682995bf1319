"""Weight initialisers used across the model zoo.

GPT-2 uses N(0, 0.02) for embeddings and projections, with the residual
projections scaled by 1/sqrt(2 * n_layers); the GAN/VAE/flow baselines
build their MLPs from ``nn.Linear`` and take its normal init.
"""

from __future__ import annotations

import numpy as np


def normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """GPT-2 style normal init."""
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
