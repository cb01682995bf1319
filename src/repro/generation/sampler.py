"""Token sampling strategies for autoregressive generation.

All functions operate on raw numpy logits of shape ``(batch, vocab)`` and
return sampled token ids of shape ``(batch,)``.  Constrained variants
restrict the distribution to an allowed id set first (the mechanism both
PassGPT's guided generation and D&C-GEN's pattern filtering use).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

#: Default generation batch width for all autoregressive generators — the
#: paper ties D&C-GEN's threshold to GPU batch capacity (§III-C3); on CPU
#: this is simply the vectorisation width.  D&C-GEN plumbs the effective
#: width through ``DCGenConfig.gen_batch``; this constant is its default.
GEN_BATCH = 512


def free_chunks(n: int, gen_batch: int = GEN_BATCH) -> list[tuple[int, int]]:
    """``(chunk_index, rows)`` pairs covering ``n`` free-generation rows."""
    return [
        (i, min(gen_batch, n - start))
        for i, start in enumerate(range(0, n, gen_batch))
    ]


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling hyper-parameters.

    ``temperature`` rescales logits; ``top_k``/``top_p`` truncate the
    distribution (0 / 1.0 disable truncation).
    """

    temperature: float = 1.0
    top_k: int = 0
    top_p: float = 1.0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")


def logits_to_probs(logits: np.ndarray, config: SamplerConfig = SamplerConfig()) -> np.ndarray:
    """Convert ``(batch, vocab)`` logits to probabilities with truncation."""
    scaled = logits / config.temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    probs = np.exp(scaled)
    probs /= probs.sum(axis=-1, keepdims=True)

    if config.top_k and config.top_k < probs.shape[-1]:
        kth = np.partition(probs, -config.top_k, axis=-1)[:, -config.top_k][:, None]
        probs = np.where(probs < kth, 0.0, probs)
        probs /= probs.sum(axis=-1, keepdims=True)

    if config.top_p < 1.0:
        order = np.argsort(-probs, axis=-1)
        sorted_probs = np.take_along_axis(probs, order, axis=-1)
        cumulative = np.cumsum(sorted_probs, axis=-1)
        # Keep the smallest prefix whose mass reaches top_p (always >= 1 token).
        cutoff = cumulative - sorted_probs >= config.top_p
        sorted_probs[cutoff] = 0.0
        probs = np.zeros_like(probs)
        np.put_along_axis(probs, order, sorted_probs, axis=-1)
        probs /= probs.sum(axis=-1, keepdims=True)

    return probs


def sample(
    logits: np.ndarray,
    rng: np.random.Generator,
    config: SamplerConfig = SamplerConfig(),
) -> np.ndarray:
    """Sample one token id per batch row."""
    probs = logits_to_probs(logits, config)
    return _sample_rows(probs, rng)


def sample_constrained(
    logits: np.ndarray,
    allowed_ids: np.ndarray,
    rng: np.random.Generator,
    config: SamplerConfig = SamplerConfig(),
) -> np.ndarray:
    """Sample with the distribution renormalised over ``allowed_ids``.

    This is PassGPT's guided-generation mechanism (§I-A1): candidate
    tokens outside the pattern's current class are filtered out and the
    remaining mass renormalised.
    """
    return choose_constrained(logits, allowed_ids, rng.random((logits.shape[0], 1)), config)


def choose_constrained(
    logits: np.ndarray,
    allowed_ids: np.ndarray,
    draws: np.ndarray,
    config: SamplerConfig = SamplerConfig(),
) -> np.ndarray:
    """:func:`sample_constrained` with the uniform draws supplied by the caller.

    ``draws`` holds one uniform [0, 1) number per batch row.  D&C-GEN
    pre-draws every leaf task's randomness from a per-leaf generator, so
    the sampled stream is invariant to batch packing and worker sharding;
    this function is the deterministic core both entry points share.
    """
    restricted = logits[:, allowed_ids]
    probs = logits_to_probs(restricted, config)
    cumulative = np.cumsum(probs, axis=-1)
    # Rounding error can leave cumulative[-1] just below 1.0; a draw above
    # it would make every comparison False and argmax silently pick index
    # 0.  Clamping the last entry to 1.0 maps such draws to the last
    # allowed token, as exact arithmetic would.
    cumulative[:, -1] = 1.0
    choices = (np.asarray(draws).reshape(-1, 1) < cumulative).argmax(axis=-1)
    return allowed_ids[choices]


def sample_masked(
    logits: np.ndarray,
    allowed_mask: np.ndarray,
    rng: np.random.Generator,
    config: SamplerConfig = SamplerConfig(),
) -> np.ndarray:
    """Sample with a *per-row* boolean mask of allowed token ids.

    Used by grammar-constrained free generation, where different batch
    rows are in different decode states (pattern phase vs password phase)
    and therefore allow different token sets.  Every row must allow at
    least one token.
    """
    if allowed_mask.shape != logits.shape:
        raise ValueError(
            f"mask shape {allowed_mask.shape} must match logits {logits.shape}"
        )
    if not allowed_mask.any(axis=-1).all():
        raise ValueError("every row must allow at least one token")
    masked = np.where(allowed_mask, logits, -np.inf)
    probs = logits_to_probs(masked, config)
    return _sample_rows(probs, rng)


def constrained_distribution(logits: np.ndarray, allowed_ids: np.ndarray) -> np.ndarray:
    """Renormalised probabilities over ``allowed_ids`` (D&C-GEN's Tokens set).

    Returns shape ``(batch, len(allowed_ids))``; rows sum to 1.
    """
    restricted = logits[:, allowed_ids]
    shifted = restricted - restricted.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorised categorical sampling, one draw per row."""
    cumulative = np.cumsum(probs, axis=-1)
    # See choose_constrained: clamp so a draw above a rounded-down final
    # cumulative sum selects the last token instead of index 0.
    cumulative[:, -1] = 1.0
    draws = rng.random((probs.shape[0], 1))
    return (draws < cumulative).argmax(axis=-1)
