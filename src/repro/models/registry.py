"""Model registry: build any model of the zoo by name, or load a GPT
checkpoint of either kind.

Used by the benchmark harness and examples so "the six rows of Table IV"
are data, not code, and by ``repro generate`` / ``repro serve`` to load
checkpoints.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from ..nn import CheckpointError, read_checkpoint_meta
from .base import PasswordGuesser
from .markov import MarkovModel
from .pagpassgpt import GPTGuesser, PagPassGPT
from .passflow import PassFlow
from .passgan import PassGAN
from .passgpt import PassGPT
from .pcfg import PCFGModel
from .rulebased import RuleBasedModel
from .vaepass import VAEPass

_FACTORIES: dict[str, Callable[..., PasswordGuesser]] = {
    "pagpassgpt": PagPassGPT,
    "passgpt": PassGPT,
    "passgan": PassGAN,
    "vaepass": VAEPass,
    "passflow": PassFlow,
    "pcfg": PCFGModel,
    "markov": MarkovModel,
    "rulebased": RuleBasedModel,
}


def available_models() -> list[str]:
    """Names accepted by :func:`create_model`."""
    return sorted(_FACTORIES)


def create_model(name: str, **kwargs) -> PasswordGuesser:
    """Instantiate a model by (case-insensitive) registry name."""
    key = name.lower().replace("-", "").replace("_", "")
    aliases = {"pagpassgptdc": "pagpassgpt"}  # the D&C wrapper wraps a base model
    key = aliases.get(key, key)
    try:
        factory = _FACTORIES[key]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}") from None
    return factory(**kwargs)


#: GPT checkpoint ``kind`` -> model class.
_GPT_KINDS: dict[str, type[GPTGuesser]] = {cls.name: cls for cls in (PagPassGPT, PassGPT)}


def load_checkpoint(path: str | Path) -> GPTGuesser:
    """Load the GPT model kind the checkpoint's metadata names; raises
    :class:`~repro.nn.CheckpointError` for an unreadable file or a
    ``kind`` naming no GPT model (e.g. bare ``save_checkpoint`` weights)."""
    meta = read_checkpoint_meta(path)
    kind = meta.get("kind")
    if kind not in _GPT_KINDS:
        raise CheckpointError(
            f"checkpoint {path} holds a {kind!r} model, not one of {sorted(_GPT_KINDS)}"
        )
    return _GPT_KINDS[kind].load(path, meta)
