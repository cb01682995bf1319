"""Checkpointing: save/load module state dicts as compressed npz files.

Writes are atomic (temp file + fsync + ``os.replace`` via
:mod:`repro.runtime.atomic`): a crash mid-save leaves the previous
checkpoint intact, never a truncated npz.  Loads raise
:class:`CheckpointError` — with the path and cause — for truncated or
corrupt files and for state dicts that do not match the module, instead
of leaking raw ``zipfile``/``KeyError`` tracebacks.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Any, Optional

import numpy as np

from ..runtime import atomic_write, maybe_corrupt
from .module import Module

_META_KEY = "__meta_json__"


class CheckpointError(RuntimeError):
    """A checkpoint could not be read: missing, corrupt, or mismatched."""


def save_checkpoint(module: Module, path: str | Path, meta: Optional[dict[str, Any]] = None) -> None:
    """Atomically write ``module``'s parameters (+ JSON metadata) to npz."""
    path = Path(path)
    state = module.state_dict()
    if _META_KEY in state:
        raise ValueError(f"parameter name collides with reserved key {_META_KEY}")
    payload = dict(state)
    payload[_META_KEY] = np.frombuffer(json.dumps(meta or {}).encode(), dtype=np.uint8)
    with atomic_write(path) as fh:
        np.savez_compressed(fh, **payload)
    maybe_corrupt("checkpoint", path)  # fault-injection hook (tests only)


def _load_npz(path: Path, weights: bool = True) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Read an npz checkpoint (only its metadata unless ``weights``);
    raises CheckpointError on any damage."""
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        with np.load(path) as data:
            meta = (
                json.loads(bytes(data[_META_KEY]).decode()) if _META_KEY in data.files else {}
            )
            state = {k: data[k] for k in data.files if k != _META_KEY} if weights else {}
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError) as exc:
        raise CheckpointError(f"checkpoint {path} is truncated or corrupt: {exc}") from exc
    return state, meta


def read_checkpoint_meta(path: str | Path) -> dict[str, Any]:
    """Read only the JSON metadata of a checkpoint (model loaders peek
    here); the weights are not decompressed."""
    _, meta = _load_npz(Path(path), weights=False)
    return meta


def load_checkpoint(module: Module, path: str | Path) -> dict[str, Any]:
    """Load parameters into ``module``; returns the stored metadata dict.

    Raises :class:`CheckpointError` if the file is damaged or its state
    dict has missing/unexpected keys or mismatched shapes for ``module``.
    """
    path = Path(path)
    state, meta = _load_npz(path)
    try:
        module.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path} does not match the module: {exc}"
        ) from exc
    return meta
