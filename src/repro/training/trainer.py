"""Causal-LM training loop used by PagPassGPT and PassGPT.

Implements the paper's §IV-B1 recipe — AdamW, configurable batch size and
epochs — plus validation, gradient clipping, LR scheduling and early
stopping, scaled to CPU-sized models.

Fault tolerance
---------------

``Trainer.fit(checkpoint_path=...)`` writes a *training state* checkpoint
after every epoch: model weights, AdamW moments, LR-schedule step, the
loader's and dropout's rng states, the loss history, and (when early
stopping is armed) the best-weights snapshot.  Writes are atomic
(:mod:`repro.runtime.atomic`), so a crash mid-save leaves the previous
epoch's state intact.  ``fit(resume_from=...)`` restores all of it and
continues from the next epoch — the resumed run is bit-identical to an
uninterrupted one, because every source of randomness is part of the
state.  Damaged or mismatched state files raise
:class:`repro.nn.CheckpointError`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

import numpy as np

from .. import telemetry
from ..autograd import no_grad
from ..nn import AdamW, GPT2Model, WarmupLinear, clip_grad_norm
from ..nn.serialization import CheckpointError, _load_npz
from ..runtime import (
    Budget,
    RunJournal,
    atomic_write,
    file_digest,
    maybe_corrupt,
    maybe_fail,
)
from .dataloader import BatchLoader

_META_KEY = "__meta_json__"


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run.

    Paper values: ``batch_size=512``, ``epochs=30``, ``lr=5e-5``; the
    reproduction default is sized for CPU corpora of 10^4 passwords.
    """

    epochs: int = 8
    batch_size: int = 64
    lr: float = 3e-4
    weight_decay: float = 0.01
    warmup_fraction: float = 0.05
    grad_clip: float = 1.0
    early_stop_patience: int = 0  # 0 disables early stopping
    seed: int = 0
    log_every: int = 0  # batches between log callbacks; 0 = per epoch only


@dataclass
class TrainHistory:
    """Per-epoch loss curves plus the best validation point."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    stopped_early: bool = False
    restored_best: bool = False


def save_training_state(
    path: Union[str, Path],
    *,
    model: GPT2Model,
    optimizer: AdamW,
    schedule: WarmupLinear,
    loader: BatchLoader,
    history: TrainHistory,
    epoch: int,
    bad_epochs: int,
    best_state: Optional[dict[str, np.ndarray]] = None,
    dropout_rng: Optional[np.random.Generator] = None,
) -> None:
    """Atomically write the full resumable training state after ``epoch``.

    ``epoch`` is the number of *completed* epochs — resume starts there.
    All rng states (loader shuffle, dropout) ride along so the resumed
    run replays the exact same batches and dropout masks.  The file is
    written uncompressed: it is rewritten after every epoch, and at
    perfbench's training shape deflating it takes 39 ms against 3 ms for
    the raw write, to save 8% of its size.  Compressed state files, as
    older versions wrote them, still resume.
    """
    payload: dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        payload[f"model/{name}"] = value
    for i, m in enumerate(optimizer._m):
        payload[f"optim/m/{i}"] = m
    for i, v in enumerate(optimizer._v):
        payload[f"optim/v/{i}"] = v
    if best_state:
        for name, value in best_state.items():
            payload[f"best/{name}"] = value
    meta: dict[str, Any] = {
        "kind": "train_state",
        "epoch": int(epoch),
        "bad_epochs": int(bad_epochs),
        "optimizer_t": int(optimizer.t),
        "schedule_step": int(schedule.step_count),
        "total_steps": int(schedule.total_steps),
        "loader_rng": loader._rng.bit_generator.state,
        "dropout_rng": dropout_rng.bit_generator.state if dropout_rng is not None else None,
        "history": asdict(history),
        "has_best": bool(best_state),
    }
    payload[_META_KEY] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with atomic_write(Path(path)) as fh:
        np.savez(fh, **payload)
    maybe_corrupt("train_state", path)  # fault-injection hook (tests only)


def load_training_state(
    path: Union[str, Path],
) -> tuple[dict[str, dict[str, np.ndarray]], dict[str, Any]]:
    """Read a :func:`save_training_state` file.

    Returns ``(arrays, meta)`` where ``arrays`` has keys ``"model"``,
    ``"optim_m"``, ``"optim_v"`` and ``"best"`` (the last possibly
    empty).  Raises :class:`repro.nn.CheckpointError` for missing,
    truncated, or corrupt files, or files that are not training states.
    """
    flat, meta = _load_npz(Path(path))
    if meta.get("kind") != "train_state":
        raise CheckpointError(
            f"{path} is not a training state (kind={meta.get('kind')!r})"
        )
    arrays: dict[str, dict[str, np.ndarray]] = {"model": {}, "optim_m": {}, "optim_v": {}, "best": {}}
    for key, value in flat.items():
        if key.startswith("model/"):
            arrays["model"][key[len("model/"):]] = value
        elif key.startswith("optim/m/"):
            arrays["optim_m"][key[len("optim/m/"):]] = value
        elif key.startswith("optim/v/"):
            arrays["optim_v"][key[len("optim/v/"):]] = value
        elif key.startswith("best/"):
            arrays["best"][key[len("best/"):]] = value
    return arrays, meta


class Trainer:
    """Trains a :class:`GPT2Model` on encoded rule/password matrices."""

    def __init__(
        self,
        model: GPT2Model,
        pad_id: int,
        config: Optional[TrainConfig] = None,
        log_fn: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.model = model
        self.pad_id = pad_id
        self.config = config or TrainConfig()
        self.log_fn = log_fn

    def _log(self, message: str) -> None:
        if self.log_fn is not None:
            self.log_fn(message)

    def evaluate(self, ids: np.ndarray, batch_size: Optional[int] = None) -> float:
        """Mean validation loss over ``ids`` (no dropout, no gradients)."""
        if len(ids) == 0:
            raise ValueError("evaluate received an empty id matrix")
        self.model.eval()
        loader = BatchLoader(ids, batch_size or self.config.batch_size, shuffle=False)
        total, count = 0.0, 0
        with no_grad():
            for batch in loader:
                loss = self.model.loss(batch, pad_token_id=self.pad_id)
                total += loss.item() * len(batch)
                count += len(batch)
        self.model.train()
        return total / count

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _restore(
        self,
        path: Union[str, Path],
        optimizer: AdamW,
        schedule: WarmupLinear,
        loader: BatchLoader,
        dropout_rng: Optional[np.random.Generator],
    ) -> tuple[int, int, Optional[dict[str, np.ndarray]], TrainHistory]:
        """Load a training state into the live objects; returns loop state."""
        arrays, meta = load_training_state(path)
        if meta["total_steps"] != schedule.total_steps:
            raise CheckpointError(
                f"training state {path} was written for total_steps="
                f"{meta['total_steps']}, current run has {schedule.total_steps} "
                "(epochs/batch_size/corpus changed?)"
            )
        try:
            self.model.load_state_dict(arrays["model"])
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"training state {path} does not match the model: {exc}") from exc
        if len(arrays["optim_m"]) != len(optimizer._m):
            raise CheckpointError(
                f"training state {path} has {len(arrays['optim_m'])} optimizer "
                f"moments, model has {len(optimizer._m)} parameters"
            )
        for i, m in enumerate(optimizer._m):
            saved = arrays["optim_m"][str(i)]
            if saved.shape != m.shape:
                raise CheckpointError(
                    f"training state {path}: optimizer moment {i} shape "
                    f"{saved.shape} != parameter shape {m.shape}"
                )
            m[...] = saved
            optimizer._v[i][...] = arrays["optim_v"][str(i)]
        optimizer.t = meta["optimizer_t"]
        schedule.step_count = meta["schedule_step"]
        loader._rng.bit_generator.state = meta["loader_rng"]
        if dropout_rng is not None and meta.get("dropout_rng") is not None:
            dropout_rng.bit_generator.state = meta["dropout_rng"]
        history = TrainHistory(**meta["history"])
        best_state = arrays["best"] if meta.get("has_best") else None
        self._log(f"resumed training state from {path} at epoch {meta['epoch']}")
        return meta["epoch"], meta["bad_epochs"], best_state, history

    def fit(
        self,
        train_ids: np.ndarray,
        val_ids: Optional[np.ndarray] = None,
        *,
        checkpoint_path: Optional[Union[str, Path]] = None,
        resume_from: Optional[Union[str, Path]] = None,
        journal: Optional[RunJournal] = None,
        budget: Optional[Budget] = None,
    ) -> TrainHistory:
        """Run the full training loop; returns loss history.

        ``checkpoint_path`` writes a resumable training state atomically
        after each epoch; ``resume_from`` restores one and continues from
        the next epoch, bit-identically to the uninterrupted run.  When
        early stopping is enabled the best-validation weights are
        snapshotted and restored into the model if the run stops early
        (``history.restored_best``).  ``journal`` (an open
        :class:`~repro.runtime.journal.RunJournal`) records one entry per
        completed epoch with the checkpoint's content digest.

        ``budget`` (a :class:`~repro.runtime.Budget`) is polled at every
        epoch boundary, *after* the epoch's training state and journal
        record are durable: a tripped deadline or delivered SIGTERM
        raises :class:`~repro.runtime.CampaignInterrupted`, and a rerun
        with ``resume_from`` continues from the next epoch
        bit-identically.
        """
        cfg = self.config
        params = self.model.parameters()
        no_decay = [
            p
            for name, p in self.model.named_parameters()
            if name.endswith(".bias") or ".ln" in name or name.endswith("pos_emb.weight")
        ]
        optimizer = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay, no_decay=no_decay)
        loader = BatchLoader(train_ids, cfg.batch_size, seed=cfg.seed, shuffle=True)
        total_steps = max(1, len(loader) * cfg.epochs)
        schedule = WarmupLinear(
            optimizer, cfg.lr, warmup_steps=int(total_steps * cfg.warmup_fraction),
            total_steps=total_steps,
        )
        dropout_rng = getattr(getattr(self.model, "drop", None), "_rng", None)

        history = TrainHistory()
        bad_epochs = 0
        start_epoch = 0
        best_state: Optional[dict[str, np.ndarray]] = None
        if resume_from is not None:
            start_epoch, bad_epochs, best_state, history = self._restore(
                resume_from, optimizer, schedule, loader, dropout_rng
            )
        track_best = bool(cfg.early_stop_patience)
        self.model.train()
        registry = telemetry.get_registry()
        with telemetry.trace(
            "train.fit", epochs=int(cfg.epochs), start_epoch=int(start_epoch)
        ) as fit_span:
            for epoch in range(start_epoch, cfg.epochs):
                with telemetry.trace("train.epoch", epoch=int(epoch)) as epoch_span:
                    epoch_loss, seen = 0.0, 0
                    for step, batch in enumerate(loader):
                        schedule.step()
                        optimizer.zero_grad()
                        loss = self.model.loss(batch, pad_token_id=self.pad_id)
                        loss.backward()
                        if cfg.grad_clip:
                            clip_grad_norm(params, cfg.grad_clip)
                        optimizer.step()
                        registry.counter("train.steps").inc()
                        epoch_loss += loss.item() * len(batch)
                        seen += len(batch)
                        if cfg.log_every and step % cfg.log_every == 0:
                            self._log(f"epoch {epoch} step {step}/{len(loader)} loss {loss.item():.4f}")
                    history.train_loss.append(epoch_loss / seen)
                    epoch_span.set(train_loss=round(history.train_loss[-1], 6))

                    stop = False
                    if val_ids is not None and len(val_ids):
                        val = self.evaluate(val_ids)
                        history.val_loss.append(val)
                        epoch_span.set(val_loss=round(val, 6))
                        if val < history.best_val_loss:
                            history.best_val_loss = val
                            history.best_epoch = epoch
                            bad_epochs = 0
                            if track_best:
                                best_state = {
                                    name: value.copy()
                                    for name, value in self.model.state_dict().items()
                                }
                        else:
                            bad_epochs += 1
                        self._log(
                            f"epoch {epoch}: train {history.train_loss[-1]:.4f} val {val:.4f}"
                        )
                        if cfg.early_stop_patience and bad_epochs >= cfg.early_stop_patience:
                            stop = True
                    else:
                        self._log(f"epoch {epoch}: train {history.train_loss[-1]:.4f}")

                    # Fault-injection point: a crash here loses only this epoch —
                    # the previous epoch's state file is untouched (atomic write).
                    maybe_fail("epoch")
                    if checkpoint_path is not None:
                        save_training_state(
                            checkpoint_path,
                            model=self.model,
                            optimizer=optimizer,
                            schedule=schedule,
                            loader=loader,
                            history=history,
                            epoch=epoch + 1,
                            bad_epochs=bad_epochs,
                            best_state=best_state,
                            dropout_rng=dropout_rng,
                        )
                    if journal is not None:
                        journal.record(
                            "epoch",
                            epoch,
                            {
                                "train_loss": history.train_loss[-1],
                                "val_loss": history.val_loss[-1] if history.val_loss else None,
                                "checkpoint_digest": (
                                    file_digest(checkpoint_path) if checkpoint_path is not None else None
                                ),
                            },
                        )
                if budget is not None:
                    # The epoch just became durable (state + journal
                    # record written): a trip here loses nothing.
                    budget.poll(
                        epochs=epoch + 1,
                        steps=int(registry.counter("train.steps").value),
                    )
                if stop:
                    history.stopped_early = True
                    self._log(f"early stop at epoch {epoch}")
                    break
            fit_span.set(
                epochs_run=len(history.train_loss) - start_epoch,
                stopped_early=history.stopped_early,
            )

        if history.stopped_early and best_state is not None:
            self.model.load_state_dict(best_state)
            history.restored_best = True
            self._log(f"restored best epoch {history.best_epoch} weights")
        self.model.eval()
        return history
