"""Shared fixtures: corpora and (cheaply) trained models.

Session-scoped so the expensive pieces — leak synthesis and tiny GPT
training — happen once per pytest run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.datasets import build_corpus, clean_leak, generate_leak, split_dataset
from repro.models import PagPassGPT, PassGPT
from repro.nn import GPT2Config
from repro.runtime import faults, signals
from repro.training import TrainConfig


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    """No fault directive leaks between tests; counters start fresh."""
    monkeypatch.delenv(faults.FAULT_ENV, raising=False)
    monkeypatch.delenv(faults.FAULT_STATE_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(autouse=True)
def _clean_signals():
    """No graceful-stop request leaks between tests."""
    signals.reset()
    yield
    signals.reset()


@pytest.fixture(autouse=True)
def _no_leaked_telemetry_session():
    """A test that starts a telemetry session must not leak it onward."""
    yield
    telemetry.end_session(emit_snapshot=False)


@pytest.fixture(scope="session")
def rockyou_tiny():
    """Cleaned synthetic RockYou slice plus 7:1:2 splits."""
    cleaned, report = clean_leak(generate_leak("rockyou", 4_000, seed=7))
    splits = split_dataset(cleaned, seed=7)
    return {
        "cleaned": cleaned,
        "report": report,
        "splits": splits,
        "train_corpus": build_corpus(splits.train, name="rockyou-train"),
        "test_corpus": build_corpus(splits.test, name="rockyou-test"),
    }


def _tiny_gpt_config(vocab_size: int, block_size: int) -> GPT2Config:
    return GPT2Config(
        vocab_size=vocab_size,
        block_size=block_size,
        dim=32,
        n_layers=2,
        n_heads=4,
        dropout=0.0,
    )


@pytest.fixture(scope="session")
def trained_pagpassgpt(rockyou_tiny) -> PagPassGPT:
    """A PagPassGPT trained a couple of epochs — enough for mechanics."""
    model = PagPassGPT(
        model_config=_tiny_gpt_config(135, 32),
        train_config=TrainConfig(epochs=2, batch_size=128, lr=2e-3, seed=0),
        seed=0,
    )
    model.fit(rockyou_tiny["train_corpus"])
    return model


@pytest.fixture(scope="session")
def trained_passgpt(rockyou_tiny) -> PassGPT:
    """A PassGPT trained a couple of epochs."""
    model = PassGPT(
        model_config=_tiny_gpt_config(135, 16),
        train_config=TrainConfig(epochs=2, batch_size=128, lr=2e-3, seed=0),
        seed=0,
    )
    model.fit(rockyou_tiny["train_corpus"])
    return model


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
