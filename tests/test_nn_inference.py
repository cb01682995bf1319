"""Equivalence tests: numpy inference path vs the autograd training path."""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.nn import GPT2Config, GPT2Inference, GPT2Model


@pytest.fixture(scope="module")
def model_and_ids():
    cfg = GPT2Config(vocab_size=30, block_size=16, dim=32, n_layers=2, n_heads=4, dropout=0.0)
    model = GPT2Model(cfg, seed=3)
    model.eval()
    ids = np.random.default_rng(0).integers(0, 30, (4, 12))
    return model, ids


class TestFullForward:
    def test_matches_training_path(self, model_and_ids):
        model, ids = model_and_ids
        with no_grad():
            expected = model.forward(ids).data
        actual = GPT2Inference(model).logits(ids)
        assert np.allclose(actual, expected, atol=1e-4)

    def test_rejects_overlong(self, model_and_ids):
        model, _ = model_and_ids
        inf = GPT2Inference(model)
        with pytest.raises(ValueError):
            inf.logits(np.zeros((1, 17), dtype=np.int64))


class TestCachedDecoding:
    def test_start_matches_last_position(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        full = inf.logits(ids)
        last, cache = inf.start(ids[:, :6])
        assert cache.length == 6
        assert np.allclose(last, full[:, 5], atol=1e-4)

    def test_step_by_step_matches_full(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        full = inf.logits(ids)
        last, cache = inf.start(ids[:, :4])
        for t in range(4, ids.shape[1]):
            last = inf.step(ids[:, t], cache)
            assert np.allclose(last, full[:, t], atol=1e-4), f"mismatch at step {t}"

    def test_cache_overflow_raises(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        _, cache = inf.start(np.zeros((2, 16), dtype=np.int64))
        with pytest.raises(ValueError):
            inf.step(np.zeros(2, dtype=np.int64), cache)

    def test_cache_select_rows(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        _, cache = inf.start(ids[:, :5])
        sub = cache.gather(np.array([0, 2]))
        assert sub.batch == 2
        full = inf.logits(ids[[0, 2]])
        last = inf.step(ids[[0, 2], 5], sub)
        assert np.allclose(last, full[:, 5], atol=1e-4)

    def test_cache_repeat_rows(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        _, cache = inf.start(ids[:, :5])
        rep = cache.gather(np.full(3, 1))
        assert rep.batch == 3
        last = inf.step(np.array([7, 7, 7]), rep)
        assert np.allclose(last[0], last[1], atol=1e-6)
        expected_rows = np.repeat(ids[1:2, :5], 3, axis=0)
        expected = inf.logits(np.concatenate([expected_rows, np.full((3, 1), 7)], axis=1))
        assert np.allclose(last, expected[:, 5], atol=1e-4)

    def test_weights_snapshot_semantics(self, model_and_ids):
        """Inference is a snapshot: mutating model weights after
        construction does not change inference outputs."""
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        before = inf.logits(ids)
        original = model.ln_f.bias.data.copy()
        try:
            model.ln_f.bias.data += 100.0
            # The snapshot shares arrays, so this *does* change -- this test
            # documents the sharing: rebuilding is required after training.
            after = inf.logits(ids)
            assert not np.allclose(before, after)
        finally:
            model.ln_f.bias.data[...] = original
