"""Fast-path v2 equivalence: decode kernel, gather, prompt cache, counters.

The seq==1 decode kernel, `last_only` projection and prefix-deduplicated
priming must be drop-in numerical replacements for the general path —
these tests pin them against the autograd training forward, against a
float64 reference replicating the pre-fast-path `logits()` numerics, and
against each other.
"""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.nn import GPT2Config, GPT2Inference, GPT2Model, PromptCache


@pytest.fixture(scope="module")
def model_and_ids():
    cfg = GPT2Config(vocab_size=30, block_size=16, dim=32, n_layers=2, n_heads=4, dropout=0.0)
    model = GPT2Model(cfg, seed=3)
    model.eval()
    ids = np.random.default_rng(0).integers(0, 30, (4, 12))
    return model, ids


def _reference_logits(model: GPT2Model, ids: np.ndarray) -> np.ndarray:
    """The pre-fast-path `logits()` numerics: float64 after the first
    attention-score division (a python-float scale upcasts the chain)."""
    cfg = model.config
    head_dim = cfg.dim // cfg.n_heads
    seq = ids.shape[1]

    def layer_norm(x, w, b, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * w.data + b.data

    def gelu(x):
        return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))

    x = model.token_emb.weight.data[ids] + model.pos_emb.weight.data[:seq]
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    for block in model.blocks:
        h = layer_norm(x, block.ln1.weight, block.ln1.bias)
        qkv = h @ block.attn.qkv.weight.data + block.attn.qkv.bias.data
        qkv = qkv.reshape(*ids.shape, 3, cfg.n_heads, head_dim).transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(head_dim)  # float64 upcast
        scores = np.where(mask[None, None], -1e9, scores)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        att = np.exp(shifted)
        att /= att.sum(axis=-1, keepdims=True)
        out = (att @ v).transpose(0, 2, 1, 3).reshape(*ids.shape, cfg.dim)
        x = x + out @ block.attn.proj.weight.data + block.attn.proj.bias.data
        h2 = layer_norm(x, block.ln2.weight, block.ln2.bias)
        x = x + gelu(h2 @ block.fc.weight.data + block.fc.bias.data) @ block.fc_proj.weight.data + block.fc_proj.bias.data
    x = layer_norm(x, model.ln_f.weight, model.ln_f.bias)
    head = model.lm_head.weight.data if model.lm_head is not None else model.token_emb.weight.data.T
    return x @ head


class TestNumericalEquivalence:
    def test_logits_match_autograd_forward(self, model_and_ids):
        model, ids = model_and_ids
        with no_grad():
            expected = model.forward(ids).data
        actual = GPT2Inference(model).logits(ids)
        assert np.allclose(actual, expected, atol=1e-5)

    def test_logits_match_prechange_float64_reference(self, model_and_ids):
        model, ids = model_and_ids
        expected = _reference_logits(model, ids)
        actual = GPT2Inference(model).logits(ids)
        assert np.allclose(actual, expected, atol=1e-5)

    def test_step_kernel_matches_autograd_forward(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        with no_grad():
            expected = model.forward(ids).data
        last, cache = inf.start(ids[:, :4])
        for t in range(4, ids.shape[1]):
            last = inf.step(ids[:, t], cache)
            assert np.allclose(last, expected[:, t], atol=1e-5), f"step {t}"

    def test_step_kernel_matches_prechange_reference(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        expected = _reference_logits(model, ids)
        last, cache = inf.start(ids[:, :1])
        for t in range(1, ids.shape[1]):
            last = inf.step(ids[:, t], cache)
            assert np.allclose(last, expected[:, t], atol=1e-5), f"step {t}"

    def test_all_paths_float32(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        assert inf.logits(ids).dtype == np.float32
        last, cache = inf.start(ids[:, :5])
        assert last.dtype == np.float32
        assert inf.step(ids[:, 5], cache).dtype == np.float32
        assert all(k.dtype == np.float32 for k in cache.keys)

    def test_last_only_projection(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        full = inf.logits(ids)
        last = inf.logits(ids, last_only=True)
        assert last.shape == (ids.shape[0], model.config.vocab_size)
        np.testing.assert_array_equal(last, full[:, -1])

    def test_extend_matches_fused_priming(self, model_and_ids):
        """Split prompt+suffix priming equals one fused pass.

        Tolerance is float32-rounding-level only (BLAS kernel blocking
        varies with matmul shape); stream-level identity is pinned
        separately by the golden-stream tests.
        """
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        fused, _ = inf.start(ids)
        first, cache = inf.start(ids[:, :5])
        split = inf.extend(ids[:, 5:], cache)
        assert np.allclose(split, fused, atol=1e-6)
        assert cache.length == ids.shape[1]


class TestGather:
    def test_arbitrary_reorder_and_repeat(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        _, cache = inf.start(ids[:, :5])
        idx = np.array([2, 0, 0, 3, 1, 2])
        sub = cache.gather(idx)
        assert sub.batch == len(idx)
        assert sub.length == cache.length
        assert sub.capacity == cache.capacity
        for layer in range(len(cache.keys)):
            np.testing.assert_array_equal(
                sub.keys[layer][:, :, :5], cache.keys[layer][idx][:, :, :5]
            )

    def test_gather_decode_matches_fresh_priming(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        _, cache = inf.start(ids[:, :5])
        idx = np.array([3, 1, 1, 0])
        sub = cache.gather(idx)
        stepped = inf.step(ids[idx, 5], sub)
        fresh_last, fresh = inf.start(ids[idx][:, :5])
        expected = inf.step(ids[idx, 5], fresh)
        np.testing.assert_array_equal(stepped, expected)

    def test_gather_copies_storage(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        _, cache = inf.start(ids[:, :5])
        sub = cache.gather(np.array([0, 1]))
        sub.keys[0][...] = 1e9
        assert not np.any(cache.keys[0] >= 1e9)

    def test_gather_preserves_decode_capacity(self, model_and_ids):
        """A gathered cache can still decode to the full block size."""
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        _, cache = inf.start(ids[:, :5])
        sub = cache.gather(np.array([0, 2]))
        for t in range(5, model.config.block_size):
            inf.step(ids[[0, 2], t % ids.shape[1]], sub)
        assert sub.length == model.config.block_size
        with pytest.raises(ValueError):
            inf.step(np.zeros(2, dtype=np.int64), sub)

    def test_trimmed_roundtrip(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        _, cache = inf.start(ids[:, :5])
        for buf in (*cache.keys, *cache.values):
            buf[:, :, 5:] = np.nan  # headroom: never copied, never compared
        compact = cache.trimmed()
        assert compact.keys[0].shape[2] == 5  # dense: filled region only
        assert compact.capacity == cache.capacity
        restored = compact.gather(np.arange(cache.batch))
        assert restored.keys[0].shape == cache.keys[0].shape
        for got, want in zip((*restored.keys, *restored.values), (*cache.keys, *cache.values)):
            np.testing.assert_array_equal(got[:, :, :5], want[:, :, :5])

    def test_gather_to_capacity(self, model_and_ids):
        """A gather holds the capacity it is asked for: exactly what the
        caller fills, and no position more."""
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        _, cache = inf.start(ids[:, :5])
        sub = cache.trimmed().gather(np.array([1, 1, 0]), capacity=7)
        assert sub.keys[0].shape[2] == sub.capacity == 7 and sub.length == 5
        np.testing.assert_array_equal(sub.keys[1][:, :, :5], cache.keys[1][[1, 1, 0], :, :5])
        want = inf.extend(ids[[1, 1, 0], 5:7], cache.gather(np.array([1, 1, 0])))
        np.testing.assert_array_equal(inf.extend(ids[[1, 1, 0], 5:7], sub), want)
        assert sub.length == 7  # filled exactly
        with pytest.raises(ValueError, match="capacity 4 < filled length 5"):
            cache.gather(np.array([0]), capacity=4)

    def test_zero_row_gather(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        _, cache = inf.start(ids[:, :5])
        empty = cache.gather(np.array([], dtype=np.intp))
        assert empty.batch == 0
        assert empty.length == 5


class TestPromptCache:
    def test_expand_matches_tiled_priming(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        pc = PromptCache(inf)
        prompt = ids[0, :5]
        logits, cache = pc.expand(prompt, 3)
        expected_logits, expected_cache = inf.start(np.tile(prompt, (3, 1)))
        # float32-rounding tolerance: batch-1 and batch-3 matmuls may use
        # different BLAS blocking; golden-stream tests pin stream identity.
        assert np.allclose(logits, expected_logits, atol=1e-6)
        next_ids = np.array([7, 8, 9])
        assert np.allclose(
            inf.step(next_ids, cache), inf.step(next_ids, expected_cache), atol=1e-6
        )

    def test_hit_miss_accounting(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        pc = PromptCache(inf)
        inf.counters.reset()
        pc.lookup(ids[0, :5])
        pc.lookup(ids[0, :5])
        pc.expand(ids[0, :5], 4)
        assert (pc.misses, pc.hits) == (1, 2)
        assert inf.counters.prime_calls == 1  # one physical prime only
        assert inf.counters.prime_positions == 5
        pc.lookup(ids[1, :5])
        assert pc.misses == 2

    def test_lru_eviction(self, model_and_ids):
        model, ids = model_and_ids
        pc = PromptCache(GPT2Inference(model), maxsize=2)
        a, b, c = ids[0, :3], ids[1, :3], ids[2, :3]
        pc.lookup(a)
        pc.lookup(b)
        pc.lookup(a)  # refresh a; b is now least recent
        pc.lookup(c)  # evicts b
        assert len(pc) == 2
        pc.lookup(a)
        assert pc.misses == 3  # a, b, c — a stayed resident
        pc.lookup(b)
        assert pc.misses == 4  # b was evicted and re-primed

    def test_maxsize_validation(self, model_and_ids):
        model, _ = model_and_ids
        with pytest.raises(ValueError):
            PromptCache(GPT2Inference(model), maxsize=0)


class TestCounters:
    def test_phases_accounted(self, model_and_ids):
        model, ids = model_and_ids
        inf = GPT2Inference(model)
        inf.counters.reset()
        inf.logits(ids)
        _, cache = inf.start(ids[:, :5])
        inf.extend(ids[:, 5:7], cache)
        inf.step(ids[:, 7], cache)
        c = inf.counters
        assert (c.full_calls, c.full_positions) == (1, ids.size)
        assert (c.prime_calls, c.prime_positions) == (2, 4 * 5 + 4 * 2)
        assert (c.step_calls, c.step_rows) == (1, 4)
        assert c.calls == 4
        c.reset()
        assert c.calls == c.prime_positions == c.step_rows == 0
