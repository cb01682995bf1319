"""KV-cache row operations and cached-vs-serial logit equivalence.

``tests/test_nn_inference.py`` covers the happy path; this file stresses
the cache's ``gather`` row operation — selecting and replicating rows,
the primitive D&C-GEN uses when splitting task batches — plus the
serial-vs-cached equivalence at several prefix lengths, including the
degenerate one-token prompt and a full-block decode.
"""

import numpy as np
import pytest

from repro.nn import GPT2Config, GPT2Inference, GPT2Model
from repro.nn.inference import KVCache

BLOCK = 16
VOCAB = 30


@pytest.fixture(scope="module")
def inf():
    cfg = GPT2Config(vocab_size=VOCAB, block_size=BLOCK, dim=32, n_layers=2, n_heads=4, dropout=0.0)
    model = GPT2Model(cfg, seed=5)
    model.eval()
    return GPT2Inference(model)


@pytest.fixture(scope="module")
def ids():
    return np.random.default_rng(8).integers(0, VOCAB, (6, BLOCK))


class TestPrefixLengths:
    @pytest.mark.parametrize("prefix_len", [1, 2, 5, 11, BLOCK - 1])
    def test_start_matches_full_forward(self, inf, ids, prefix_len):
        full = inf.logits(ids[:, :prefix_len])
        last, cache = inf.start(ids[:, :prefix_len])
        assert cache.length == prefix_len
        assert np.allclose(last, full[:, -1], atol=1e-4)

    @pytest.mark.parametrize("prefix_len", [1, 4, 9, BLOCK - 1])
    def test_cached_decode_matches_serial_recompute(self, inf, ids, prefix_len):
        """Every cached step equals a from-scratch forward of the same
        prefix — the strongest form of serial-vs-cached equivalence."""
        _, cache = inf.start(ids[:, :prefix_len])
        for t in range(prefix_len, BLOCK):
            serial = inf.logits(ids[:, : t + 1])[:, -1]
            last = inf.step(ids[:, t], cache)
            assert np.allclose(last, serial, atol=1e-4), f"prefix {prefix_len}, step {t}"

    def test_full_block_prompt_leaves_no_room_to_step(self, inf, ids):
        _, cache = inf.start(ids)
        assert cache.length == BLOCK
        with pytest.raises(ValueError):
            inf.step(ids[:, 0], cache)


class TestSelect:
    """``gather`` selects batch rows — used when surviving sub-prefixes
    continue decoding after a task split."""

    @pytest.mark.parametrize("prefix_len", [2, 7, 12])
    def test_gathered_rows_continue_identically(self, inf, ids, prefix_len):
        _, cache = inf.start(ids[:, :prefix_len])
        rows = np.array([1, 4, 5])
        sub = cache.gather(rows)
        assert sub.batch == 3
        assert sub.length == prefix_len
        fresh_last, fresh_cache = inf.start(ids[rows, :prefix_len])
        stepped = inf.step(ids[rows, prefix_len], sub)
        expected = inf.step(ids[rows, prefix_len], fresh_cache)
        assert np.allclose(stepped, expected, atol=1e-4)

    def test_reordering_rows(self, inf, ids):
        _, cache = inf.start(ids[:, :6])
        perm = np.array([3, 0, 5, 1])
        sub = cache.gather(perm)
        out = inf.step(ids[perm, 6], sub)
        expected = inf.logits(ids[perm, :7])[:, -1]
        assert np.allclose(out, expected, atol=1e-4)

    def test_select_of_select(self, inf, ids):
        _, cache = inf.start(ids[:, :4])
        sub = cache.gather(np.array([0, 2, 4])).gather(np.array([1, 2]))
        assert sub.batch == 2
        out = inf.step(ids[[2, 4], 4], sub)
        expected = inf.logits(ids[[2, 4], :5])[:, -1]
        assert np.allclose(out, expected, atol=1e-4)

    def test_select_copies_storage(self, inf, ids):
        """Gather must deep-copy: stepping the child may not corrupt the
        parent (and vice versa)."""
        _, cache = inf.start(ids[:, :5])
        sub = cache.gather(np.array([0, 1]))
        sub.keys[0][...] = 1e9
        stepped = inf.step(ids[:, 5], cache)
        expected = inf.logits(ids[:, :6])[:, -1]
        assert np.allclose(stepped, expected, atol=1e-4)
        parent_after = inf.start(ids[:, :5])[1].keys[0]
        assert np.allclose(cache.keys[0][:, :, :5], parent_after[:, :, :5], atol=1e-5)


class TestRepeatRows:
    """``gather`` with a repeated index replicates one row — used to fan
    a shared prefix out into a batch of samples."""

    @pytest.mark.parametrize("prefix_len", [1, 5, 10])
    def test_replicated_rows_match_tiled_prompt(self, inf, ids, prefix_len):
        _, cache = inf.start(ids[:, :prefix_len])
        rep = cache.gather(np.full(4, 2))
        assert rep.batch == 4
        assert rep.length == prefix_len
        next_ids = np.array([7, 8, 9, 7])
        out = inf.step(next_ids, rep)
        tiled = np.repeat(ids[2:3, :prefix_len], 4, axis=0)
        expected = inf.logits(
            np.concatenate([tiled, next_ids[:, None]], axis=1)
        )[:, -1]
        assert np.allclose(out, expected, atol=1e-4)

    def test_replicate_copies_storage(self, inf, ids):
        _, cache = inf.start(ids[:, :5])
        rep = cache.gather(np.full(2, 0))
        rep.values[1][...] = -1e9
        fresh = inf.start(ids[:, :5])[1]
        assert np.allclose(cache.values[1][:, :, :5], fresh.values[1][:, :, :5], atol=1e-5)

    def test_diverging_continuations_stay_row_independent(self, inf, ids):
        """Replicated rows fed different tokens must evolve like
        independent sequences."""
        _, cache = inf.start(ids[:1, :3])
        rep = cache.gather(np.full(3, 0))
        tokens = np.array([[1, 2, 3], [4, 5, 6]])  # two steps, three rows
        last = inf.step(tokens[0], rep)
        last = inf.step(tokens[1], rep)
        for row in range(3):
            seq = np.concatenate([ids[0, :3], tokens[:, row]])[None, :]
            expected = inf.logits(seq)[:, -1]
            assert np.allclose(last[row], expected[0], atol=1e-4), f"row {row}"


class TestPromptCacheAccounting:
    """Hit/miss/eviction stats (ISSUE 5): the cache's own counters must
    reproduce the planned dedup savings of a golden-spec campaign."""

    def test_golden_campaign_hits_match_planned_budget(self):
        from repro.generation import (
            DCGenConfig,
            DCGenerator,
            build_batches,
            planned_execute_costs,
        )
        from tests.goldens import SPEC, build_model

        model = build_model()
        dc = SPEC["dcgen"]
        gen = DCGenerator(model, DCGenConfig(threshold=dc["threshold"], gen_batch=128))
        leaves = gen.plan(dc["total"])
        cache = model.prompt_cache

        # The plan phase primes each divided pattern's prompt exactly once.
        plan_stats = cache.stats()
        assert plan_stats["misses"] == gen.stats.patterns_used
        assert plan_stats["size"] == plan_stats["misses"]

        batches = build_batches(leaves, 128)
        planned = planned_execute_costs(batches)
        gen.tasks(batches, dc["seed"]).run()

        stats = cache.stats()
        # Execute-phase hits are exactly the planned dedup savings; the
        # execute phase never re-primes a prompt the plan already warmed.
        assert stats["hits"] - plan_stats["hits"] == planned["prompt_cache_hits"]
        assert stats["misses"] == plan_stats["misses"]
        assert stats["evictions"] == 0

    def test_registry_counters_track_cache_stats(self):
        from repro.nn.inference import PromptCache
        from repro.telemetry import get_registry

        cfg = GPT2Config(vocab_size=VOCAB, block_size=BLOCK, dim=32, n_layers=2, n_heads=4, dropout=0.0)
        model = GPT2Model(cfg, seed=5)
        model.eval()
        cache = PromptCache(GPT2Inference(model), maxsize=2)

        registry = get_registry()
        before = {
            key: registry.values().get(f"prompt_cache.{key}", 0)
            for key in ("hits", "misses", "evictions")
        }

        prompts = [np.array([1]), np.array([2]), np.array([3])]
        cache.lookup(prompts[0])
        cache.lookup(prompts[0])  # hit
        cache.lookup(prompts[1])
        cache.lookup(prompts[2])  # evicts prompt 0 (LRU, maxsize=2)
        cache.lookup(prompts[0])  # miss again: it was evicted

        assert cache.stats() == {"hits": 1, "misses": 4, "evictions": 2, "size": 2}
        after = registry.values()
        for key in ("hits", "misses", "evictions"):
            delta = after[f"prompt_cache.{key}"] - before[key]
            assert delta == cache.stats()[key], key

    def test_registry_inference_counters_sum_every_live_engine(self):
        """Two engines alive at once, as on two server fleet slots: the
        registry's ``inference.*`` counters hold both engines' work."""
        import dataclasses

        from repro.nn.inference import InferenceCounters
        from repro.telemetry import get_registry

        cfg = GPT2Config(vocab_size=VOCAB, block_size=BLOCK, dim=32, n_layers=2, n_heads=4, dropout=0.0)
        names = [f"inference.{field.name}" for field in dataclasses.fields(InferenceCounters)]
        registry = get_registry()
        before = {name: registry.values().get(name, 0) for name in names}
        engines = [GPT2Inference(GPT2Model(cfg, seed=seed)) for seed in (5, 6)]
        for rounds, engine in enumerate(engines, start=1):
            for _ in range(rounds):
                _, cache = engine.start(np.array([[1, 2, 3], [4, 5, 6]]))
                engine.step(np.array([7, 8]), cache)
                engine.logits(np.array([[1, 2]]))
        after = registry.values()
        for name in names:
            field = name.split(".", 1)[1]
            expected = sum(getattr(engine.counters, field) for engine in engines)
            assert after[name] - before[name] == expected, name


class TestPromptCacheInterleaved:
    """LRU behaviour under the ordered-frontier access pattern: the
    best-first enumerator interleaves lookups across every pattern's
    prompt each round, so eviction correctness (not just counts) matters
    — a re-primed entry must serve the same state as the evicted one."""

    def _cache(self, maxsize):
        from repro.nn.inference import PromptCache

        cfg = GPT2Config(vocab_size=VOCAB, block_size=BLOCK, dim=32, n_layers=2, n_heads=4, dropout=0.0)
        model = GPT2Model(cfg, seed=5)
        model.eval()
        inference = GPT2Inference(model)
        return PromptCache(inference, maxsize=maxsize), inference

    def test_interleaved_thrash_below_capacity(self):
        """Round-robin over maxsize+1 prompts: every lookup re-primes."""
        cache, _ = self._cache(maxsize=2)
        prompts = [np.array([p, p]) for p in (1, 2, 3)]
        rounds = 4
        for _ in range(rounds):
            for prompt in prompts:
                cache.lookup(prompt)
        stats = cache.stats()
        assert stats["hits"] == 0  # LRU always evicts the next one needed
        assert stats["misses"] == rounds * len(prompts)
        assert stats["evictions"] == rounds * len(prompts) - 2
        assert stats["size"] == 2

    def test_interleaved_all_hits_at_capacity(self):
        cache, _ = self._cache(maxsize=3)
        prompts = [np.array([p, p]) for p in (1, 2, 3)]
        for _ in range(4):
            for prompt in prompts:
                cache.lookup(prompt)
        stats = cache.stats()
        assert stats["misses"] == 3  # one priming each, then steady-state
        assert stats["hits"] == 3 * 3
        assert stats["evictions"] == 0

    def test_reprimed_entry_is_equivalent(self):
        """An evict-then-reprime cycle returns the same logits and a KV
        state that continues identically to an uncached start."""
        cache, inference = self._cache(maxsize=1)
        prompt_a, prompt_b = np.array([4, 5, 6]), np.array([7, 8])
        first_logits, _ = cache.lookup(prompt_a)
        cache.lookup(prompt_b)  # evicts prompt_a
        again_logits, again_kv = cache.lookup(prompt_a)  # re-primed
        assert np.array_equal(first_logits, again_logits)
        fresh_logits, fresh_kv = inference.start(prompt_a[None, :])
        assert np.array_equal(again_logits, fresh_logits)
        next_id = np.array([9])
        stepped = inference.step(next_id, again_kv.gather(np.array([0])))
        expected = inference.step(next_id, fresh_kv)
        assert np.allclose(stepped, expected, atol=1e-5)

    def test_touched_entry_survives_interleaving(self):
        """A hit refreshes recency: the other entry is the one evicted."""
        cache, _ = self._cache(maxsize=2)
        hot, warm, new = np.array([1]), np.array([2]), np.array([3])
        cache.lookup(hot)
        cache.lookup(warm)
        cache.lookup(hot)  # refresh: warm is now LRU
        cache.lookup(new)  # evicts warm
        assert cache.stats()["evictions"] == 1
        hits_before = cache.stats()["hits"]
        cache.lookup(hot)
        assert cache.stats()["hits"] == hits_before + 1  # still cached


class TestGatherIndices:
    """``KVCache.gather`` with the degenerate index lists the ordered
    frontier produces: empty groups and heavily duplicated rows."""

    def test_empty_indices_give_zero_batch(self, inf, ids):
        _, cache = inf.start(ids[:, :5])
        empty = cache.gather(np.array([], dtype=np.intp))
        assert empty.batch == 0
        assert empty.length == cache.length

    def test_empty_int_list(self, inf, ids):
        _, cache = inf.start(ids[:, :3])
        assert cache.gather(np.array([], dtype=np.int64)).batch == 0

    def test_duplicate_indices_replicate_rows(self, inf, ids):
        """Gathering [2,2,0,2] must behave like starting from the rows
        tiled that way — the fan-out the enumerator uses per batch."""
        _, cache = inf.start(ids[:, :6])
        picked = np.array([2, 2, 0, 2])
        fanned = cache.gather(picked)
        assert fanned.batch == 4
        stepped = inf.step(ids[picked, 6], fanned)
        expected = inf.logits(ids[picked, :7])[:, -1]
        assert np.allclose(stepped, expected, atol=1e-4)

    def test_duplicated_rows_are_independent_copies(self, inf, ids):
        """Mutating one duplicated row must not leak into its siblings."""
        _, cache = inf.start(ids[:, :4])
        fanned = cache.gather(np.array([1, 1]))
        fanned.keys[0][0, ...] = 1e9  # corrupt row 0 only
        survivor = fanned.gather(np.array([1]))
        stepped = inf.step(ids[[1], 4], survivor)
        expected = inf.logits(ids[[1], :5])[:, -1]
        assert np.allclose(stepped, expected, atol=1e-4)


class TestBookkeeping:
    def test_select_and_repeat_preserve_length(self, inf, ids):
        _, cache = inf.start(ids[:, :9])
        assert cache.gather(np.array([0])).length == 9
        assert cache.gather(np.full(5, 0)).length == 9

    def test_zero_row_select(self, inf, ids):
        _, cache = inf.start(ids[:, :4])
        empty = cache.gather(np.array([], dtype=np.int64))
        assert empty.batch == 0
        assert empty.length == 4
