"""Integration tests for PagPassGPT and PassGPT (tiny trained models)."""

import numpy as np
import pytest

from repro.models import PagPassGPT, PagPassGPTDC, PassGPT, available_models, create_model
from repro.generation import DCGenConfig, SamplerConfig
from repro.generation.sampler import sample_masked
from repro.tokenizer import (
    Pattern,
    PasswordTokenizer,
    build_extended_tokenizer,
    extended_gpt2_config,
    extract_pattern,
)


def _free_batch_reference(model, batch, rng):
    """The per-row loop free decoding was first written as: the reference
    the table-driven ``PagPassGPT._free_batch_body`` must reproduce."""
    tokenizer = model.tokenizer
    vocab = tokenizer.vocab
    max_len = tokenizer.max_password_length
    logits, cache = model.prompt_cache.expand(np.array([vocab.bos_id], dtype=np.int64), batch)
    in_pattern = np.ones(batch, dtype=bool)
    done = np.zeros(batch, dtype=bool)
    used_len = np.zeros(batch, dtype=np.int64)
    last_class = [""] * batch
    char_classes = [[] for _ in range(batch)]
    position = np.zeros(batch, dtype=np.int64)
    passwords = [[] for _ in range(batch)]
    for _ in range(model.model_config.block_size - 1):
        mask = np.zeros((batch, len(vocab)), dtype=bool)
        for row in range(batch):
            if done[row]:
                mask[row, vocab.eos_id] = True
            elif in_pattern[row]:
                for cls, by_len in tokenizer.pattern_token_id.items():
                    if cls != last_class[row]:
                        for length in range(1, max_len - used_len[row] + 1):
                            mask[row, by_len[length]] = True
                mask[row, vocab.sep_id] = used_len[row] > 0
            elif position[row] < len(char_classes[row]):
                mask[row, tokenizer.class_char_ids[char_classes[row][position[row]]]] = True
            else:
                mask[row, vocab.eos_id] = True
        chosen = sample_masked(logits, mask, rng, model.sampler)
        for row, token_id in enumerate(chosen.tolist()):
            if done[row]:
                continue
            if token_id == vocab.eos_id:
                done[row] = True
            elif token_id == vocab.sep_id:
                in_pattern[row] = False
            elif in_pattern[row]:
                cls, length = tokenizer.pattern_token_info[token_id]
                used_len[row] += length
                last_class[row] = cls
                char_classes[row].extend(cls * length)
            else:
                passwords[row].append(vocab.token_of(token_id))
                position[row] += 1
        if done.all():
            break
        logits = model.inference.step(chosen, cache)
    return ["".join(chars) for chars in passwords]


class TestRegistry:
    def test_available_models(self):
        assert set(available_models()) >= {
            "pagpassgpt", "passgpt", "passgan", "vaepass", "passflow", "pcfg", "markov",
        }

    def test_create_by_name(self):
        assert create_model("PCFG").name == "PCFG"
        assert create_model("PagPassGPT").name == "PagPassGPT"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            create_model("gpt5")

    @pytest.mark.parametrize("name", ["PagPassGPTDC", "pagpassgpt_dc", "pagpassgpt-dc"])
    def test_dc_wrapper_has_no_name(self, name):
        # PagPassGPTDC wraps a fitted base model; no name builds a bare
        # PagPassGPT in its place.
        with pytest.raises(KeyError, match="unknown model"):
            create_model(name)


class TestPagPassGPTGuided:
    def test_conformity(self, trained_pagpassgpt):
        pattern = Pattern.parse("L5N2")
        out = trained_pagpassgpt.generate_with_pattern(pattern, 64, seed=0)
        assert len(out) == 64
        assert all(pattern.matches(pw) for pw in out)

    def test_multi_segment_conformity(self, trained_pagpassgpt):
        pattern = Pattern.parse("L3S1N2S1")
        out = trained_pagpassgpt.generate_with_pattern(pattern, 32, seed=1)
        assert all(pattern.matches(pw) for pw in out)

    def test_deterministic_per_seed(self, trained_pagpassgpt):
        p = Pattern.parse("L4N2")
        assert trained_pagpassgpt.generate_with_pattern(p, 16, seed=5) == \
            trained_pagpassgpt.generate_with_pattern(p, 16, seed=5)

    def test_zero_n(self, trained_pagpassgpt):
        assert trained_pagpassgpt.generate_with_pattern(Pattern.parse("L4"), 0) == []

    def test_requires_fit(self):
        model = PagPassGPT()
        with pytest.raises(RuntimeError):
            model.generate_with_pattern(Pattern.parse("L4"), 4)


class TestPagPassGPTFree:
    def test_outputs_valid_cleanable_passwords(self, trained_pagpassgpt):
        out = trained_pagpassgpt.generate(128, seed=0)
        assert len(out) == 128
        for pw in out:
            assert len(pw) <= 12
            # Every free generation conforms to its own generated pattern,
            # so it is a visible-ASCII string.
            if pw:
                extract_pattern(pw)  # must not raise

    @pytest.mark.parametrize("max_len", [12, 16])
    @pytest.mark.parametrize(
        "sampler",
        [SamplerConfig(), SamplerConfig(temperature=0.7, top_k=20), SamplerConfig(top_p=0.9)],
        ids=["plain", "top_k", "top_p"],
    )
    def test_table_decoder_matches_per_row_reference(self, max_len, sampler):
        """Untrained weights keep every decode state reachable: patterns
        of every shape, every class at the cursor, early and late <EOS>."""
        tokenizer = (
            PasswordTokenizer() if max_len == 12 else build_extended_tokenizer(max_len)
        )
        model = PagPassGPT(
            model_config=extended_gpt2_config(tokenizer, dim=16, n_layers=1, n_heads=2),
            sampler=sampler,
            tokenizer=tokenizer,
            seed=max_len,
        )
        model.model.eval()
        for batch in (1, 9, 64):
            for seed in range(2):
                expected = _free_batch_reference(model, batch, np.random.default_rng(seed))
                got = model._free_batch_body(batch, np.random.default_rng(seed))
                assert got == expected
                assert any(pw for pw in got)

    def test_pattern_probs_recorded(self, trained_pagpassgpt):
        assert trained_pagpassgpt.pattern_probs
        assert sum(trained_pagpassgpt.pattern_probs.values()) == pytest.approx(1.0)

    def test_history_recorded(self, trained_pagpassgpt):
        assert trained_pagpassgpt.history is not None
        assert len(trained_pagpassgpt.history.train_loss) == 2


class TestPassGPT:
    def test_free_generation(self, trained_passgpt):
        out = trained_passgpt.generate(128, seed=0)
        assert len(out) == 128
        # A row that never samples <EOS> is cut at the block boundary.
        assert all(len(pw) <= trained_passgpt.model_config.block_size - 1 for pw in out)

    def test_guided_conformity(self, trained_passgpt):
        pattern = Pattern.parse("L5S1N2")
        out = trained_passgpt.generate_with_pattern(pattern, 32, seed=0)
        assert all(pattern.matches(pw) for pw in out)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            PassGPT().generate(4)


class TestPagPassGPTDC:
    def test_wrapper_delegates(self, trained_pagpassgpt, rockyou_tiny):
        dc = PagPassGPTDC(trained_pagpassgpt, DCGenConfig(threshold=32))
        dc.fit(rockyou_tiny["train_corpus"])  # no-op: base already fitted
        out = dc.generate(500, seed=0)
        assert len(out) > 300
        patterns = {extract_pattern(pw).string for pw in out if pw}
        assert patterns <= set(trained_pagpassgpt.pattern_probs)

    def test_lower_repeat_than_free(self, trained_pagpassgpt):
        dc = PagPassGPTDC(trained_pagpassgpt, DCGenConfig(threshold=32))
        free = trained_pagpassgpt.generate(1500, seed=0)
        divided = dc.generate(1500, seed=0)

        def rep(g):
            return 1 - len(set(g)) / len(g)

        assert rep(divided) <= rep(free) + 0.02

    def test_guided_delegates_to_base(self, trained_pagpassgpt):
        dc = PagPassGPTDC(trained_pagpassgpt)
        p = Pattern.parse("L4N2")
        assert dc.generate_with_pattern(p, 8, seed=1) == \
            trained_pagpassgpt.generate_with_pattern(p, 8, seed=1)


class TestCheckpointIntegration:
    def test_save_load_preserves_generation(self, trained_pagpassgpt, tmp_path):
        from repro.nn import GPT2Config, load_checkpoint, save_checkpoint

        path = tmp_path / "pag.npz"
        save_checkpoint(
            trained_pagpassgpt.model, path,
            meta={"pattern_probs": trained_pagpassgpt.pattern_probs},
        )
        clone = PagPassGPT(
            model_config=trained_pagpassgpt.model_config,
            seed=123,  # different init, will be overwritten
        )
        meta = load_checkpoint(clone.model, path)
        clone.pattern_probs = meta["pattern_probs"]
        clone._fitted = True
        clone.model.eval()
        p = Pattern.parse("L4N2")
        assert clone.generate_with_pattern(p, 8, seed=7) == \
            trained_pagpassgpt.generate_with_pattern(p, 8, seed=7)


class TestSaveLoadAPI:
    def test_pagpassgpt_save_load(self, trained_pagpassgpt, tmp_path):
        path = tmp_path / "pag_api.npz"
        trained_pagpassgpt.save(path)
        clone = PagPassGPT.load(path)
        assert clone.is_fitted
        assert clone.pattern_probs == trained_pagpassgpt.pattern_probs
        p = Pattern.parse("L4N2")
        assert clone.generate_with_pattern(p, 6, seed=3) == \
            trained_pagpassgpt.generate_with_pattern(p, 6, seed=3)

    def test_passgpt_save_load(self, trained_passgpt, tmp_path):
        path = tmp_path / "pass_api.npz"
        trained_passgpt.save(path)
        clone = PassGPT.load(path)
        assert clone.generate(6, seed=3) == trained_passgpt.generate(6, seed=3)

    def test_extended_tokenizer_save_load(self, tmp_path):
        """A §V longer-password model reloads with its own tokenizer."""
        from repro.models import load_checkpoint

        tokenizer = build_extended_tokenizer(16)
        model = PagPassGPT(
            model_config=extended_gpt2_config(tokenizer, dim=16, n_layers=1, n_heads=2),
            tokenizer=tokenizer,
            seed=0,
        )
        model._fitted = True
        path = tmp_path / "ext.npz"
        model.save(path)
        clone = load_checkpoint(path)
        assert clone.tokenizer.max_password_length == 16
        assert clone.generate(20, seed=0) == model.generate(20, seed=0)

    def test_kind_mismatch_rejected(self, trained_passgpt, tmp_path):
        path = tmp_path / "pass_api2.npz"
        trained_passgpt.save(path)
        with pytest.raises(ValueError):
            PagPassGPT.load(path)
