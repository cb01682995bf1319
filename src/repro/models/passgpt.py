"""PassGPT baseline (Rando et al. 2023) — GPT-2 over bare passwords.

Training uses ``<BOS> password <EOS>`` with no pattern information.
Pattern guided guessing is done the way the paper describes PassGPT doing
it (§I-A1): its guided prompt is a bare ``<BOS>``, so at each position
candidate tokens are only *filtered* to the class the pattern prescribes
and the remaining mass renormalised.  Because the model never sees the
pattern, it cannot plan ahead — producing the word truncation artifact
of Table III ("polic#10").

Everything but the tokenizer and the free-sampling chunk body is the
GPT body it shares with PagPassGPT (:class:`~.pagpassgpt.GPTGuesser`).
"""

from __future__ import annotations

import numpy as np

from ..generation.sampler import sample_constrained
from ..tokenizer.tokenizer import PasswordOnlyTokenizer
from .pagpassgpt import GPTGuesser


class PassGPT(GPTGuesser):
    """The state-of-the-art baseline the paper compares against."""

    name = "PassGPT"
    tokenizer_cls = PasswordOnlyTokenizer

    def _free_batch_body(self, batch: int, rng: np.random.Generator) -> list[str]:
        """One free-sampling chunk: from ``<BOS>`` until ``<EOS>``.

        Sampling is restricted to character tokens plus ``<EOS>``: the
        shared vocabulary also contains pattern tokens this model never
        trains on, whose random-init logits would otherwise pollute the
        decode (a no-op for a converged model).
        """
        vocab = self.tokenizer.vocab
        allowed = np.array([vocab.eos_id, *vocab.char_ids], dtype=np.int64)
        max_steps = self.model_config.block_size - 1
        # Every row starts from the same bare <BOS>: prime once, fan out.
        logits, cache = self.prompt_cache.expand(
            np.array([vocab.bos_id], dtype=np.int64), batch
        )
        sequences = np.full((batch, max_steps), vocab.pad_id, dtype=np.int64)
        alive = np.ones(batch, dtype=bool)
        for step in range(max_steps):
            chosen = sample_constrained(logits, allowed, rng, self.sampler)
            chosen = np.where(alive, chosen, vocab.eos_id)
            sequences[:, step] = chosen
            alive &= chosen != vocab.eos_id
            if not alive.any() or step + 1 == max_steps:
                break
            logits = self.inference.step(chosen, cache)
        return [self.tokenizer.decode(row) for row in sequences]
