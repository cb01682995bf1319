"""PagPassGPT — pattern guided password guessing via GPT-2 (§III-B).

Training: each password is preprocessed into the rule
``<BOS> pattern <SEP> password <EOS>`` so the model learns
``Pr(t_1..t_n | P)`` auto-regressively (eq. 1).

Generation:

* *pattern guided* — the prompt ``<BOS> pattern <SEP>`` conditions the
  whole password on the pattern; per-position constraint masks guarantee
  conformity (the same filter D&C-GEN applies in Fig. 7);
* *free* (trawling "approach 1", §IV-D) — the model is fed only ``<BOS>``
  and generates the pattern and password itself.

The paper compares PagPassGPT and PassGPT on the same GPT-2 backbone
(§I-A1), so both run on one body, :class:`GPTGuesser`.
"""

from __future__ import annotations

import abc
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .. import telemetry
from ..datasets.corpus import PasswordCorpus
from ..generation import campaign
from ..generation.sampler import (
    GEN_BATCH, SamplerConfig, free_chunks, sample_constrained, sample_masked,
)
from ..nn import GPT2Config, GPT2Inference, GPT2Model, PromptCache
from ..nn.serialization import load_checkpoint, read_checkpoint_meta, save_checkpoint
from ..runtime import Budget, RunJournal
from ..tokenizer.patterns import Pattern
from ..tokenizer.tokenizer import PasswordTokenizer
from ..training import TrainConfig, TrainHistory, Trainer
from .base import PatternGuidedGuesser


class GPTGuesser(PatternGuidedGuesser):
    """A GPT-2 password model: everything PagPassGPT and PassGPT share.

    A subclass sets ``name`` (also the checkpoint ``kind``),
    ``tokenizer_cls`` (its training encoding and its guided prompt) and
    :meth:`_free_batch_body` (one free-sampling chunk).
    """

    tokenizer_cls: type

    def __init__(
        self,
        model_config: Optional[GPT2Config] = None,
        train_config: Optional[TrainConfig] = None,
        sampler: SamplerConfig = SamplerConfig(),
        seed: int = 0,
        tokenizer=None,
    ) -> None:
        self.tokenizer = tokenizer or self.tokenizer_cls()
        self.model_config = model_config or GPT2Config(
            vocab_size=len(self.tokenizer.vocab),
            block_size=self.tokenizer.block_size,
            dim=96,
            n_layers=3,
            n_heads=4,
            dropout=0.1,
        )
        if self.model_config.vocab_size != len(self.tokenizer.vocab):
            raise ValueError("model vocab_size must match the tokenizer vocabulary")
        self.train_config = train_config or TrainConfig()
        self.sampler = sampler
        self.model = GPT2Model(self.model_config, seed=seed)
        self.history: Optional[TrainHistory] = None
        self._inference: Optional[GPT2Inference] = None
        self._prompt_cache: Optional[PromptCache] = None
        self._fitted = False
        #: Pattern distribution of the training corpus (D&C-GEN's S_p).
        self.pattern_probs: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        corpus: PasswordCorpus,
        val_passwords: Optional[list[str]] = None,
        log_fn=None,
        checkpoint_path=None,
        resume_from=None,
        budget: Optional[Budget] = None,
    ) -> "GPTGuesser":
        """Train on ``corpus`` encoded by the tokenizer; records its S_p.

        ``checkpoint_path`` enables per-epoch crash-safe training state;
        ``resume_from`` continues an interrupted run from such a state
        file, and ``budget`` converts deadlines/signals into a graceful
        epoch-boundary stop (see :meth:`repro.training.Trainer.fit`).
        """
        train_ids = self.tokenizer.encode_corpus(corpus.passwords)
        val_ids = (
            self.tokenizer.encode_corpus(val_passwords) if val_passwords else None
        )
        trainer = Trainer(
            self.model, pad_id=self.tokenizer.vocab.pad_id,
            config=self.train_config, log_fn=log_fn,
        )
        self.history = trainer.fit(
            train_ids, val_ids,
            checkpoint_path=checkpoint_path, resume_from=resume_from,
            budget=budget,
        )
        self.pattern_probs = dict(corpus.pattern_probs)
        self._fitted = True
        self.invalidate_inference()
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._fitted

    @property
    def inference(self) -> GPT2Inference:
        """Inference engine over the current weights (lazily built)."""
        if self._inference is None:
            self.model.eval()
            self._inference = GPT2Inference(self.model)
        return self._inference

    @property
    def prompt_cache(self) -> PromptCache:
        """Memoised prompt KV states shared by every generation path.

        Guided prompts (``<BOS> pattern <SEP>``, or PassGPT's bare
        ``<BOS>``) and the ``<BOS>`` of free generation are primed once
        and fanned out per batch; under the ``fork`` start method worker
        processes inherit warm entries copy-on-write.
        """
        if self._prompt_cache is None:
            self._prompt_cache = PromptCache(self.inference)
        return self._prompt_cache

    def invalidate_inference(self) -> None:
        """Drop the cached inference snapshot (call after further training)."""
        self._inference = None
        self._prompt_cache = None

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write weights + config + S_p to an npz checkpoint."""
        save_checkpoint(
            self.model,
            path,
            meta={
                "kind": self.name,
                "config": asdict(self.model_config),
                "pattern_probs": self.pattern_probs,
            },
        )

    @classmethod
    def load(cls, path, meta: Optional[dict] = None) -> "GPTGuesser":
        """Rebuild a fitted model from :meth:`save` output.

        ``meta`` is the checkpoint's metadata when the caller has already
        read it (the registry dispatches on its ``kind``).  Raises
        :class:`~repro.nn.CheckpointError` for missing, truncated or
        corrupt files and ``ValueError`` when the checkpoint holds
        another model kind.
        """
        if meta is None:
            meta = read_checkpoint_meta(path)
        if meta.get("kind") != cls.name:
            raise ValueError(f"checkpoint is a {meta.get('kind')!r} model, not {cls.name}")
        model = cls(model_config=GPT2Config(**meta["config"]))
        load_checkpoint(model.model, path)
        model.pattern_probs = meta.get("pattern_probs", {})
        model._fitted = True
        model.model.eval()
        return model

    # ------------------------------------------------------------------
    # Pattern guided generation
    # ------------------------------------------------------------------
    def generate_with_pattern(self, pattern: Pattern, n: int, seed: int = 0) -> list[str]:
        """Generate ``n`` passwords conforming to ``pattern`` (Fig. 3 right):
        from the tokenizer's prompt (PassGPT's is a bare ``<BOS>``), each
        position drawn from the characters of its class."""
        self._require_fitted(self._fitted)
        if n <= 0:
            return []
        rng = np.random.default_rng(seed)
        prompt = np.asarray(self.tokenizer.encode_prompt(pattern), dtype=np.int64)
        classes = pattern.char_classes()
        token_strs = self.tokenizer.vocab.token_array
        out: list[str] = []
        for start in range(0, n, GEN_BATCH):
            batch = min(GEN_BATCH, n - start)
            # All rows share the prompt: prime it once, fan out the KV
            # state, sized to the last position the loop below steps to.
            logits, cache = self.prompt_cache.expand(
                prompt, batch, len(prompt) + len(classes) - 1
            )
            chosen_cols = np.empty((batch, len(classes)), dtype=np.int64)
            for position, cls in enumerate(classes):
                allowed = self.tokenizer.class_char_ids[cls]
                chosen = sample_constrained(logits, allowed, rng, self.sampler)
                chosen_cols[:, position] = chosen
                if position + 1 < len(classes):
                    logits = self.inference.step(chosen, cache)
            out.extend("".join(row) for row in token_strs[chosen_cols].tolist())
        return out

    # ------------------------------------------------------------------
    # Free (trawling) generation
    # ------------------------------------------------------------------
    def generate(
        self,
        n: int,
        seed: int = 0,
        workers: int = 1,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        resume: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
        budget: Optional[Budget] = None,
    ) -> list[str]:
        """Trawling approach 1: feed only ``<BOS>``, model writes the rest.

        The run is a task campaign (:mod:`repro.generation.campaign`):
        each ``GEN_BATCH`` chunk is one task that runs
        :meth:`_free_batch_body` on draws from ``(seed, chunk_index)``,
        so the stream is identical for any ``workers`` count
        (``workers > 1`` shards chunks across the supervised pool of
        :mod:`repro.generation.parallel`).  ``journal``, ``resume``,
        ``progress`` and ``budget`` behave as for D&C-GEN campaigns
        (:meth:`repro.generation.DCGenerator.generate`), with one journal
        record per chunk.
        """
        self._require_fitted(self._fitted)
        if n <= 0:
            return []

        def prepare() -> campaign.Plan:
            # Warm the <BOS> prompt before any dispatch so forked workers
            # inherit the primed entry copy-on-write instead of re-priming.
            self.prompt_cache.lookup(np.array([self.tokenizer.vocab.bos_id], dtype=np.int64))
            chunks = free_chunks(n)
            tasks = campaign.Tasks(
                self, chunks, execute_free_chunk, seed, rows=n,
                record="free_chunk", label="free generation", workers=workers,
            )
            return tasks.plan(
                {"seed": int(seed), "n": int(n), "gen_batch": int(GEN_BATCH),
                 "n_chunks": len(chunks)},
                gen_batch=int(GEN_BATCH),
                backend=self.inference.backend_name,
            )

        results = campaign.run("free", n, prepare, journal, resume, progress, budget)
        return [pw for guesses, _ in results for pw in guesses]

    @abc.abstractmethod
    def _free_batch_body(self, batch: int, rng: np.random.Generator) -> list[str]:
        """``batch`` free-sampled guesses drawn from ``rng`` (one chunk)."""


class PagPassGPT(GPTGuesser):
    """The paper's model: GPT-2 conditioned on PCFG patterns."""

    name = "PagPassGPT"
    tokenizer_cls = PasswordTokenizer

    def _free_batch_body(self, batch: int, rng: np.random.Generator) -> list[str]:
        """One free-sampling chunk, from a bare ``<BOS>`` to ``<EOS>``.

        Decoding is *grammar-constrained* to the training rule format
        ``pattern <SEP> password <EOS>``: during the pattern phase only
        valid continuations of a PCFG pattern are allowed (alternating
        classes, total length <= 12), and during the password phase only
        characters of the class the self-generated pattern prescribes.
        For a converged model the mask is a no-op (training data always
        conforms); for the scaled-down models it removes decode artifacts
        from never-trained tokens such as ``<UNK>``/``<PAD>``.
        """
        vocab = self.tokenizer.vocab
        grammar = self.tokenizer.free_grammar
        # Every row starts from the same bare <BOS>: prime once, fan out.
        logits, cache = self.prompt_cache.expand(
            np.array([vocab.bos_id], dtype=np.int64), batch
        )
        max_steps = self.model_config.block_size - 1
        none = len(grammar.classes)
        rows = np.arange(batch)
        columns = np.arange(max_steps + 1)

        # Per-row decode state (see FreeGrammar for the table it indexes).
        done = np.zeros(batch, dtype=bool)
        in_pattern = np.ones(batch, dtype=bool)
        last = np.full(batch, none, dtype=np.int64)  # class of the last pattern token
        used = np.zeros(batch, dtype=np.int64)  # pattern length so far
        cursor = np.zeros(batch, dtype=np.int64)  # password position
        # Class code of every password position (``none`` past the
        # pattern) and the drawn characters (``len(vocab)`` = not yet).
        classes = np.full((batch, max_steps + 1), none, dtype=np.int64)
        chars = np.full((batch, max_steps), len(vocab), dtype=np.int64)

        for _ in range(max_steps):
            state = grammar.state(done, in_pattern, last, used, classes[rows, cursor])
            chosen = sample_masked(logits, grammar.allowed[state], rng, self.sampler)
            other = ~done & (chosen != vocab.eos_id) & (chosen != vocab.sep_id)
            segment = other & in_pattern
            char = other & ~in_pattern
            done |= chosen == vocab.eos_id
            in_pattern &= chosen != vocab.sep_id
            if segment.any():
                length = np.where(segment, grammar.token_length[chosen], 0)
                if not length[segment].all():
                    raise ValueError("free decoding drew a non-pattern token in the pattern phase")
                code = grammar.token_class[chosen]
                fill = (columns >= used[:, None]) & (columns < (used + length)[:, None])
                classes = np.where(fill, code[:, None], classes)
                used += length
                last = np.where(segment, code, last)
            if char.any():
                chars[char, cursor[char]] = chosen[char]
                cursor += char
            if done.all():
                break
            logits = self.inference.step(chosen, cache)
        token_strs = np.append(vocab.token_array, "")
        return ["".join(row) for row in token_strs[chars[:, : cursor.max()]].tolist()]


def execute_free_chunk(
    model: GPTGuesser, chunk: tuple[int, int], seed: int
) -> tuple[list[str], int]:
    """The free-sampling task body: ``(chunk_index, rows)`` drawn from
    ``(seed, chunk_index)``; returns ``(guesses, model calls)``."""
    index, rows = chunk
    with telemetry.trace("free.chunk", level="debug", rows=int(rows)) as span:
        guesses = model._free_batch_body(rows, np.random.default_rng((seed, index)))
        span.set(guesses=len(guesses), model_calls=0)
    return guesses, 0
