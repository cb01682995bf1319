"""Ordered generation (SOPG): emit guesses in descending model probability.

Search-based Ordered Password Generation (arXiv 2403.09954) observes
that an autoregressive password model cracks more per guess when the
guesses come out *sorted* by model probability instead of sampled:
at small budgets every emitted string is the most probable one the model
has not tried yet.  This module implements that strategy as a second
generation backend next to D&C-GEN.

Algorithm
---------

A node is a password prefix with its cumulative negative log-probability
under the *constrained, renormalised* next-token distribution — the same
distribution :mod:`repro.generation.sampler` draws from, so the ordered
and sampled strategies enumerate the identical probability space.  The
frontier is a struct of arrays (:class:`Frontier`) kept sorted by
``(neg_logprob, seq)``: float64 ``neg``, the int64 insertion counter
``seq`` that breaks score ties, ``prompt``, ``depth``, ``complete`` and
a zero-padded ``[N, W]`` token matrix ``chars`` (``W`` is the longest
pattern, or ``max_chars``).  Each round works on whole arrays:

* a prefix scan emits the leading complete nodes, then takes the first
  ``beam_width`` incomplete nodes as the batch; complete nodes among
  them stay where they are, since a pending expansion may produce
  children that score better;
* each ``(prompt, depth)`` group of the batch is one batched model call,
  and its finite log-probs become children in row-major order, so the
  ``seq`` tie-break is deterministic;
* one sort on ``(neg, seq)`` merges the children into the frontier,
  which is then cut to ``max_frontier``.

Because a child's negative log-probability is never below its parent's,
a complete node at the front of the frontier is the most probable
password left in the frontier — the emitted stream is non-increasing in
probability and duplicate-free (distinct nodes are distinct strings).

Two prompt modes share the machinery:

* **pattern-conditioned** (PagPassGPT) — one root per pattern, weighted
  by its S_p prior; position ``i`` allows only the pattern's class
  (:meth:`~repro.tokenizer.tokenizer.PasswordTokenizer.allowed_ids_at`),
  and a node completes when the pattern is filled;
* **unconditional** (PassGPT) — a single ``<BOS>`` root; every position
  allows ``<EOS>`` plus all character tokens, and choosing ``<EOS>``
  completes the node.

Inference fast path
-------------------

A frontier is a set of shared prefixes, which is exactly the shape the
PR-3 machinery optimises: each prompt is primed once through the
model's :class:`~repro.nn.PromptCache`, expansion batches gather the
trimmed prompt KV state to the group width (:meth:`~repro.nn.KVCache.
gather`) and feed only the decided characters through
:meth:`~repro.nn.GPT2Inference.extend`.  Depth-0 expansions reuse the
cached prompt logits outright — zero model calls.

Fault tolerance
---------------

Ordered campaigns are first-class citizens of the journaled runtime:
the campaign runner (:func:`repro.generation.campaign.run`) owns their
span, plan event and journal, and every ``snapshot_every`` rounds the
round loop records the full enumeration state (frontier, emitted delta,
counters) as a digest-guarded ``frontier`` record, each frontier column
as base64 of its little-endian bytes.
Resuming replays the journaled snapshots and continues from the last
one; because enumeration is deterministic, the merged stream is
byte-identical to an uninterrupted run for any snapshot interval.  The
journal header pins :data:`SNAPSHOT_FORMAT`, so a journal written in an
older snapshot layout fails to resume with a header mismatch instead of
being misread.  ``maybe_fail("frontier")`` guards the snapshot site for
fault-injection tests (``REPRO_FAULT=crash:frontier:K``).

Memory is bounded by ``max_frontier``: when the frontier outgrows it the
*least* probable nodes are pruned.  Pruning never reorders the emitted
stream but can drop reachable strings, so it is accounted, never
silent: :attr:`OrderedStats.truncated_nodes` / ``truncated_mass`` (one
numpy pairwise sum per prune) and a ``frontier_truncated`` telemetry
event report exactly what was given up.

Exactness
---------

Without pruning the stream is the model's true top-n: every guess is
the most probable password not yet emitted.  With pruning that holds
only for guesses at least as probable as every dropped node (a dropped
node's descendants are never more probable than the node itself), and
:attr:`OrderedStats.exact_prefix` counts them; past that prefix the
stream is monotone but may skip more probable passwords that were
pruned.  ``truncated_best_neg`` records the most probable dropped score
and is journaled with the rest of the stats, so a resumed run reports
the same prefix.  The ``campaign`` span, the CLI stats line and a
server job's result all carry ``exact_prefix`` next to ``emitted``.
"""

from __future__ import annotations

import base64
import bisect
import functools
import hashlib
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..runtime import Budget, RunJournal, maybe_fail
from ..tokenizer.patterns import Pattern
from . import campaign
from .sampler import constrained_distribution

if TYPE_CHECKING:  # imported lazily to avoid a models <-> generation cycle
    from ..models.pagpassgpt import PagPassGPT


@dataclass(frozen=True)
class OrderedConfig:
    """Knobs of the best-first enumerator.

    ``beam_width`` is the number of frontier nodes expanded per batched
    model call — a throughput knob that also sets how many equal-score
    candidates can be in flight (the emitted *order* is probability-
    sorted regardless).  ``max_frontier`` caps frontier memory; overflow
    prunes the least probable nodes with full accounting.
    ``snapshot_every`` is the journaling cadence in rounds (resume is
    byte-identical for any value).  ``max_patterns`` truncates the S_p
    prior like :class:`~repro.generation.dcgen.DCGenConfig`;
    ``max_chars`` caps unconditional password length (default: the
    tokenizer's limit).
    """

    beam_width: int = 64
    max_frontier: int = 50_000
    snapshot_every: int = 4
    max_patterns: Optional[int] = None
    max_chars: Optional[int] = None

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_frontier < self.beam_width:
            raise ValueError("max_frontier must be >= beam_width")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if self.max_patterns is not None and self.max_patterns < 1:
            raise ValueError("max_patterns must be >= 1 or None")
        if self.max_chars is not None and self.max_chars < 1:
            raise ValueError("max_chars must be >= 1 or None")


@dataclass
class OrderedStats:
    """Counters describing one ordered run (journaled with snapshots)."""

    rounds: int = 0
    pops: int = 0
    expansions: int = 0  # nodes fed through the model (rows)
    model_calls: int = 0
    emitted: int = 0
    truncated_nodes: int = 0
    truncated_mass: float = 0.0  # probability mass of pruned nodes
    #: Lowest negative log-probability among pruned nodes (None: none pruned).
    truncated_best_neg: Optional[float] = None
    #: Leading emitted guesses at least as probable as every pruned node:
    #: the provably exact top of the stream.
    exact_prefix: int = 0
    snapshots: int = 0
    exhausted: bool = False  # frontier emptied before the budget was met

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OrderedStats":
        known = {f.name for f in fields(cls)}
        stats = cls(**{k: v for k, v in data.items() if k in known})
        if stats.truncated_nodes and "truncated_best_neg" not in data:
            # Written before the field existed: nothing bounds what was
            # dropped except p <= 1, so no guess counts as exact.
            stats.truncated_best_neg = 0.0
        return stats

    def count_exact(self, emitted: Sequence[tuple[str, float]]) -> int:
        """How many leading ``(password, log-prob)`` pairs of a stream are
        at least as probable as every pruned node."""
        if self.truncated_best_neg is None:
            return len(emitted)
        return bisect.bisect_right(emitted, self.truncated_best_neg, key=lambda e: -e[1])

    def exactness(self) -> dict[str, int]:
        """``emitted`` and ``exact_prefix``: what the ``campaign`` span
        and a server job's result report."""
        return {"emitted": int(self.emitted), "exact_prefix": int(self.exact_prefix)}


@dataclass(frozen=True)
class OrderedPrompt:
    """One enumeration root: a primed prompt plus its prior.

    ``pattern`` selects the mode: a :class:`Pattern` constrains every
    position to its class and completes at the pattern length; ``None``
    means unconditional — characters until ``<EOS>``.
    """

    prompt_ids: np.ndarray
    prior_neg_logprob: float
    pattern: Optional[Pattern]
    label: str


def prompts_digest(prompts: Sequence[OrderedPrompt]) -> str:
    """Content digest of the enumeration roots — the run identity a
    journal pins (two runs with equal digests enumerate the same space
    with the same priors)."""
    h = hashlib.sha256()
    for prompt in prompts:
        h.update(prompt.label.encode())
        h.update(b"|")
        h.update(repr(float(prompt.prior_neg_logprob)).encode())
        h.update(b"|")
        h.update(np.asarray(prompt.prompt_ids, dtype=np.int64).tobytes())
        h.update(b";")
    return h.hexdigest()[:16]


#: Version of the ``frontier`` snapshot payload, pinned in the ordered
#: journal header: resuming a journal written in another layout fails
#: with a header mismatch instead of misreading its records.
SNAPSHOT_FORMAT = "columns-1"

#: Frontier columns and their little-endian dtypes, in memory and in
#: snapshots.  Token ids fit ``int16``: the character vocabulary has a
#: few hundred tokens at most.
_COLUMNS = {
    "neg": "<f8",
    "seq": "<i8",
    "prompt": "<i4",
    "depth": "<i2",
    "complete": "|b1",
    "chars": "<i2",
}


@dataclass
class Frontier:
    """Struct-of-arrays frontier, one row per node, sorted by ``(neg, seq)``.

    Row ``i`` is the prefix ``chars[i, :depth[i]]`` under root
    ``prompt[i]`` with cumulative negative log-probability ``neg[i]``;
    ``seq`` is the unique insertion counter that breaks score ties and
    ``complete`` marks finished passwords.  ``chars`` is zero-padded to
    a fixed width, so a row is self-contained.
    """

    neg: np.ndarray
    seq: np.ndarray
    prompt: np.ndarray
    depth: np.ndarray
    complete: np.ndarray
    chars: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def __len__(self) -> int:
        return len(self.neg)

    def take(self, index) -> "Frontier":
        """The rows selected by ``index`` (slice, mask or positions)."""
        return Frontier(*(getattr(self, name)[index] for name in _COLUMNS))

    @classmethod
    def concat(cls, parts: Sequence["Frontier"]) -> "Frontier":
        return cls(
            *(np.concatenate([getattr(p, name) for p in parts]) for name in _COLUMNS)
        )

    def encode(self) -> dict:
        """Each column as base64 of its little-endian bytes, plus the width."""
        out = {
            name: base64.b64encode(getattr(self, name).tobytes()).decode("ascii")
            for name in _COLUMNS
        }
        out["width"] = int(self.chars.shape[1])
        return out

    @classmethod
    def decode(cls, data: dict) -> "Frontier":
        cols = {
            name: np.frombuffer(base64.b64decode(data[name]), dtype=dtype)
            for name, dtype in _COLUMNS.items()
        }
        cols["chars"] = cols["chars"].reshape(len(cols["neg"]), int(data["width"]))
        return cls(**cols)


class OrderedGenerator:
    """Best-first enumeration over a fitted GPT password model.

    Construct via :meth:`for_patterns` (PagPassGPT: pattern-conditioned
    mixture weighted by S_p) or :meth:`unconditional` (PassGPT: bare
    ``<BOS>``).  The model object must expose ``tokenizer``,
    ``inference`` and ``prompt_cache`` — both GPT model classes do.
    """

    def __init__(
        self,
        model: "PagPassGPT",
        prompts: Sequence[OrderedPrompt],
        config: OrderedConfig = OrderedConfig(),
    ) -> None:
        if not prompts:
            raise ValueError("ordered generation needs at least one prompt root")
        self.model = model
        self.prompts = list(prompts)
        self.config = config
        self.stats = OrderedStats()
        vocab = model.tokenizer.vocab
        self._eos_id = int(vocab.eos_id)
        # Unconditional candidate set: <EOS> first, then every character.
        self._uncond_allowed = np.concatenate(
            [
                np.array([vocab.eos_id], dtype=np.int64),
                np.array(vocab.char_ids, dtype=np.int64),
            ]
        )
        self._eos_only = np.array([vocab.eos_id], dtype=np.int64)
        # Every extend must fit the model's block: the deepest one feeds
        # ``pattern.length - 1`` (pattern mode) or ``max_chars``
        # (unconditional, whose last position allows only <EOS>) tokens.
        block_size = model.inference.config.block_size
        widths = []
        for prompt in self.prompts:
            if prompt.pattern is not None:
                width, deepest = prompt.pattern.length, prompt.pattern.length - 1
            else:
                width = deepest = self._max_chars()
            needed = len(prompt.prompt_ids) + deepest
            if needed > block_size:
                raise ValueError(
                    f"prompt {prompt.label!r} needs {needed} positions "
                    f"({len(prompt.prompt_ids)} prompt + {deepest} characters), "
                    f"beyond the model's block size of {block_size}"
                )
            widths.append(width)
        self._width = max(widths)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_patterns(
        cls,
        model: "PagPassGPT",
        pattern_probs: Optional[dict[str, float]] = None,
        config: OrderedConfig = OrderedConfig(),
    ) -> "OrderedGenerator":
        """Pattern-conditioned mixture: one root per pattern, S_p prior.

        ``pattern_probs`` defaults to the S_p recorded while fitting the
        model; probabilities are renormalised over the (possibly
        ``max_patterns``-truncated) ranked set so priors sum to 1.
        """
        probs = pattern_probs if pattern_probs is not None else model.pattern_probs
        if not probs:
            raise ValueError("no pattern distribution available; fit the model first")
        ranked = sorted(probs.items(), key=lambda item: (-item[1], item[0]))
        if config.max_patterns is not None:
            ranked = ranked[: config.max_patterns]
        ranked = [(p, prob) for p, prob in ranked if prob > 0]
        mass = sum(prob for _, prob in ranked)
        if not ranked or mass <= 0:
            raise ValueError("pattern distribution has no positive mass")
        tokenizer = model.tokenizer
        prompts = [
            OrderedPrompt(
                prompt_ids=np.asarray(
                    tokenizer.encode_prompt(Pattern.parse(p)), dtype=np.int64
                ),
                prior_neg_logprob=-math.log(prob / mass),
                pattern=Pattern.parse(p),
                label=p,
            )
            for p, prob in ranked
        ]
        return cls(model, prompts, config)

    @classmethod
    def unconditional(
        cls, model, config: OrderedConfig = OrderedConfig()
    ) -> "OrderedGenerator":
        """Single ``<BOS>`` root; passwords end at ``<EOS>`` (PassGPT)."""
        vocab = model.tokenizer.vocab
        prompt = OrderedPrompt(
            prompt_ids=np.array([vocab.bos_id], dtype=np.int64),
            prior_neg_logprob=0.0,
            pattern=None,
            label="<free>",
        )
        return cls(model, [prompt], config)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(
        self,
        n: int,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        resume: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
        budget: Optional[Budget] = None,
    ) -> list[str]:
        """Up to ``n`` passwords in non-increasing model probability.

        Without pruning these are the ``n`` most probable passwords.  A
        ``max_frontier`` cap that prunes keeps the order but may skip
        pruned passwords: only the first :attr:`OrderedStats.exact_prefix`
        guesses of :attr:`stats` are guaranteed to be the most probable.
        Fully deterministic — no sampling, no rng, no worker dependence.
        ``journal`` / ``resume`` give the same crash-safety contract as
        D&C-GEN: frontier snapshots are journaled every
        ``snapshot_every`` rounds and a resumed run emits the
        byte-identical stream of an uninterrupted one.
        ``progress(emitted, n)`` fires once per round.  ``budget`` (a
        :class:`~repro.runtime.Budget`) is polled at every round
        boundary; on a trip the un-snapshotted delta is flushed to the
        journal first, so the graceful stop loses nothing.
        """
        return [
            pw for pw, _ in self.generate_scored(n, journal, resume, progress, budget)
        ]

    def generate_scored(
        self,
        n: int,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        resume: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
        budget: Optional[Budget] = None,
    ) -> list[tuple[str, float]]:
        """:meth:`generate` with each password's log-probability attached.

        The scores are cumulative log-probabilities under the
        constrained renormalised next-token distribution (plus the
        pattern prior in pattern mode) and are non-increasing along the
        returned list — the property the test harness asserts.  The
        first :attr:`OrderedStats.exact_prefix` entries are the true
        top of the distribution; the rest are exact only if nothing was
        pruned.
        """
        if n <= 0:
            return []
        config = self.config

        def prepare() -> campaign.Plan:
            shape = {"beam_width": int(config.beam_width),
                     "max_frontier": int(config.max_frontier)}
            return campaign.Plan(
                header={"n": int(n), "prompts": prompts_digest(self.prompts),
                        "snapshot_format": SNAPSHOT_FORMAT, **shape},
                fields={"rows": int(n), "prompts": len(self.prompts),
                        "backend": self.model.inference.backend_name, **shape},
                execute=functools.partial(self._run, n),
                report=lambda: self.stats.exactness(),
            )

        return campaign.run("ordered", n, prepare, journal, resume, progress, budget)

    # ------------------------------------------------------------------
    # Enumeration core
    # ------------------------------------------------------------------
    def _run(
        self,
        n: int,
        journal: Optional[RunJournal],
        progress: Optional[Callable[[int, int], None]],
        budget: Optional[Budget] = None,
    ) -> list[tuple[str, float]]:
        self.stats = OrderedStats()
        stats = self.stats
        registry = telemetry.get_registry()
        beam = self.config.beam_width
        emitted: list[tuple[str, float]] = []
        delta: list[list] = []  # [password, neg_logprob] since last snapshot
        snapshot_id = 0

        restored = journal.completed("frontier") if journal is not None else {}
        if restored:
            for sid in sorted(restored):
                emitted.extend(
                    (pw, -float(neg)) for pw, neg in restored[sid]["emitted"]
                )
            last = restored[max(restored)]
            frontier = Frontier.decode(last["frontier"])
            seq = int(last["seq"])
            self.stats = stats = OrderedStats.from_dict(last["stats"])
            snapshot_id = max(restored) + 1
            telemetry.emit(
                "campaign_resume",
                tasks=len(restored),
                guesses=len(emitted),
                model_calls=int(stats.model_calls),
            )
        else:
            frontier = self._roots()
            seq = len(frontier)

        if progress is not None:
            progress(len(emitted), n)

        while len(emitted) < n and len(frontier):
            with telemetry.trace(
                "ordered.round", level="debug", round=int(stats.rounds)
            ) as span:
                pops0, calls0, emit0 = stats.pops, stats.model_calls, len(emitted)
                # Prefix scan: emit the leading complete nodes, then batch
                # the first ``beam`` incomplete ones.  Complete nodes among
                # those stay put -- a pending expansion may beat them.
                waiting = np.flatnonzero(~frontier.complete)
                lead = int(waiting[0]) if len(waiting) else len(frontier)
                take = min(lead, n - len(emitted))
                for row in range(take):
                    password = self._password(frontier, row)
                    neg = float(frontier.neg[row])
                    emitted.append((password, -neg))
                    delta.append([password, neg])
                if len(emitted) < n and len(waiting):
                    batch = waiting[:beam]
                    # Popped: every node up to the beam's last one, or the
                    # whole frontier when the beam could not be filled.
                    full = len(batch) == beam
                    stats.pops += int(batch[-1]) + 1 if full else len(frontier)
                    keep = np.ones(len(frontier), dtype=bool)
                    keep[:take] = False
                    keep[batch] = False
                    children, seq = self._expand(frontier.take(batch), seq)
                    frontier = self._prune(
                        Frontier.concat([frontier.take(keep), children])
                    )
                else:
                    stats.pops += take
                    frontier = frontier.take(slice(take, None))
                stats.rounds += 1
                stats.emitted = len(emitted)
                stats.exact_prefix = stats.count_exact(emitted)
                registry.counter("ordered.pops").inc(stats.pops - pops0)
                span.set(
                    pops=stats.pops - pops0,
                    guesses=len(emitted) - emit0,
                    model_calls=stats.model_calls - calls0,
                )
            if progress is not None:
                progress(len(emitted), n)
            if journal is not None and stats.rounds % self.config.snapshot_every == 0:
                snapshot_id = self._snapshot(
                    journal, snapshot_id, frontier, seq, delta
                )
                delta = []
            if budget is not None and budget.exceeded(
                guesses=len(emitted), model_calls=stats.model_calls
            ):
                # Graceful stop at a round boundary: flush the pending
                # delta as an extra snapshot first, so the interrupted
                # round's guesses are durable before the raise — resume
                # picks up exactly here.
                if journal is not None and delta:
                    snapshot_id = self._snapshot(
                        journal, snapshot_id, frontier, seq, delta
                    )
                    delta = []
                budget.poll(
                    guesses=len(emitted),
                    model_calls=stats.model_calls,
                    rounds=stats.rounds,
                )

        if len(emitted) < n:
            stats.exhausted = True
            telemetry.emit(
                "frontier_exhausted", emitted=len(emitted), requested=int(n)
            )
        stats.emitted = len(emitted)
        stats.exact_prefix = stats.count_exact(emitted)
        if journal is not None and delta:
            self._snapshot(journal, snapshot_id, frontier, seq, delta)
        return emitted[:n]

    def _roots(self) -> Frontier:
        """One depth-0 node per prompt with a finite prior, sorted."""
        live = [
            index
            for index, prompt in enumerate(self.prompts)
            if math.isfinite(prompt.prior_neg_logprob)
        ]
        roots = Frontier(
            neg=[self.prompts[index].prior_neg_logprob for index in live],
            seq=np.arange(len(live)),
            prompt=live,
            depth=np.zeros(len(live)),
            complete=np.zeros(len(live)),
            chars=np.zeros((len(live), self._width)),
        )
        return roots.take(np.lexsort((roots.seq, roots.neg)))

    def _expand(self, batch: Frontier, seq: int) -> tuple[Frontier, int]:
        """Children of ``batch``, numbered from ``seq``; returns them and
        the advanced ``seq`` counter.

        Nodes are grouped by ``(prompt, depth)`` so each group is one
        KV-cached forward: the shared prompt comes from the warm
        :class:`~repro.nn.PromptCache`, the decided characters ride one
        :meth:`~repro.nn.GPT2Inference.extend` call.  Groups run in
        sorted key order and each group's children are numbered in
        row-major ``(parent, token)`` order, so the ``seq`` tie-break is
        deterministic.
        """
        stats = self.stats
        # lexsort is stable: rows of a group keep their frontier order.
        order = np.lexsort((batch.depth, batch.prompt))
        key_prompt, key_depth = batch.prompt[order], batch.depth[order]
        cuts = np.flatnonzero(
            (key_prompt[1:] != key_prompt[:-1]) | (key_depth[1:] != key_depth[:-1])
        )
        children = []
        for rows in np.split(order, cuts + 1):
            prompt_index, depth = int(batch.prompt[rows[0]]), int(batch.depth[rows[0]])
            prompt = self.prompts[prompt_index]
            prompt_logits, prompt_kv = self.model.prompt_cache.lookup(prompt.prompt_ids)
            if depth == 0:
                logits = np.repeat(prompt_logits, len(rows), axis=0)
            else:
                # Sized to what the extend fills: the prompt plus ``depth``.
                kv = prompt_kv.gather(
                    np.zeros(len(rows), dtype=np.intp), prompt_kv.length + depth
                )
                chars = batch.chars[rows, :depth].astype(np.int64)
                logits = self.model.inference.extend(chars, kv)
                stats.model_calls += 1
            allowed = self._allowed(prompt, depth)
            # log of the renormalised constrained distribution, float64
            # so cumulative scores do not lose precision along the path.
            with np.errstate(divide="ignore"):
                log_probs = np.log(
                    constrained_distribution(logits, allowed).astype(np.float64)
                )
            stats.expansions += len(rows)
            # Zero-probability children are unreachable: skip them.
            row, column = np.nonzero(np.isfinite(log_probs))
            parents = rows[row]
            tokens = allowed[column]
            chars = batch.chars[parents]
            if prompt.pattern is not None:
                chars[:, depth] = tokens
                complete = np.full(len(tokens), depth + 1 == prompt.pattern.length)
                child_depth = np.full(len(tokens), depth + 1)
            else:
                # <EOS> completes the node and keeps its parent's chars.
                complete = tokens == self._eos_id
                grow = ~complete
                if grow.any():
                    chars[grow, depth] = tokens[grow]
                child_depth = depth + grow
            children.append(
                Frontier(
                    neg=batch.neg[parents] - log_probs[row, column],
                    seq=np.arange(seq, seq + len(tokens)),
                    prompt=np.full(len(tokens), prompt_index),
                    depth=child_depth,
                    complete=complete,
                    chars=chars,
                )
            )
            seq += len(tokens)
        return Frontier.concat(children), seq

    def _allowed(self, prompt: OrderedPrompt, depth: int) -> np.ndarray:
        """Candidate token ids for the next position of a node."""
        if prompt.pattern is not None:
            return self.model.tokenizer.allowed_ids_at(prompt.pattern, depth)
        if depth >= self._max_chars():
            return self._eos_only
        return self._uncond_allowed

    def _max_chars(self) -> int:
        if self.config.max_chars is not None:
            return self.config.max_chars
        tokenizer = self.model.tokenizer
        return getattr(tokenizer, "max_password_length", tokenizer.block_size - 2)

    def _password(self, frontier: Frontier, row: int) -> str:
        token_strs = self.model.tokenizer.vocab.token_array
        return "".join(token_strs[frontier.chars[row, : frontier.depth[row]]])

    def _prune(self, frontier: Frontier) -> Frontier:
        """Sort by ``(neg, seq)`` and cap at ``max_frontier``, accounting
        for what's dropped."""
        order = np.lexsort((frontier.seq, frontier.neg))
        cap = self.config.max_frontier
        if len(order) <= cap:
            return frontier.take(order)
        dropped = len(order) - cap
        mass = float(np.exp(-frontier.neg[order[cap:]]).sum())
        best = float(frontier.neg[order[cap]])
        stats = self.stats
        stats.truncated_nodes += dropped
        stats.truncated_mass += mass
        if stats.truncated_best_neg is None or best < stats.truncated_best_neg:
            stats.truncated_best_neg = best
        telemetry.get_registry().counter("ordered.truncated").inc(dropped)
        telemetry.emit(
            "frontier_truncated",
            level="debug",
            dropped=dropped,
            mass=mass,
            frontier=cap,
        )
        return frontier.take(order[:cap])

    def _snapshot(
        self,
        journal: RunJournal,
        snapshot_id: int,
        frontier: Frontier,
        seq: int,
        delta: list[list],
    ) -> int:
        """Journal the full enumeration state; returns the next ordinal.

        ``maybe_fail("frontier")`` sits before the write so the fault
        harness can kill the run at an exact snapshot boundary
        (``REPRO_FAULT=crash:frontier:K`` crashes before snapshot K+1,
        leaving K durable snapshots behind).
        """
        maybe_fail("frontier")
        journal.record(
            "frontier",
            snapshot_id,
            {
                "round": int(self.stats.rounds),
                "emitted": delta,
                "frontier": frontier.encode(),
                "seq": int(seq),
                "stats": self.stats.as_dict(),
            },
        )
        self.stats.snapshots += 1
        return snapshot_id + 1
