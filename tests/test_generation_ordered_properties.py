"""Property tests for the best-first ordered enumerator.

The ordered backend's whole value is a *provable* contract — the stream
is the model's true top-k, in order, without duplicates.  These tests
check that contract from the outside:

* **brute force equivalence** — on a dim=16 model with deliberately tiny
  pattern spaces, full enumeration of every candidate password (scored
  through the *full-forward* ``inference.logits`` path, independent of
  the KV ``gather``/``extend`` path the enumerator uses) must agree with
  the ordered stream on both membership and scores;
* **monotonicity / uniqueness** — across beam widths and both prompt
  modes the emitted log-probs never increase and no password repeats;
* **truncation accounting** — a frontier cap small enough to prune must
  show up in :class:`OrderedStats` and the metrics registry, never
  silently, and ``exact_prefix`` must count only guesses that really are
  the true top of the space;
* **journaling** — an unconditional campaign crashed at a frontier
  snapshot resumes into the uninterrupted stream and stats, a journal
  in an older snapshot layout is refused by its header, never misread,
  and neither a journaled run nor its resume holds the journal in
  memory.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from repro import telemetry
from repro.cli import EXIT_CORRUPT, main
from repro.generation import (
    OrderedConfig,
    OrderedGenerator,
    OrderedStats,
    prompts_digest,
)
from repro.generation.sampler import constrained_distribution
from repro.models import PagPassGPT, PassGPT
from repro.nn import GPT2Config
from repro.runtime import JournalError, RunJournal, faults
from repro.runtime.faults import InjectedFault
from repro.tokenizer.patterns import Pattern

#: Small enough to brute-force exhaustively: 52*10 + 10*10 = 620 strings.
TINY_PATTERNS = {"L1N1": 0.6, "N2": 0.4}

#: Prunes on the tiny model yet leaves a non-empty exact prefix of the
#: first 80 guesses (54 of them).
PRUNING = OrderedConfig(beam_width=16, max_frontier=100, snapshot_every=1)

#: Roots whose frontier fills a 2000-row cap, snapshotted every round:
#: 40 guesses journal about 35 MB of frontier columns.
WIDE_PATTERNS = {"L4N2": 0.4, "N6": 0.3, "L3S1N2": 0.2, "L8": 0.1}
WIDE = OrderedConfig(beam_width=16, max_frontier=2000, snapshot_every=1)


@pytest.fixture(scope="module")
def tiny_model() -> PagPassGPT:
    """dim=16 deterministic-weight model over a brute-forceable space."""
    model = PagPassGPT(
        model_config=GPT2Config(
            vocab_size=135, block_size=32, dim=16, n_layers=1, n_heads=2, dropout=0.0
        ),
        seed=3,
    )
    model._fitted = True
    model.pattern_probs = dict(TINY_PATTERNS)
    return model


def brute_force_scores(model: PagPassGPT) -> dict[str, float]:
    """Log-prob of EVERY password in the pattern mixture, full-forward.

    Deliberately shares no code with the enumerator's scoring loop: all
    candidates of a pattern are scored in one ``inference.logits`` call
    (no KV cache, no ``gather``, no ``extend``) and the per-position
    probabilities are read off the full logit cube.
    """
    tokenizer = model.tokenizer
    mass = sum(TINY_PATTERNS.values())
    out: dict[str, float] = {}
    for name, prob in TINY_PATTERNS.items():
        pattern = Pattern.parse(name)
        prior = math.log(prob / mass)
        prompt = np.asarray(tokenizer.encode_prompt(pattern), dtype=np.int64)
        allowed = [tokenizer.allowed_ids_at(pattern, i) for i in range(pattern.length)]
        # Cartesian product of the per-position alphabets.
        combos = np.array(np.meshgrid(*allowed, indexing="ij")).reshape(
            pattern.length, -1
        ).T
        ids = np.concatenate(
            [np.tile(prompt, (len(combos), 1)), combos], axis=1
        )
        logits = model.inference.logits(ids)  # (B, S, vocab)
        scores = np.full(len(combos), prior, dtype=np.float64)
        token_strs = tokenizer.vocab.token_array
        for position in range(pattern.length):
            step_logits = logits[:, len(prompt) - 1 + position, :]
            probs = constrained_distribution(step_logits, allowed[position])
            lookup = np.full(len(tokenizer.vocab), -1, dtype=np.int64)
            lookup[allowed[position]] = np.arange(len(allowed[position]))
            column = lookup[combos[:, position]]
            scores += np.log(
                probs[np.arange(len(combos)), column].astype(np.float64)
            )
        for row, score in zip(combos, scores):
            out["".join(token_strs[row])] = float(score)
    return out


class TestBruteForceEquivalence:
    def test_topk_matches_full_enumeration(self, tiny_model):
        """First k of the ordered stream == top-k of the whole space."""
        truth = brute_force_scores(tiny_model)
        ranked = sorted(truth.items(), key=lambda item: -item[1])
        k = 100
        gen = OrderedGenerator.for_patterns(
            tiny_model, config=OrderedConfig(beam_width=16, max_frontier=200_000)
        )
        stream = gen.generate_scored(k)
        assert gen.stats.truncated_nodes == 0  # exactness needs no pruning
        assert gen.stats.exact_prefix == k
        assert [pw for pw, _ in stream] == [pw for pw, _ in ranked[:k]]
        # The reference path (one full-forward attention pass) and the
        # enumerator's KV extend path accumulate float32 rounding in
        # different orders, so scores agree to ~1e-7, not bitwise.
        for (pw, got), (_, want) in zip(stream, ranked):
            assert got == pytest.approx(want, abs=1e-6), pw

    def test_exact_prefix_is_true_topk_under_pruning(self, tiny_model):
        """Pruning can break the stream's exactness; the reported exact
        prefix is still the true top of the space."""
        truth = brute_force_scores(tiny_model)
        ranked = [pw for pw, _ in sorted(truth.items(), key=lambda item: -item[1])]
        gen = OrderedGenerator.for_patterns(tiny_model, config=PRUNING)
        stream = gen.generate(80)
        stats = gen.stats
        assert stats.truncated_nodes > 0
        assert 0 < stats.exact_prefix < 80
        assert stream[: stats.exact_prefix] == ranked[: stats.exact_prefix]
        # Every guess past the prefix is less probable than a pruned node.
        assert -truth[stream[stats.exact_prefix]] > stats.truncated_best_neg

    def test_campaign_span_reports_exact_prefix(self, tiny_model, tmp_path):
        gen = OrderedGenerator.for_patterns(tiny_model, config=PRUNING)
        with telemetry.session(tmp_path, run_id="ordered"):
            gen.generate(80)
        spans = [
            event["fields"]
            for event in telemetry.read_events(tmp_path / "telemetry.jsonl")
            if event["event"] == "span" and event["fields"]["name"] == "campaign"
        ]
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert attrs["kind"] == "ordered"
        assert attrs["emitted"] == gen.stats.emitted == 80
        assert attrs["exact_prefix"] == gen.stats.exact_prefix > 0

    def test_exhaustive_stream_covers_whole_space(self, tiny_model):
        """Asking for more than exists yields every password exactly once."""
        truth = brute_force_scores(tiny_model)
        gen = OrderedGenerator.for_patterns(
            tiny_model, config=OrderedConfig(beam_width=64, max_frontier=200_000)
        )
        stream = gen.generate(len(truth) + 50)
        assert gen.stats.exhausted
        assert len(stream) == len(truth)
        assert set(stream) == set(truth)


class TestOrderingProperties:
    @pytest.mark.parametrize("beam_width", [1, 7, 64])
    def test_scores_non_increasing_and_unique(self, tiny_model, beam_width):
        gen = OrderedGenerator.for_patterns(
            tiny_model,
            config=OrderedConfig(beam_width=beam_width, max_frontier=200_000),
        )
        stream = gen.generate_scored(80)
        scores = [score for _, score in stream]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        passwords = [pw for pw, _ in stream]
        assert len(set(passwords)) == len(passwords)

    def test_stream_is_beam_width_invariant(self, tiny_model):
        """beam_width is a throughput knob: the emitted bytes don't move."""
        streams = [
            OrderedGenerator.for_patterns(
                tiny_model,
                config=OrderedConfig(beam_width=w, max_frontier=200_000),
            ).generate(60)
            for w in (1, 16)
        ]
        assert streams[0] == streams[1]

    def test_unconditional_mode_properties(self, tiny_model):
        """PassGPT-style mode: <EOS>-terminated, capped length, ordered."""
        gen = OrderedGenerator.unconditional(
            tiny_model,
            config=OrderedConfig(beam_width=16, max_chars=2, max_frontier=200_000),
        )
        stream = gen.generate_scored(40)
        scores = [score for _, score in stream]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        passwords = [pw for pw, _ in stream]
        assert len(set(passwords)) == len(passwords)
        assert all(len(pw) <= 2 for pw in passwords)

    def test_short_beam_pops_the_held_completes(self, tiny_model):
        """A beam that cannot fill pops the whole frontier, complete nodes
        behind its last incomplete one included (they are held, not
        emitted, while the expansion is pending)."""
        gen = OrderedGenerator.for_patterns(
            tiny_model,
            {"L1N1": 0.99, "N1": 0.01},
            OrderedConfig(beam_width=64, max_frontier=200_000),
        )
        assert len(gen.generate(530)) == 530  # the whole space
        # Round 1 pops both roots.  Round 2 batches the 52 L1 prefixes
        # and holds the 10 far less probable N1 passwords behind them.
        # Round 3 emits all 520 + 10 complete passwords.
        assert (gen.stats.rounds, gen.stats.pops) == (3, 2 + 62 + 530)
        assert (gen.stats.expansions, gen.stats.model_calls) == (2 + 52, 1)


class TestTruncationAccounting:
    def test_frontier_cap_is_reported_not_silent(self, tiny_model):
        registry = telemetry.get_registry()
        before = registry.counter("ordered.truncated").value
        gen = OrderedGenerator.for_patterns(
            tiny_model, config=OrderedConfig(beam_width=8, max_frontier=16)
        )
        gen.generate(30)
        assert gen.stats.truncated_nodes > 0
        assert gen.stats.truncated_mass > 0.0
        assert registry.counter("ordered.truncated").value - before == (
            gen.stats.truncated_nodes
        )

    def test_exhaustion_is_flagged(self, tiny_model):
        """A drained frontier reports exhausted instead of spinning."""
        gen = OrderedGenerator.unconditional(
            tiny_model,
            config=OrderedConfig(beam_width=16, max_chars=1, max_frontier=200_000),
        )
        stream = gen.generate(1000)
        assert gen.stats.exhausted
        # <=1-char space: the empty password plus every single character.
        assert len(stream) == 1 + len(tiny_model.tokenizer.vocab.char_ids)


class TestConfigAndDigest:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beam_width": 0},
            {"beam_width": 32, "max_frontier": 16},
            {"snapshot_every": 0},
            {"max_patterns": 0},
            {"max_chars": 0},
        ],
    )
    def test_config_rejects_nonsense(self, kwargs):
        with pytest.raises(ValueError):
            OrderedConfig(**kwargs)

    def test_prompts_digest_tracks_priors_and_patterns(self, tiny_model):
        base = OrderedGenerator.for_patterns(tiny_model)
        same = OrderedGenerator.for_patterns(tiny_model)
        assert prompts_digest(base.prompts) == prompts_digest(same.prompts)
        other = OrderedGenerator.for_patterns(
            tiny_model, pattern_probs={"L1N1": 0.5, "N2": 0.5}
        )
        assert prompts_digest(base.prompts) != prompts_digest(other.prompts)

    def test_max_chars_past_block_size_raises_before_any_model_call(self):
        """The deepest unconditional extend feeds ``max_chars`` tokens after
        ``<BOS>``; a cap the block cannot hold fails at construction."""
        model = PassGPT(seed=0)  # block size 16
        with pytest.raises(ValueError, match="block size of 16"):
            OrderedGenerator.unconditional(
                model, OrderedConfig(beam_width=1, max_frontier=50, max_chars=40)
            )
        assert model.inference.counters.calls == 0
        assert model.prompt_cache.stats()["misses"] == 0
        with pytest.raises(ValueError, match="block size of 16"):
            OrderedGenerator.unconditional(model, OrderedConfig(max_chars=16))
        OrderedGenerator.unconditional(model, OrderedConfig(max_chars=15))

    def test_pattern_fitting_the_block_exactly_runs(self):
        """Pattern mode's deepest extend feeds ``length - 1`` characters."""
        model = PagPassGPT(
            model_config=GPT2Config(
                vocab_size=135, block_size=8, dim=16, n_layers=1, n_heads=2,
                dropout=0.0,
            ),
            seed=3,
        )
        model._fitted = True
        config = OrderedConfig(beam_width=8, max_frontier=8)
        # <BOS> L6 <SEP> plus 5 decided characters fills all 8 positions.
        gen = OrderedGenerator.for_patterns(model, {"L6": 1.0}, config)
        assert len(gen.generate(3)) == 3
        with pytest.raises(ValueError, match="block size of 8"):
            OrderedGenerator.for_patterns(model, {"L7": 1.0}, config)

    def test_requires_pattern_distribution(self):
        model = PagPassGPT(
            model_config=GPT2Config(
                vocab_size=135, block_size=32, dim=16, n_layers=1, n_heads=2,
                dropout=0.0,
            ),
            seed=0,
        )
        model._fitted = True  # fitted but with an empty S_p
        with pytest.raises(ValueError, match="pattern distribution"):
            OrderedGenerator.for_patterns(model)


def _write_heap_format_journal(path, gen: OrderedGenerator, n: int) -> None:
    """An ordered journal as the heap-based enumerator wrote it: a header
    without ``snapshot_format`` and a ``heap`` list of node tuples."""
    journal = RunJournal.create(
        path,
        {
            "kind": "ordered",
            "n": n,
            "beam_width": gen.config.beam_width,
            "max_frontier": gen.config.max_frontier,
            "prompts": prompts_digest(gen.prompts),
        },
    )
    journal.record(
        "frontier",
        0,
        {
            "round": 4,
            "emitted": [],
            "heap": [[1.25, 7, 0, [12, 40], False], [2.5, 3, 1, [9], False]],
            "seq": 8,
            "stats": OrderedStats(rounds=4, snapshots=1).as_dict(),
        },
    )
    journal.close()


def _traced_peak(run):
    """``run()``'s result and the peak bytes traced while it ran
    (tracemalloc sees numpy's buffers too)."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestJournaling:
    UNCONDITIONAL = OrderedConfig(
        beam_width=16, max_chars=2, max_frontier=200_000, snapshot_every=1
    )

    @pytest.mark.parametrize("crash_after", [1, 3])
    def test_unconditional_crash_resume_byte_identical(
        self, tiny_model, tmp_path, monkeypatch, crash_after
    ):
        """<EOS> children keep their parent's chars, so a snapshot holds
        complete nodes shorter than the chars matrix; resume must still
        splice back into the uninterrupted stream."""

        def run(**kwargs):
            gen = OrderedGenerator.unconditional(tiny_model, config=self.UNCONDITIONAL)
            return gen.generate_scored(60, **kwargs)

        clean = run()
        journal = tmp_path / "run.jsonl"
        monkeypatch.setenv(faults.FAULT_ENV, f"crash:frontier:{crash_after}")
        faults.reset()
        with pytest.raises(InjectedFault):
            run(journal=journal)
        monkeypatch.delenv(faults.FAULT_ENV)
        faults.reset()
        assert len(journal.read_text().splitlines()) == 1 + crash_after
        assert run(journal=journal, resume=True) == clean

    def _crash_and_resume(self, tiny_model, journal, monkeypatch, crashed_stats=None):
        """Crash a pruning campaign at its third snapshot, then resume it;
        ``crashed_stats`` replaces the journaled stats dict."""
        monkeypatch.setenv(faults.FAULT_ENV, "crash:frontier:3")
        faults.reset()
        with monkeypatch.context() as patch:
            if crashed_stats is not None:
                patch.setattr(OrderedStats, "as_dict", crashed_stats)
            with pytest.raises(InjectedFault):
                OrderedGenerator.for_patterns(tiny_model, config=PRUNING).generate(
                    80, journal=journal
                )
        monkeypatch.delenv(faults.FAULT_ENV)
        faults.reset()
        gen = OrderedGenerator.for_patterns(tiny_model, config=PRUNING)
        stream = gen.generate(80, journal=journal, resume=True)
        return stream, gen.stats

    def test_resume_reports_the_same_stats(self, tiny_model, tmp_path, monkeypatch):
        """Every counter a resumed run reports, the snapshot count
        included, equals the uninterrupted journaled run's."""
        clean = OrderedGenerator.for_patterns(tiny_model, config=PRUNING)
        stream = clean.generate(80, journal=tmp_path / "clean.jsonl")
        resumed, stats = self._crash_and_resume(tiny_model, tmp_path / "run.jsonl", monkeypatch)
        assert resumed == stream
        assert stats == clean.stats

    def test_journaled_run_holds_no_copy_of_its_journal(self, tiny_model, tmp_path):
        journal = tmp_path / "run.jsonl"
        gen = OrderedGenerator.for_patterns(tiny_model, WIDE_PATTERNS, config=WIDE)
        _, peak = _traced_peak(lambda: gen.generate(40, journal=journal))
        assert peak < journal.stat().st_size / 10

    def test_resume_holds_no_copy_of_its_journal(self, tiny_model, tmp_path, monkeypatch):
        """A resume streams the journal: it keeps the latest snapshot,
        not every snapshot it replays."""

        def gen():
            return OrderedGenerator.for_patterns(tiny_model, WIDE_PATTERNS, config=WIDE)

        clean = gen().generate(40)
        journal = tmp_path / "run.jsonl"
        monkeypatch.setenv(faults.FAULT_ENV, "crash:frontier:60")
        faults.reset()
        with pytest.raises(InjectedFault):
            gen().generate(40, journal=journal)
        monkeypatch.delenv(faults.FAULT_ENV)
        faults.reset()
        resumed, peak = _traced_peak(lambda: gen().generate(40, journal=journal, resume=True))
        assert resumed == clean
        assert peak < journal.stat().st_size / 10

    def test_resume_reports_the_same_exact_prefix(self, tiny_model, tmp_path, monkeypatch):
        clean = OrderedGenerator.for_patterns(tiny_model, config=PRUNING)
        stream = clean.generate(80)
        resumed, stats = self._crash_and_resume(tiny_model, tmp_path / "run.jsonl", monkeypatch)
        assert resumed == stream
        assert stats.truncated_nodes == clean.stats.truncated_nodes
        assert stats.truncated_best_neg == clean.stats.truncated_best_neg
        assert stats.exact_prefix == clean.stats.exact_prefix > 0

    def test_snapshot_without_best_dropped_score_reports_zero(
        self, tiny_model, tmp_path, monkeypatch
    ):
        """Snapshots journaled before the best pruned score was tracked
        show truncation but cannot bound it: nothing counts as exact."""

        def old_layout(stats):
            data = asdict(stats)
            del data["truncated_best_neg"], data["exact_prefix"]
            return data

        _, stats = self._crash_and_resume(
            tiny_model, tmp_path / "run.jsonl", monkeypatch, crashed_stats=old_layout
        )
        assert stats.truncated_nodes > 0
        assert stats.exact_prefix == 0
        restored = OrderedStats.from_dict(old_layout(OrderedStats(emitted=5)))
        assert restored.count_exact([("pw", -1.0)] * 5) == 5  # nothing pruned: all exact

    def test_heap_format_journal_is_refused(self, tiny_model, tmp_path):
        gen = OrderedGenerator.for_patterns(tiny_model)
        journal = tmp_path / "old.jsonl"
        _write_heap_format_journal(journal, gen, 10)
        with pytest.raises(JournalError, match="snapshot_format"):
            gen.generate(10, journal=journal, resume=True)

    def test_cli_resume_of_heap_format_journal_exits_2(
        self, tiny_model, tmp_path, capsys
    ):
        checkpoint = tmp_path / "model.npz"
        tiny_model.save(checkpoint)
        gen = OrderedGenerator.for_patterns(
            PagPassGPT.load(checkpoint),
            config=OrderedConfig(beam_width=16, max_frontier=2000),
        )
        journal = tmp_path / "old.jsonl"
        _write_heap_format_journal(journal, gen, 10)
        code = main([
            "generate", "--checkpoint", str(checkpoint), "-n", "10",
            "--strategy", "ordered", "--beam-width", "16",
            "--max-frontier", "2000", "--journal", str(journal), "--resume",
            "--out", str(tmp_path / "out.txt"),
        ])
        assert code == EXIT_CORRUPT
        assert "snapshot_format" in capsys.readouterr().err
