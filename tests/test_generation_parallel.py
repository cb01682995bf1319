"""Equivalence harness for the parallel D&C-GEN backend.

The contract under test (ISSUE 1): for a fixed seed the multiprocess
backend yields the *identical* guess stream (hence identical multiset)
and identical :class:`DCGenStats` as the serial path for any worker
count; no leaf task's rows are ever executed twice; and a worker crash
degrades gracefully to the runner's serial path with a warning.

These run against an *untrained* PagPassGPT: equivalence must hold for
any next-token distribution, so training is unnecessary.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generation import (
    DCGenConfig,
    DCGenerator,
    LeafTask,
    build_batches,
    free_chunks,
)
from repro.generation.dcgen import execute_batch
from repro.generation.parallel import run_pool
from repro.models import PagPassGPT, PassGPT
from repro.models.pagpassgpt import execute_free_chunk
from repro import telemetry
from repro.nn import GPT2Config
from repro.runtime import (
    FAULT_ENV,
    FAULT_STATE_ENV,
    Budget,
    CampaignInterrupted,
    InjectedFault,
    RunJournal,
)
from repro.runtime.retry import TASK_TIMEOUT_ENV


@pytest.fixture(scope="module")
def model():
    m = PagPassGPT(
        model_config=GPT2Config(
            vocab_size=135, block_size=32, dim=32, n_layers=1, n_heads=2, dropout=0.0
        ),
        seed=0,
    )
    # Mark fitted with a hand-made pattern distribution; weights stay random.
    m._fitted = True
    m.pattern_probs = {"L4N2": 0.5, "N6": 0.3, "L3S1N2": 0.2}
    return m


def run(model, total=1200, seed=7, **config_kwargs):
    gen = DCGenerator(model, DCGenConfig(threshold=32, **config_kwargs))
    out = gen.generate(total, seed=seed)
    return out, gen.stats


def pooled(model, tasks, execute, seed, **kwargs):
    """``run_pool``'s delivered results in task order, and the tasks it
    handed back."""
    delivered = {}
    handed_back = run_pool(model, tasks, execute, seed, on_result=delivered.__setitem__,
                           **kwargs)
    return [delivered[i] for i in sorted(delivered)], handed_back


# ----------------------------------------------------------------------
# Serial/parallel equivalence
# ----------------------------------------------------------------------

class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identical_guess_stream_and_stats(self, model, workers):
        serial_out, serial_stats = run(model)
        parallel_out, parallel_stats = run(model, workers=workers)
        # Identical ordered stream — strictly stronger than the required
        # multiset equality, but assert both so a future relaxation of
        # the ordering guarantee keeps the contract visible.
        assert parallel_out == serial_out
        assert Counter(parallel_out) == Counter(serial_out)
        assert parallel_stats == serial_stats

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_equivalence_across_seeds(self, model, seed):
        assert run(model, seed=seed, workers=2) == run(model, seed=seed)

    def test_equivalence_with_single_pattern_deep_division(self, model):
        """Threshold 1 forces full division (many tiny leaves)."""
        serial = DCGenerator(model, DCGenConfig(threshold=1))
        parallel = DCGenerator(model, DCGenConfig(threshold=1, workers=2))
        probs = {"N4": 1.0}
        assert parallel.generate(300, pattern_probs=probs, seed=3) == serial.generate(
            300, pattern_probs=probs, seed=3
        )
        assert parallel.stats == serial.stats

    def test_pagpassgpt_dc_wiring(self, model):
        """workers flows from DCGenConfig through the model adapter."""
        from repro.models import PagPassGPTDC

        serial = PagPassGPTDC(model, DCGenConfig(threshold=32))
        parallel = PagPassGPTDC(model, DCGenConfig(threshold=32, workers=2))
        assert parallel.generate(500, seed=5) == serial.generate(500, seed=5)

    def test_free_generation_parallel_matches_serial(self, model):
        # > GEN_BATCH so the stream spans several chunks.
        serial = model.generate(1200, seed=11)
        for workers in (2, 4):
            assert model.generate(1200, seed=11, workers=workers) == serial

    def test_spawn_backend_matches_serial(self, model):
        """The explicit weight-blob path (non-fork start methods), for a
        PagPassGPT D&C-GEN plan and a PassGPT free campaign: each worker
        reloads the model kind it was handed."""
        gen = DCGenerator(model, DCGenConfig(threshold=32))
        batches = build_batches(gen.plan(300), gen.config.gen_batch)
        passgpt = PassGPT(model_config=model.model_config, seed=1)
        passgpt._fitted = True
        for owner, tasks, execute in (
            (model, batches, execute_batch),
            (passgpt, free_chunks(1200), execute_free_chunk),
        ):
            serial = [execute(owner, task, 7) for task in tasks]
            spawned = pooled(owner, tasks, execute, 7, workers=2, start_method="spawn")
            assert spawned == (serial, {})


# ----------------------------------------------------------------------
# No leaf task executed twice
# ----------------------------------------------------------------------

def _coverage(batches):
    """task_id -> sorted list of (row_start, row_stop) executed."""
    cover: dict[int, list[tuple[int, int]]] = {}
    for batch in batches:
        for leaf, start, stop in batch.slices:
            cover.setdefault(leaf.task_id, []).append((start, stop))
    return {tid: sorted(spans) for tid, spans in cover.items()}


def _assert_exact_cover(leaves, batches):
    cover = _coverage(batches)
    assert set(cover) == {leaf.task_id for leaf in leaves}
    by_id = {leaf.task_id: leaf for leaf in leaves}
    for tid, spans in cover.items():
        # Spans tile [0, rows) with no gap and no overlap: every row of
        # every leaf is executed exactly once.
        cursor = 0
        for start, stop in spans:
            assert start == cursor, f"leaf {tid}: gap or overlap at row {start}"
            assert stop > start
            cursor = stop
        assert cursor == by_id[tid].rows


_GROUPS = [("L4N2", 0), ("L4N2", 2), ("N6", 0)]


class TestNoDoubleExecution:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.lists(
            st.tuples(st.integers(1, 50), st.integers(0, len(_GROUPS) - 1)),
            min_size=1,
            max_size=40,
        ),
        gen_batch=st.integers(1, 64),
    )
    def test_batches_cover_each_leaf_exactly_once(self, spec, gen_batch):
        leaves = []
        for i, (rows, group) in enumerate(spec):
            pattern, done = _GROUPS[group]
            leaves.append(
                LeafTask(
                    task_id=i,
                    pattern=pattern,
                    prefix=np.arange(3 + done, dtype=np.int64),
                    count=float(rows),
                    rows=rows,
                    done_chars=done,
                    prompt_len=3,
                )
            )
        batches = build_batches(leaves, gen_batch)
        _assert_exact_cover(leaves, batches)
        for batch in batches:
            # Batches respect the width cap and never mix decode shapes.
            assert batch.rows <= gen_batch
            keys = {(leaf.pattern, leaf.done_chars) for leaf, _, _ in batch.slices}
            assert len(keys) == 1

    @pytest.mark.parametrize("threshold,total", [(1, 200), (16, 800), (64, 2500)])
    def test_real_plans_cover_each_leaf_exactly_once(self, model, threshold, total):
        gen = DCGenerator(model, DCGenConfig(threshold=threshold))
        leaves = gen.plan(total)
        batches = build_batches(leaves, gen.config.gen_batch)
        _assert_exact_cover(leaves, batches)

    def test_leaf_ids_are_canonical_positions(self, model):
        gen = DCGenerator(model, DCGenConfig(threshold=16))
        leaves = gen.plan(900)
        assert [leaf.task_id for leaf in leaves] == list(range(len(leaves)))

    def test_free_chunks_partition(self):
        for n in (1, 511, 512, 513, 1700):
            chunks = free_chunks(n)
            assert sum(rows for _, rows in chunks) == n
            assert [i for i, _ in chunks] == list(range(len(chunks)))


# ----------------------------------------------------------------------
# Worker crash -> graceful serial fallback
# ----------------------------------------------------------------------

class TestCrashFallback:
    @pytest.fixture(autouse=True)
    def _every_worker_task_crashes(self, monkeypatch):
        # No count and no state dir: every pool task fails on every
        # attempt, while serial runs (and the runner's serial path)
        # never reach the site.
        monkeypatch.setenv(FAULT_ENV, "crash:worker")
        monkeypatch.delenv(FAULT_STATE_ENV, raising=False)

    @staticmethod
    def _assert_fallbacks_accounted(directory, n_tasks):
        summary = telemetry.summarize_campaign(directory)
        assert telemetry.check_summary(summary) == []
        assert summary["faults"]["serial_fallbacks"] == n_tasks

    def test_dcgen_falls_back_to_serial_with_warning(self, model, tmp_path):
        serial_out, serial_stats = run(model, total=600)
        gen = DCGenerator(model, DCGenConfig(threshold=32, workers=2))
        n_tasks = len(build_batches(gen.plan(600), gen.config.gen_batch))
        with telemetry.session(tmp_path, run_id="fallback"):
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                out = gen.generate(600, seed=7)
        assert out == serial_out
        assert gen.stats == serial_stats
        self._assert_fallbacks_accounted(tmp_path, n_tasks)

    def test_free_generation_falls_back_with_warning(self, model, tmp_path):
        serial = model.generate(1100, seed=2)
        with telemetry.session(tmp_path, run_id="fallback"):
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                out = model.generate(1100, seed=2, workers=2)
        assert out == serial
        self._assert_fallbacks_accounted(tmp_path, len(free_chunks(1100)))

    def test_stop_checked_before_serial_fallback(self, model, tmp_path):
        """A budget below the total stops the runner's serial path after
        its first handed-back task, which is journaled first."""
        journal_path = tmp_path / "run.journal.jsonl"
        gen = DCGenerator(model, DCGenConfig(threshold=32, workers=2))
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            with pytest.raises(CampaignInterrupted):
                gen.generate(600, seed=7, journal=journal_path, budget=Budget(max_guesses=1))
        journal = RunJournal.open(journal_path)
        assert sorted(journal.completed("leaf_batch")) == [0]
        journal.close()


# ----------------------------------------------------------------------
# Empty-input guards
# ----------------------------------------------------------------------

class TestEmptyInputs:
    def test_run_pool_empty(self, model):
        assert pooled(model, [], execute_batch, 7, workers=2) == ([], {})

    def test_run_pool_zero_free_chunks(self, model):
        for n in (0, -5):
            assert pooled(model, free_chunks(n), execute_free_chunk, 7, workers=2) == ([], {})

    def test_model_generate_zero(self, model):
        assert model.generate(0, seed=1, workers=2) == []

    def test_dcgen_zero_total(self, model):
        gen = DCGenerator(model, DCGenConfig(threshold=32, workers=2))
        assert gen.generate(0, seed=1) == []


# ----------------------------------------------------------------------
# Per-task retry: one bad shard never costs the others (ISSUE 2)
# ----------------------------------------------------------------------

class TestPerTaskRetry:
    def test_single_worker_failure_retries_only_failed_shard(
        self, model, tmp_path, monkeypatch, recwarn
    ):
        gen = DCGenerator(model, DCGenConfig(threshold=32))
        batches = build_batches(gen.plan(1200), gen.config.gen_batch)
        assert len(batches) > 2
        serial = [execute_batch(model, b, 7) for b in batches]

        # One-shot crash of the worker running task 1: its retry succeeds.
        monkeypatch.setenv(FAULT_ENV, "crash:worker:1")
        monkeypatch.setenv(FAULT_STATE_ENV, str(tmp_path))
        out, handed_back = pooled(model, batches, execute_batch, 7, workers=2)

        assert out == serial
        assert handed_back == {}
        # No degradation to the serial-fallback path...
        assert not [w for w in recwarn if "falling back" in str(w.message)]
        # ...and exactly one extra execution: the failed shard's retry.
        calls = (tmp_path / "calls.log").read_text().splitlines()
        worker_calls = [c for c in calls if c.startswith("worker:")]
        assert len(worker_calls) == len(batches) + 1
        assert worker_calls.count("worker:1") == 2

    def test_hung_worker_is_killed_and_task_retried(self, model, tmp_path, monkeypatch):
        gen = DCGenerator(model, DCGenConfig(threshold=32))
        batches = build_batches(gen.plan(600), gen.config.gen_batch)
        serial = [execute_batch(model, b, 7) for b in batches]

        monkeypatch.setenv(FAULT_ENV, "hang:worker:0")
        monkeypatch.setenv(FAULT_STATE_ENV, str(tmp_path))
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "3.0")
        assert pooled(model, batches, execute_batch, 7, workers=2) == (serial, {})


# ----------------------------------------------------------------------
# Journaled crash -> resume, byte-identical stream (ISSUE 2 tentpole)
# ----------------------------------------------------------------------

class TestJournalResume:
    TOTAL = 1200

    def _clean(self, model):
        return run(model, total=self.TOTAL)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dcgen_crash_then_resume_is_byte_identical(
        self, model, tmp_path, monkeypatch, workers
    ):
        clean_out, clean_stats = self._clean(model)
        journal_path = tmp_path / "run.journal.jsonl"

        monkeypatch.setenv(FAULT_ENV, "crash:leaf_batch:3")
        gen = DCGenerator(model, DCGenConfig(threshold=32, workers=workers))
        with pytest.raises(InjectedFault):
            gen.generate(self.TOTAL, seed=7, journal=journal_path)

        # Exactly the 3 pre-crash batches are journaled and survive.
        journal = RunJournal.open(journal_path)
        assert len(journal.completed("leaf_batch")) == 3
        journal.close()

        monkeypatch.delenv(FAULT_ENV)
        resumed = DCGenerator(model, DCGenConfig(threshold=32, workers=workers))
        out = resumed.generate(self.TOTAL, seed=7, journal=journal_path, resume=True)
        assert out == clean_out
        assert resumed.stats == clean_stats

    def test_resume_with_different_run_identity_rejected(self, model, tmp_path, monkeypatch):
        journal_path = tmp_path / "run.journal.jsonl"
        monkeypatch.setenv(FAULT_ENV, "crash:leaf_batch:2")
        gen = DCGenerator(model, DCGenConfig(threshold=32))
        with pytest.raises(InjectedFault):
            gen.generate(self.TOTAL, seed=7, journal=journal_path)
        monkeypatch.delenv(FAULT_ENV)

        from repro.runtime import JournalError

        with pytest.raises(JournalError, match="belongs to a different run"):
            gen.generate(self.TOTAL, seed=8, journal=journal_path, resume=True)

    def test_free_generation_crash_then_resume(self, model, tmp_path, monkeypatch):
        clean = model.generate(1200, seed=11)  # 3 chunks of GEN_BATCH=512
        journal_path = tmp_path / "free.journal.jsonl"

        monkeypatch.setenv(FAULT_ENV, "crash:free_chunk:1")
        with pytest.raises(InjectedFault):
            model.generate(1200, seed=11, journal=journal_path)

        journal = RunJournal.open(journal_path)
        assert len(journal.completed("free_chunk")) == 1
        journal.close()

        monkeypatch.delenv(FAULT_ENV)
        assert model.generate(1200, seed=11, journal=journal_path, resume=True) == clean

    def test_journal_on_clean_run_is_harmless(self, model, tmp_path):
        clean_out, _ = self._clean(model)
        journal_path = tmp_path / "run.journal.jsonl"
        gen = DCGenerator(model, DCGenConfig(threshold=32))
        assert gen.generate(self.TOTAL, seed=7, journal=journal_path) == clean_out
        assert journal_path.exists()  # caller decides when to discard
