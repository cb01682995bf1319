"""Dataloader and trainer tests, including crash-safe resume."""

import numpy as np
import pytest

from repro.nn import CheckpointError, GPT2Config, GPT2Model
from repro.runtime import FAULT_ENV, InjectedFault, RunJournal, corrupt_file
from repro.training import (
    BatchLoader,
    TrainConfig,
    Trainer,
    load_training_state,
    save_training_state,
)


class TestBatchLoader:
    def test_covers_all_rows(self):
        ids = np.arange(25).reshape(25, 1)
        loader = BatchLoader(ids, batch_size=4, shuffle=True, seed=0)
        seen = np.concatenate(list(loader)).ravel()
        assert sorted(seen) == list(range(25))

    def test_batch_count(self):
        loader = BatchLoader(np.zeros((25, 3)), batch_size=4)
        assert len(loader) == 7

    def test_no_shuffle_preserves_order(self):
        ids = np.arange(10).reshape(10, 1)
        loader = BatchLoader(ids, batch_size=3, shuffle=False)
        first = next(iter(loader))
        assert list(first.ravel()) == [0, 1, 2]

    def test_epochs_reshuffle(self):
        ids = np.arange(50).reshape(50, 1)
        loader = BatchLoader(ids, batch_size=50, shuffle=True, seed=0)
        e1 = next(iter(loader)).ravel().tolist()
        e2 = next(iter(loader)).ravel().tolist()
        assert e1 != e2

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchLoader(np.zeros(5), batch_size=2)
        with pytest.raises(ValueError):
            BatchLoader(np.zeros((5, 2)), batch_size=0)


@pytest.fixture(scope="module")
def toy_ids():
    """Sequences with strong structure the model can learn quickly."""
    rng = np.random.default_rng(0)
    base = np.tile(np.arange(8), (64, 1))  # always 0 1 2 3 4 5 6 7
    return base + rng.integers(0, 2, size=(64, 1))  # two variants


class TestTrainer:
    def test_loss_decreases(self, toy_ids):
        model = GPT2Model(
            GPT2Config(vocab_size=10, block_size=8, dim=16, n_layers=1, n_heads=2, dropout=0.0)
        )
        trainer = Trainer(model, pad_id=9, config=TrainConfig(epochs=8, batch_size=16, lr=3e-3))
        history = trainer.fit(toy_ids)
        assert history.train_loss[-1] < history.train_loss[0] * 0.75

    def test_validation_tracked(self, toy_ids):
        model = GPT2Model(
            GPT2Config(vocab_size=10, block_size=8, dim=16, n_layers=1, n_heads=2, dropout=0.0)
        )
        trainer = Trainer(model, pad_id=9, config=TrainConfig(epochs=3, batch_size=16, lr=3e-3))
        history = trainer.fit(toy_ids[:48], val_ids=toy_ids[48:])
        assert len(history.val_loss) == 3
        assert history.best_epoch >= 0
        assert history.best_val_loss == min(history.val_loss)

    def test_early_stopping(self, toy_ids):
        model = GPT2Model(
            GPT2Config(vocab_size=10, block_size=8, dim=16, n_layers=1, n_heads=2, dropout=0.0)
        )
        # lr=0 -> no improvement -> stops after patience epochs.
        trainer = Trainer(
            model,
            pad_id=9,
            config=TrainConfig(epochs=10, batch_size=16, lr=0.0, early_stop_patience=2),
        )
        history = trainer.fit(toy_ids[:48], val_ids=toy_ids[48:])
        assert history.stopped_early
        assert len(history.val_loss) < 10

    def test_evaluate_requires_data(self, toy_ids):
        model = GPT2Model(
            GPT2Config(vocab_size=10, block_size=8, dim=16, n_layers=1, n_heads=2, dropout=0.0)
        )
        trainer = Trainer(model, pad_id=9)
        with pytest.raises(ValueError):
            trainer.evaluate(np.zeros((0, 8), dtype=np.int64))

    def test_model_left_in_eval_mode(self, toy_ids):
        model = GPT2Model(
            GPT2Config(vocab_size=10, block_size=8, dim=16, n_layers=1, n_heads=2, dropout=0.1)
        )
        trainer = Trainer(model, pad_id=9, config=TrainConfig(epochs=1, batch_size=16))
        trainer.fit(toy_ids)
        assert not model.training

    def test_log_fn_called(self, toy_ids):
        messages = []
        model = GPT2Model(
            GPT2Config(vocab_size=10, block_size=8, dim=16, n_layers=1, n_heads=2, dropout=0.0)
        )
        trainer = Trainer(
            model, pad_id=9, config=TrainConfig(epochs=2, batch_size=32), log_fn=messages.append
        )
        trainer.fit(toy_ids)
        assert len(messages) == 2


def _make_trainer(config, seed=0, dropout=0.1, log_fn=None):
    model = GPT2Model(
        GPT2Config(vocab_size=10, block_size=8, dim=16, n_layers=1, n_heads=2, dropout=dropout),
        seed=seed,
    )
    return model, Trainer(model, pad_id=9, config=config, log_fn=log_fn)


def _params(model):
    return {name: p.data.copy() for name, p in model.named_parameters()}


class TestEarlyStopBestRestore:
    def test_best_weights_restored_on_early_stop(self, toy_ids):
        """A scripted val curve: improves twice, then degrades forever."""
        config = TrainConfig(epochs=10, batch_size=16, lr=3e-3, early_stop_patience=2)
        model, trainer = _make_trainer(config, dropout=0.0)

        snapshots = []
        script = iter([3.0, 2.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0])

        def fake_evaluate(ids, batch_size=None):
            snapshots.append(_params(model))
            return next(script)

        trainer.evaluate = fake_evaluate
        messages = []
        trainer.log_fn = messages.append
        history = trainer.fit(toy_ids[:48], val_ids=toy_ids[48:])

        assert history.stopped_early
        assert history.restored_best
        assert history.best_epoch == 1
        # Live weights equal the epoch-1 snapshot, not the last epoch's.
        for name, value in _params(model).items():
            assert np.array_equal(value, snapshots[1][name])
        assert any("restored best epoch 1" in m for m in messages)

    def test_no_restore_when_run_completes(self, toy_ids):
        config = TrainConfig(epochs=3, batch_size=16, lr=3e-3, early_stop_patience=5)
        model, trainer = _make_trainer(config, dropout=0.0)
        history = trainer.fit(toy_ids[:48], val_ids=toy_ids[48:])
        assert not history.stopped_early
        assert not history.restored_best


class TestTrainingStateRoundtrip:
    def test_state_file_roundtrip(self, toy_ids, tmp_path):
        config = TrainConfig(epochs=3, batch_size=16, lr=3e-3, seed=5)
        model, trainer = _make_trainer(config)
        path = tmp_path / "state.npz"
        trainer.fit(toy_ids[:48], val_ids=toy_ids[48:], checkpoint_path=path)
        arrays, meta = load_training_state(path)
        assert meta["epoch"] == 3
        assert set(arrays["model"]) == {n for n, _ in model.named_parameters()}
        assert len(arrays["optim_m"]) == len(list(model.parameters()))

    def test_corrupt_state_raises_checkpoint_error(self, toy_ids, tmp_path):
        config = TrainConfig(epochs=1, batch_size=16)
        _, trainer = _make_trainer(config)
        path = tmp_path / "state.npz"
        trainer.fit(toy_ids, checkpoint_path=path)
        corrupt_file(path)
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_training_state(path)

    def test_wrong_kind_raises(self, tmp_path):
        from repro.nn import save_checkpoint

        config = TrainConfig(epochs=1)
        model, _ = _make_trainer(config)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, meta={"kind": "PagPassGPT"})
        with pytest.raises(CheckpointError, match="not a training state"):
            load_training_state(path)

    def test_resume_config_mismatch_raises(self, toy_ids, tmp_path):
        path = tmp_path / "state.npz"
        _, trainer = _make_trainer(TrainConfig(epochs=2, batch_size=16))
        trainer.fit(toy_ids, checkpoint_path=path)
        _, other = _make_trainer(TrainConfig(epochs=7, batch_size=16))
        with pytest.raises(CheckpointError, match="total_steps"):
            other.fit(toy_ids, resume_from=path)


class TestCrashResume:
    CONFIG = dict(epochs=5, batch_size=16, lr=3e-3, seed=3)

    def test_interrupted_training_resumes_bit_identically(self, toy_ids, tmp_path, monkeypatch):
        """crash after 3 epochs -> resume -> same weights and losses."""
        train, val = toy_ids[:48], toy_ids[48:]

        # Uninterrupted reference run (dropout on: rng state must survive).
        ref_model, ref_trainer = _make_trainer(TrainConfig(**self.CONFIG), dropout=0.1)
        ref_history = ref_trainer.fit(train, val_ids=val)

        path = tmp_path / "state.npz"
        crash_model, crash_trainer = _make_trainer(TrainConfig(**self.CONFIG), dropout=0.1)
        monkeypatch.setenv(FAULT_ENV, "crash:epoch:3")
        with pytest.raises(InjectedFault):
            crash_trainer.fit(train, val_ids=val, checkpoint_path=path)
        monkeypatch.delenv(FAULT_ENV)

        _, meta = load_training_state(path)
        assert meta["epoch"] == 3  # the crashed epoch was not checkpointed

        resume_model, resume_trainer = _make_trainer(TrainConfig(**self.CONFIG), dropout=0.1)
        history = resume_trainer.fit(
            train, val_ids=val, checkpoint_path=path, resume_from=path
        )

        assert history.train_loss == pytest.approx(ref_history.train_loss, abs=1e-12)
        assert history.val_loss == pytest.approx(ref_history.val_loss, abs=1e-12)
        ref = _params(ref_model)
        for name, value in _params(resume_model).items():
            assert np.array_equal(value, ref[name]), f"weight drift in {name}"

    def test_compressed_state_still_resumes(self, toy_ids, tmp_path, monkeypatch):
        """State files are written uncompressed now; one written
        compressed, as earlier versions wrote it, resumes the same."""
        import zipfile

        train, val = toy_ids[:48], toy_ids[48:]
        ref_model, ref_trainer = _make_trainer(TrainConfig(**self.CONFIG), dropout=0.1)
        ref_history = ref_trainer.fit(train, val_ids=val)

        path = tmp_path / "state.npz"
        _, crash_trainer = _make_trainer(TrainConfig(**self.CONFIG), dropout=0.1)
        monkeypatch.setenv(FAULT_ENV, "crash:epoch:2")
        with pytest.raises(InjectedFault):
            crash_trainer.fit(train, val_ids=val, checkpoint_path=path)
        monkeypatch.delenv(FAULT_ENV)
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path) as data:
            members = {key: data[key] for key in data.files}
        np.savez_compressed(path, **members)
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}

        resume_model, resume_trainer = _make_trainer(TrainConfig(**self.CONFIG), dropout=0.1)
        history = resume_trainer.fit(train, val_ids=val, checkpoint_path=path, resume_from=path)
        assert history.train_loss == ref_history.train_loss
        assert history.val_loss == ref_history.val_loss
        ref = _params(ref_model)
        for name, value in _params(resume_model).items():
            assert np.array_equal(value, ref[name]), f"weight drift in {name}"

    def test_journal_records_epochs(self, toy_ids, tmp_path):
        path = tmp_path / "state.npz"
        journal_path = tmp_path / "train.journal.jsonl"
        _, trainer = _make_trainer(TrainConfig(epochs=2, batch_size=16))
        journal = RunJournal.create(journal_path, {"kind": "train"})
        trainer.fit(toy_ids, checkpoint_path=path, journal=journal)
        journal.close()
        reopened = RunJournal.open(journal_path)
        done = reopened.completed("epoch")
        assert set(done) == {0, 1}
        assert done[1]["checkpoint_digest"]
        reopened.close()


class TestGoldenTraining:
    """The committed per-epoch losses and final weights of the
    ``tests/goldens.py`` training runs are reproduced to the bit: faster
    autograd nodes must not move a single float."""

    @pytest.fixture(scope="class")
    def golden(self):
        import json

        from tests.goldens import TRAINING_PATH

        return json.loads(TRAINING_PATH.read_text())

    def test_spec_is_current(self, golden):
        from tests.goldens import TRAINING_SPEC

        assert golden["spec"] == TRAINING_SPEC

    @pytest.mark.parametrize("key", ["PagPassGPT", "PassGPT", "PagPassGPT-dim40"])
    def test_run_matches_fixture(self, golden, key):
        from tests.goldens import train_run

        assert train_run(key) == golden["runs"][key]
