"""Fault-injection hooks: directives, one-shot markers, call logging."""

import signal as _signal

import pytest

from repro.runtime import DiskFullError, faults, signals
from repro.runtime.faults import (
    FAULT_ENV,
    FAULT_STATE_ENV,
    InjectedFault,
    corrupt_file,
    maybe_corrupt,
    maybe_disk_full,
    maybe_fail,
)


class TestDirectives:
    def test_no_env_is_noop(self):
        maybe_fail("worker", 0)
        maybe_fail("epoch")

    def test_bad_directive_raises(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "explode:worker")
        with pytest.raises(ValueError, match="bad REPRO_FAULT directive"):
            maybe_fail("worker", 0)

    def test_crash_is_base_exception(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "crash:worker")
        with pytest.raises(InjectedFault):
            maybe_fail("worker", 0)
        assert not issubclass(InjectedFault, Exception)  # survives except Exception

    def test_other_site_untouched(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "crash:worker")
        maybe_fail("leaf_batch")  # different site: no fault


class TestIndexedSite:
    def test_fires_only_on_matching_index(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "crash:worker:2")
        maybe_fail("worker", 0)
        maybe_fail("worker", 1)
        with pytest.raises(InjectedFault):
            maybe_fail("worker", 2)


class TestCounterSite:
    def test_fires_after_k_clean_calls(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "crash:leaf_batch:3")
        for _ in range(3):
            maybe_fail("leaf_batch")  # calls 0..2 are clean
        with pytest.raises(InjectedFault):
            maybe_fail("leaf_batch")

    def test_reset_clears_counters(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "crash:epoch:1")
        maybe_fail("epoch")
        faults.reset()
        maybe_fail("epoch")  # counter restarted: still clean


class TestOneShotState:
    def test_second_trip_passes(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "crash:worker:1")
        monkeypatch.setenv(FAULT_STATE_ENV, str(tmp_path))
        with pytest.raises(InjectedFault):
            maybe_fail("worker", 1)
        maybe_fail("worker", 1)  # retry of the same task succeeds

    def test_calls_log_records_every_supervised_call(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_STATE_ENV, str(tmp_path))
        maybe_fail("worker", 0)
        maybe_fail("worker", 3)
        maybe_fail("epoch")
        lines = (tmp_path / "calls.log").read_text().splitlines()
        assert lines == ["worker:0", "worker:3", "epoch:"]


class TestDiskFull:
    def test_disk_full_raises_enospc(self, monkeypatch):
        import errno

        monkeypatch.setenv(FAULT_ENV, "disk_full:journal")
        with pytest.raises(DiskFullError) as info:
            maybe_disk_full("journal")
        assert info.value.errno == errno.ENOSPC
        assert isinstance(info.value, OSError)  # real ENOSPC handling applies

    def test_counter_fires_after_k_clean_calls(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "disk_full:journal:2")
        maybe_disk_full("journal")
        maybe_disk_full("journal")
        with pytest.raises(DiskFullError):
            maybe_disk_full("journal")

    def test_one_shot_state(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "disk_full:journal")
        monkeypatch.setenv(FAULT_STATE_ENV, str(tmp_path))
        with pytest.raises(DiskFullError):
            maybe_disk_full("journal")
        maybe_disk_full("journal")  # retry of the write succeeds

    def test_other_site_untouched(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "disk_full:atomic")
        maybe_disk_full("journal")


class TestSignalAction:
    def test_signal_delivers_sigterm_without_raising(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "signal:leaf_batch")
        with signals.graceful_shutdown():
            maybe_fail("leaf_batch")  # returns normally; the record still lands
            assert signals.requested() == int(_signal.SIGTERM)

    def test_signal_is_one_shot_with_state_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "signal:leaf_batch")
        monkeypatch.setenv(FAULT_STATE_ENV, str(tmp_path))
        with signals.graceful_shutdown():
            maybe_fail("leaf_batch")
            assert signals.requested() is not None
            signals.reset()
            maybe_fail("leaf_batch")  # already tripped: no second delivery
            assert signals.requested() is None


class TestHangSeconds:
    def test_hang_directive_sleeps_the_override(self, monkeypatch):
        """A hang sleeps ``HANG_SECONDS``: the module constant, with no
        environment override, so only a watchdog can cut it short."""
        import time

        monkeypatch.setenv(FAULT_ENV, "hang:worker")
        monkeypatch.setattr(faults, "HANG_SECONDS", 0.05)
        start = time.monotonic()
        maybe_fail("worker", 0)
        assert time.monotonic() - start >= 0.05


class TestCorrupt:
    def test_corrupt_file_truncates(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(b"x" * 1000)
        corrupt_file(path, keep_fraction=0.5)
        assert path.stat().st_size == 500

    def test_maybe_corrupt_with_directive(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "corrupt:checkpoint")
        path = tmp_path / "ckpt.npz"
        path.write_bytes(b"x" * 100)
        maybe_corrupt("checkpoint", path)
        assert path.stat().st_size < 100

    def test_maybe_corrupt_without_directive_is_noop(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(b"x" * 100)
        maybe_corrupt("checkpoint", path)
        assert path.stat().st_size == 100
