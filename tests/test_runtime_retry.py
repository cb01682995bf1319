"""Supervised pool map and its fixed retry policy (tested with in-process fakes)."""

import multiprocessing as mp

import pytest

from repro.runtime import supervised_map
from repro.runtime.retry import TASK_TIMEOUT_ENV, backoff, task_timeout


class TestRetryPolicy:
    """The fixed policy: two resubmissions with capped exponential
    backoff, and a hang watchdog that only ``REPRO_TASK_TIMEOUT`` arms."""

    def test_backoff_grows_and_caps(self):
        assert backoff(1) == pytest.approx(0.05)
        assert backoff(2) == pytest.approx(0.1)
        assert backoff(3) == pytest.approx(0.2)
        assert backoff(6) == pytest.approx(1.6)
        assert backoff(7) == pytest.approx(2.0)  # capped
        assert backoff(50) == pytest.approx(2.0)

    def test_task_timeout_unset_means_no_watchdog(self, monkeypatch):
        monkeypatch.delenv(TASK_TIMEOUT_ENV, raising=False)
        assert task_timeout() is None

    def test_task_timeout_env_fallback(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "1.5")
        assert task_timeout() == 1.5

    def test_task_timeout_env_bad_value(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "eventually")
        with pytest.raises(ValueError, match=TASK_TIMEOUT_ENV):
            task_timeout()

    def test_task_timeout_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "0")
        assert task_timeout() is None

    @pytest.mark.parametrize("value", ["", "   "])
    def test_task_timeout_env_blank_is_ignored(self, monkeypatch, value):
        monkeypatch.setenv(TASK_TIMEOUT_ENV, value)
        assert task_timeout() is None

    @pytest.mark.parametrize("value", ["-1", "-0.5", "inf", "nan"])
    def test_task_timeout_env_rejects_non_finite_or_negative(
        self, monkeypatch, value
    ):
        monkeypatch.setenv(TASK_TIMEOUT_ENV, value)
        with pytest.raises(ValueError, match=TASK_TIMEOUT_ENV):
            task_timeout()

    def test_bad_task_timeout_raises_from_supervised_map(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "-1")
        with pytest.raises(ValueError, match=TASK_TIMEOUT_ENV):
            supervised_map(lambda: FakePool(None), lambda i: (i, True, i), 2, _ignore)


def _ignore(index, value):
    pass


class FakePool:
    """In-process stand-in for ``mp.Pool``: runs tasks eagerly, in order."""

    def __init__(self, log):
        self.log = log
        self.terminated = False

    def imap_unordered(self, fn, indices):
        return _FakeStream([fn(i) for i in indices])

    def terminate(self):
        self.terminated = True

    def join(self):
        pass


class _FakeStream:
    def __init__(self, items, hang_at=None):
        self._items = list(items)
        self._hang_at = hang_at
        self._pos = 0

    def __next__(self):
        if self._pos >= len(self._items):
            raise StopIteration
        item = self._items[self._pos]
        self._pos += 1
        return item

    def next(self, timeout=None):
        if self._hang_at is not None and self._pos == self._hang_at:
            self._hang_at = None
            raise mp.TimeoutError
        return self.__next__()


def _collect(delivered):
    """An ``on_result`` that records each delivered value by task index."""
    return delivered.__setitem__


class TestSupervisedMap:
    def test_all_success_ordered(self):
        pools = []
        delivered = {}
        guarded = lambda i: (i, True, i * 10)  # noqa: E731
        handed_back = supervised_map(
            lambda: pools.append(FakePool(None)) or pools[-1],
            guarded,
            4,
            _collect(delivered),
        )
        assert handed_back == {}
        assert [delivered[i] for i in range(4)] == [0, 10, 20, 30]
        assert sorted(delivered) == [0, 1, 2, 3]
        assert len(pools) == 1

    def test_transient_failure_retries_only_failed_task(self):
        attempts = {i: 0 for i in range(4)}
        delivered = {}

        def guarded(i):
            attempts[i] += 1
            if i == 2 and attempts[i] == 1:
                return (i, False, "OSError: flaky shard")
            return (i, True, i)

        assert supervised_map(lambda: FakePool(None), guarded, 4, _collect(delivered)) == {}
        assert delivered == {0: 0, 1: 1, 2: 2, 3: 3}
        assert attempts == {0: 1, 1: 1, 2: 2, 3: 1}  # only task 2 re-ran

    def test_permanent_failure_falls_back_to_serial(self, recwarn):
        """The pool hands a task that fails every attempt back with its
        last error, for the caller's serial path; it warns nothing."""
        attempts = []
        delivered = {}

        def guarded(i):
            if i == 1:
                attempts.append(i)
                return (i, False, "RuntimeError: cursed shard")
            return (i, True, i)

        handed_back = supervised_map(lambda: FakePool(None), guarded, 3, _collect(delivered))
        assert handed_back == {1: "RuntimeError: cursed shard"}
        assert delivered == {0: 0, 2: 2}  # completed tasks never re-run
        assert len(attempts) == 3  # one attempt plus two resubmissions
        assert not recwarn.list

    def test_pool_that_fails_to_start_hands_every_task_back(self):
        def factory():
            raise OSError("fork failed")

        delivered = {}
        handed_back = supervised_map(factory, lambda i: (i, True, i), 3, _collect(delivered))
        assert handed_back == {i: "OSError: fork failed" for i in range(3)}
        assert delivered == {}

    def test_pool_that_breaks_mid_stream_hands_pending_back(self):
        class BrokenStream(_FakeStream):
            def next(self, timeout=None):
                if self._pos == 1:
                    raise EOFError("result pipe closed")
                return super().next(timeout)

        class BreakingPool(FakePool):
            def imap_unordered(self, fn, indices):
                return BrokenStream([fn(i) for i in indices])

        pools = []
        delivered = {}

        def factory():
            pools.append(BreakingPool(None))
            return pools[-1]

        handed_back = supervised_map(factory, lambda i: (i, True, i), 3, _collect(delivered))
        assert delivered == {0: 0}
        assert handed_back == {1: "EOFError: result pipe closed", 2: "EOFError: result pipe closed"}
        assert len(pools) == 1 and pools[0].terminated  # not rebuilt, but reaped

    def test_on_result_error_propagates(self):
        pools = []

        def factory():
            pools.append(FakePool(None))
            return pools[-1]

        def on_result(index, value):
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            supervised_map(factory, lambda i: (i, True, i), 3, on_result)
        assert len(pools) == 1 and pools[0].terminated

    def test_hang_kills_pool_and_retries_pending(self, monkeypatch):
        pools = []
        delivered = {}

        class HangOncePool(FakePool):
            def imap_unordered(self, fn, indices):
                results = [fn(i) for i in indices]
                # First pool wedges after delivering one result.
                hang_at = 1 if len(pools) == 1 else None
                return _FakeStream(results, hang_at=hang_at)

        def factory():
            pools.append(HangOncePool(None))
            return pools[-1]

        monkeypatch.setenv(TASK_TIMEOUT_ENV, "0.01")
        handed_back = supervised_map(factory, lambda i: (i, True, i), 3, _collect(delivered))
        assert handed_back == {}
        assert delivered == {0: 0, 1: 1, 2: 2}
        assert len(pools) == 2  # wedged pool was killed and rebuilt
        assert pools[0].terminated

    def test_empty_task_list(self):
        def factory():  # pragma: no cover - must never be called
            raise AssertionError("no pool should be built for zero tasks")

        assert supervised_map(factory, lambda i: (i, True, i), 0, _ignore) == {}


class TestStopCallable:
    def test_stop_raise_interrupts_and_terminates_pool(self):
        from repro.runtime import CampaignInterrupted

        pools = []
        delivered = {}

        def factory():
            pools.append(FakePool(None))
            return pools[-1]

        def stop():
            # Trip once two results have been journaled mid-wait.
            if len(delivered) >= 2:
                raise CampaignInterrupted("deadline", {"guesses": len(delivered)})

        with pytest.raises(CampaignInterrupted):
            supervised_map(
                factory,
                lambda i: (i, True, i),
                4,
                _collect(delivered),
                stop=stop,
            )
        # Delivered results were handed over before the raise; the pool
        # was reaped on the way out (workers killed mid-task accounted).
        assert len(delivered) >= 2
        assert pools[0].terminated

    def test_benign_stop_does_not_change_results(self):
        polls = []
        delivered = {}
        handed_back = supervised_map(
            lambda: FakePool(None),
            lambda i: (i, True, i * 10),
            3,
            _collect(delivered),
            stop=lambda: polls.append(1),
        )
        assert handed_back == {}
        assert delivered == {0: 0, 1: 10, 2: 20}
        assert polls  # the stop callable was actually consulted

    def test_hang_watchdog_still_fires_with_stop(self, monkeypatch):
        """The sliced wait preserves the watchdog: a worker that stays
        wedged across every poll slice still trips it and gets its pool
        rebuilt."""
        pools = []
        delivered = {}

        class _WedgedStream(_FakeStream):
            def next(self, timeout=None):
                if self._hang_at is not None and self._pos == self._hang_at:
                    raise mp.TimeoutError  # wedged on every wait slice
                return self.__next__()

        class WedgedFirstPool(FakePool):
            def imap_unordered(self, fn, indices):
                results = [fn(i) for i in indices]
                hang_at = 1 if len(pools) == 1 else None
                return _WedgedStream(results, hang_at=hang_at)

        def factory():
            pools.append(WedgedFirstPool(None))
            return pools[-1]

        monkeypatch.setenv(TASK_TIMEOUT_ENV, "0.05")
        handed_back = supervised_map(
            factory, lambda i: (i, True, i), 3, _collect(delivered), stop=lambda: None
        )
        assert handed_back == {}
        assert delivered == {0: 0, 1: 1, 2: 2}
        assert len(pools) == 2
        assert pools[0].terminated
