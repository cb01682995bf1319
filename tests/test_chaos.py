"""Chaos harness: seeded random faults, byte-identical resume invariant.

The full acceptance sweep (20+ schedules per strategy) runs via
``repro chaos``; these tests keep CI-sized shapes while exercising every
leg of the harness — schedule determinism, crash/signal/disk-full/torn
cases, and the survived-fault path.  Every case is held to the numpy
serial reference stream, so a leg on the default (compiled) backend or
on the pool checks those against it too.  The server soak's tests live
in ``tests/test_server.py``.
"""

import pytest

from repro import telemetry
from repro.cli import main
from repro.runtime.chaos import ChaosCase, build_schedule, run_case, run_chaos


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos")
    leak = root / "leak.txt"
    cleaned = root / "cleaned.txt"
    assert main(["synth", "--site", "rockyou", "--entries", "3000",
                 "--out", str(leak)]) == 0
    assert main(["clean", "--input", str(leak), "--out", str(cleaned)]) == 0
    ckpt = root / "model.npz"
    assert main(["train", "--input", str(cleaned), "--out", str(ckpt),
                 "--dim", "32", "--layers", "1", "--heads", "2",
                 "--epochs", "1", "--batch-size", "128"]) == 0
    return ckpt


class TestSchedule:
    def test_same_seed_replays_the_same_schedule(self):
        a = build_schedule(7, ["sampled", "dcgen", "ordered"], [1, 2], 3)
        b = build_schedule(7, ["sampled", "dcgen", "ordered"], [1, 2], 3)
        assert a == b

    def test_different_seed_differs(self):
        a = build_schedule(7, ["sampled", "dcgen"], [1, 2], 4)
        b = build_schedule(8, ["sampled", "dcgen"], [1, 2], 4)
        assert a != b

    def test_ordered_is_serial_only(self):
        cases = build_schedule(0, ["ordered"], [1, 2], 2)
        assert cases and all(c.workers == 1 for c in cases)

    def test_worker_faults_only_with_workers(self):
        cases = build_schedule(0, ["sampled"], [1], 50)
        assert all("worker" not in c.fault for c in cases)


class TestRunCase:
    def test_dcgen_crash_resume_is_byte_identical(self, checkpoint, tmp_path):
        case = ChaosCase(0, "dcgen", 1, seed=9, fault="crash:leaf_batch:2")
        result = run_case(case, checkpoint, tmp_path, n=400)
        assert result.ok, result.failure
        assert result.chaos_outcome == "raise:InjectedFault"
        assert result.resume_outcome == "exit:0"
        assert result.identical and result.check_ok

    def test_sampled_signal_exits_4_and_resumes(self, checkpoint, tmp_path):
        case = ChaosCase(0, "sampled", 1, seed=3, fault="signal:free_chunk:1")
        result = run_case(case, checkpoint, tmp_path, n=1200)
        assert result.ok, result.failure
        assert result.chaos_outcome == "exit:4"
        assert result.identical and result.check_ok

    def test_disk_full_exits_1_and_resumes(self, checkpoint, tmp_path):
        # The journal write fails the same way on the pool as in serial.
        for workers in (1, 2):
            case = ChaosCase(0, "dcgen", workers, seed=5, fault="disk_full:journal:2")
            result = run_case(case, checkpoint, tmp_path / f"workers-{workers}", n=400)
            assert result.ok, result.failure
            assert result.chaos_outcome == "exit:1", workers
            assert result.identical and result.check_ok

    def test_corrupt_tail_repair_then_resume(self, checkpoint, tmp_path):
        case = ChaosCase(0, "dcgen", 1, seed=11, fault="corrupt_tail")
        result = run_case(case, checkpoint, tmp_path, n=400)
        assert result.ok, result.failure
        assert result.repair_exit in (0, 2)  # repaired, or discarded as unrepairable
        assert result.identical and result.check_ok

    def test_pool_survives_worker_crash_with_the_reference_bytes(self, checkpoint, tmp_path):
        case = ChaosCase(0, "dcgen", 2, seed=9, fault="crash:worker:1")
        result = run_case(case, checkpoint, tmp_path, n=400)
        assert result.ok, result.failure
        assert result.chaos_outcome == "exit:0"  # the one-shot crash was retried
        assert (tmp_path / "case-0" / "fault-state" / "crash-worker-1.tripped").exists()
        assert result.identical

    def test_pool_survives_worker_hang_through_the_watchdog(self, checkpoint, tmp_path):
        rebuilds = telemetry.get_registry().counter("retry.pool_rebuilds")
        before = rebuilds.value
        case = ChaosCase(0, "dcgen", 2, seed=9, fault="hang:worker:1")
        result = run_case(case, checkpoint, tmp_path, n=400)
        assert result.ok, result.failure
        assert result.chaos_outcome == "exit:0"  # the hung task was retried
        assert (tmp_path / "case-0" / "fault-state" / "hang-worker-1.tripped").exists()
        assert rebuilds.value - before == 1  # only the watchdog ended the hang
        assert result.identical

    def test_ordered_crash_resume(self, checkpoint, tmp_path):
        case = ChaosCase(0, "ordered", 1, seed=0, fault="crash:frontier:1")
        result = run_case(case, checkpoint, tmp_path, n=60)
        assert result.ok, result.failure
        assert result.identical and result.check_ok


class TestRunChaos:
    def test_small_sweep_holds_the_invariant(self, checkpoint, tmp_path):
        report = run_chaos(
            checkpoint,
            tmp_path / "sweep",
            base_seed=1,
            strategies=["dcgen"],
            workers_list=[1],
            per_strategy=2,
            n=400,
        )
        assert len(report.cases) == 2
        assert report.ok, report.failures
        payload = report.to_dict()
        assert payload["total"] == 2 and payload["failed"] == 0

    def test_cli_chaos_command(self, checkpoint, tmp_path, capsys):
        code = main([
            "chaos", "--workdir", str(tmp_path / "wd"),
            "--checkpoint", str(checkpoint),
            "--seed", "2", "--per-strategy", "1",
            "--strategies", "dcgen", "--workers", "1", "-n", "400",
        ])
        assert code == 0
        assert (tmp_path / "wd" / "chaos-report.json").exists()
        assert "0 failure(s)" in capsys.readouterr().out
