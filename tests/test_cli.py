"""End-to-end CLI tests (in-process via ``repro.cli.main``)."""

import json

import pytest

from repro.cli import (
    EXIT_CORRUPT,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_SIGNAL,
    main,
)
from repro.runtime import FAULT_ENV, InjectedFault, RunJournal, corrupt_file


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> clean -> split once; return the file paths."""
    root = tmp_path_factory.mktemp("cli")
    leak = root / "leak.txt"
    cleaned = root / "cleaned.txt"
    assert main(["synth", "--site", "rockyou", "--entries", "3000",
                 "--out", str(leak)]) == 0
    assert main(["clean", "--input", str(leak), "--out", str(cleaned)]) == 0
    assert main(["split", "--input", str(cleaned), "--prefix", str(root / "data")]) == 0
    return root


def _passgpt_checkpoint(pipeline):
    """A 1-layer PassGPT trained with the CI smoke's flags (built once)."""
    ckpt = pipeline / "passgpt-model.npz"
    if not ckpt.exists():
        assert main([
            "train", "--input", str(pipeline / "data.train.txt"),
            "--model", "passgpt", "--out", str(ckpt),
            "--dim", "32", "--layers", "1", "--heads", "2",
            "--epochs", "1", "--batch-size", "128",
        ]) == EXIT_OK
    return ckpt


class TestDataCommands:
    def test_synth_writes_entries(self, pipeline):
        assert len((pipeline / "leak.txt").read_text().splitlines()) == 3000

    def test_clean_deduplicates(self, pipeline):
        cleaned = (pipeline / "cleaned.txt").read_text().splitlines()
        assert len(cleaned) == len(set(cleaned))
        assert all(4 <= len(pw) <= 12 for pw in cleaned)

    def test_split_files_disjoint(self, pipeline):
        train = set((pipeline / "data.train.txt").read_text().splitlines())
        test = set((pipeline / "data.test.txt").read_text().splitlines())
        assert train and test
        assert not train & test

    def test_patterns_report(self, pipeline, capsys):
        assert main(["patterns", "--input", str(pipeline / "cleaned.txt"),
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Pattern" in out and "Segments" in out


class TestModelCommands:
    @pytest.fixture(scope="class")
    def checkpoint(self, pipeline):
        ckpt = pipeline / "model.npz"
        assert main([
            "train", "--input", str(pipeline / "data.train.txt"),
            "--val", str(pipeline / "data.val.txt"),
            "--out", str(ckpt),
            "--dim", "32", "--layers", "1", "--heads", "2",
            "--epochs", "1", "--batch-size", "128",
        ]) == 0
        return ckpt

    def test_generate_free(self, pipeline, checkpoint):
        out = pipeline / "free.txt"
        assert main(["generate", "--checkpoint", str(checkpoint),
                     "-n", "200", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 200

    def test_generate_guided_conforms(self, pipeline, checkpoint):
        out = pipeline / "guided.txt"
        assert main(["generate", "--checkpoint", str(checkpoint),
                     "-n", "50", "--pattern", "L5N2", "--out", str(out)]) == 0
        from repro.tokenizer import Pattern

        pattern = Pattern.parse("L5N2")
        guesses = out.read_text().splitlines()
        assert len(guesses) == 50
        assert all(pattern.matches(g) for g in guesses)

    def test_generate_dcgen(self, pipeline, checkpoint):
        out = pipeline / "dc.txt"
        assert main(["generate", "--checkpoint", str(checkpoint),
                     "-n", "500", "--dcgen", "--threshold", "32",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 300

    def test_generate_dcgen_workers_matches_serial(self, pipeline, checkpoint):
        serial = pipeline / "dc_serial.txt"
        parallel = pipeline / "dc_workers.txt"
        common = ["generate", "--checkpoint", str(checkpoint),
                  "-n", "400", "--dcgen", "--threshold", "32", "--seed", "3"]
        assert main(common + ["--out", str(serial)]) == 0
        assert main(common + ["--workers", "2", "--out", str(parallel)]) == 0
        assert parallel.read_text() == serial.read_text()

    def test_generate_with_sampler_flags(self, pipeline, checkpoint):
        out = pipeline / "cold.txt"
        assert main(["generate", "--checkpoint", str(checkpoint),
                     "-n", "50", "--temperature", "0.5", "--top-k", "10",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 50

    def test_evaluate(self, pipeline, checkpoint, capsys):
        guesses = pipeline / "free.txt"
        if not guesses.exists():
            main(["generate", "--checkpoint", str(checkpoint),
                  "-n", "200", "--out", str(guesses)])
        assert main(["evaluate", "--guesses", str(guesses),
                     "--test", str(pipeline / "data.test.txt"),
                     "--distances"]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "pattern distance" in out

    def test_generate_ordered(self, pipeline, checkpoint):
        """--strategy ordered: deterministic, duplicate-free stream."""
        first = pipeline / "ordered1.txt"
        second = pipeline / "ordered2.txt"
        common = ["generate", "--checkpoint", str(checkpoint),
                  "-n", "40", "--strategy", "ordered",
                  "--beam-width", "16", "--max-frontier", "2000"]
        assert main(common + ["--out", str(first)]) == 0
        assert main(common + ["--out", str(second)]) == 0
        guesses = first.read_text().splitlines()
        assert len(guesses) == 40
        assert len(set(guesses)) == 40
        assert second.read_text() == first.read_text()  # no rng anywhere

    def test_generate_ordered_telemetry_check_passes(
        self, pipeline, checkpoint, tmp_path, capsys
    ):
        """Ordered campaigns satisfy summarize --check: the per-round
        spans account for every emitted guess against the plan."""
        tele = tmp_path / "tele"
        assert main(["generate", "--checkpoint", str(checkpoint),
                     "-n", "30", "--strategy", "ordered",
                     "--beam-width", "16", "--max-frontier", "2000",
                     "--telemetry", str(tele),
                     "--out", str(tmp_path / "ordered.txt")]) == 0
        assert main(["telemetry", "summarize", str(tele), "--check"]) == 0
        out = capsys.readouterr().out
        assert "ordered.round" in out

    def test_dcgen_rejects_passgpt(self, pipeline):
        ckpt = pipeline / "passgpt.npz"
        assert main([
            "train", "--input", str(pipeline / "data.train.txt"),
            "--model", "passgpt", "--out", str(ckpt),
            "--dim", "32", "--layers", "1", "--heads", "2",
            "--epochs", "1",
        ]) == 0
        assert main(["generate", "--checkpoint", str(ckpt), "-n", "10",
                     "--dcgen", "--out", str(pipeline / "x.txt")]) == 2


class TestFaultTolerance:
    """Crash -> --resume flows, driven in-process through the CLI."""

    def test_generate_crash_then_resume_matches_clean(
        self, pipeline, tmp_path, monkeypatch
    ):
        checkpoint = pipeline / "model.npz"
        if not checkpoint.exists():
            assert main([
                "train", "--input", str(pipeline / "data.train.txt"),
                "--out", str(checkpoint),
                "--dim", "32", "--layers", "1", "--heads", "2",
                "--epochs", "1", "--batch-size", "128",
            ]) == 0
        # (campaign, fault, reference-only flags, crash-and-resume flags):
        # D&C-GEN on PagPassGPT, and PassGPT's free sampling crashed on
        # the pool and held to a serial numpy reference.
        cases = [
            (["--checkpoint", str(checkpoint), "-n", "1200",
              "--dcgen", "--threshold", "32", "--seed", "9"],
             "crash:leaf_batch:2", [], []),
            (["--checkpoint", str(_passgpt_checkpoint(pipeline)), "-n", "1500", "--seed", "9"],
             "crash:free_chunk:1", ["--workers", "1", "--backend", "numpy"], ["--workers", "2"]),
        ]
        for index, (campaign, fault, reference, flags) in enumerate(cases):
            common = ["generate", *campaign]
            clean = tmp_path / f"clean{index}.txt"
            # --backend sets REPRO_BACKEND for the process; monkeypatch
            # restores it, and the later runs take the default backend.
            monkeypatch.delenv("REPRO_BACKEND", raising=False)
            assert main(common + reference + ["--out", str(clean)]) == 0
            monkeypatch.delenv("REPRO_BACKEND", raising=False)

            out = tmp_path / f"resumed{index}.txt"
            journal = tmp_path / f"run{index}.jsonl"
            monkeypatch.setenv(FAULT_ENV, fault)
            with pytest.raises(InjectedFault):
                main(common + flags + ["--out", str(out), "--journal", str(journal)])
            assert journal.exists()
            assert not out.exists()  # output only lands on success (atomic)

            monkeypatch.delenv(FAULT_ENV)
            assert main(common + flags + ["--out", str(out), "--journal", str(journal),
                                          "--resume"]) == 0
            assert out.read_text() == clean.read_text()
            assert not journal.exists()  # spent journal is cleaned up

    def test_train_resume_matches_uninterrupted(self, pipeline, tmp_path, monkeypatch):
        common = ["train", "--input", str(pipeline / "data.train.txt"),
                  "--val", str(pipeline / "data.val.txt"),
                  "--dim", "32", "--layers", "1", "--heads", "2",
                  "--epochs", "3", "--batch-size", "128", "--seed", "4"]
        clean_ckpt = tmp_path / "clean.npz"
        assert main(common + ["--out", str(clean_ckpt)]) == 0

        ckpt = tmp_path / "resumed.npz"
        state = tmp_path / "resumed.npz.train-state.npz"
        monkeypatch.setenv(FAULT_ENV, "crash:epoch:2")
        with pytest.raises(InjectedFault):
            main(common + ["--out", str(ckpt)])
        assert state.exists()  # two epochs of durable progress

        monkeypatch.delenv(FAULT_ENV)
        assert main(common + ["--out", str(ckpt), "--resume"]) == 0
        assert not state.exists()  # state removed after the campaign ends

        # Resumed training converges to the identical checkpointed weights.
        import numpy as np

        from repro.models import PagPassGPT

        clean_model = PagPassGPT.load(clean_ckpt)
        resumed_model = PagPassGPT.load(ckpt)
        for (name, p1), (_, p2) in zip(
            clean_model.model.named_parameters(), resumed_model.model.named_parameters()
        ):
            assert np.array_equal(p1.data, p2.data), f"weight drift in {name}"

    def test_resume_without_state_starts_fresh(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "fresh.npz"
        assert main(["train", "--input", str(pipeline / "data.train.txt"),
                     "--out", str(ckpt), "--dim", "32", "--layers", "1",
                     "--heads", "2", "--epochs", "1", "--resume"]) == 0
        assert "starting fresh" in capsys.readouterr().err
        assert ckpt.exists()

    def test_corrupt_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        checkpoint = tmp_path / "bad.npz"
        checkpoint.write_bytes(b"PK\x03\x04 definitely not a model")
        assert main(["generate", "--checkpoint", str(checkpoint),
                     "-n", "10", "--out", str(tmp_path / "x.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        source = pipeline / "model.npz"
        if not source.exists():
            pytest.skip("train fixture not built")
        bad = tmp_path / "torn.npz"
        bad.write_bytes(source.read_bytes())
        corrupt_file(bad)
        assert main(["generate", "--checkpoint", str(bad),
                     "-n", "10", "--out", str(tmp_path / "x.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_without_a_model_kind_exits_2(self, tmp_path, capsys):
        """Bare weights saved with ``save_checkpoint`` carry no model
        ``kind``: a one-line diagnosis naming what was found, not a
        traceback."""
        from repro.models import PagPassGPT
        from repro.nn import GPT2Config, save_checkpoint

        model = PagPassGPT(model_config=GPT2Config(
            vocab_size=135, block_size=32, dim=16, n_layers=1, n_heads=2))
        checkpoint = tmp_path / "weights.npz"
        save_checkpoint(model.model, checkpoint, meta={"pattern_probs": {"L4": 1.0}})
        assert main(["generate", "--checkpoint", str(checkpoint),
                     "-n", "10", "--out", str(tmp_path / "x.txt")]) == EXIT_CORRUPT
        err = capsys.readouterr().err
        assert "error:" in err and "None" in err


class TestLifecycle:
    """Deadlines, quotas, and signals: documented exit codes + clean resume."""

    def _checkpoint(self, pipeline):
        ckpt = pipeline / "model.npz"
        if not ckpt.exists():
            assert main([
                "train", "--input", str(pipeline / "data.train.txt"),
                "--out", str(ckpt),
                "--dim", "32", "--layers", "1", "--heads", "2",
                "--epochs", "1", "--batch-size", "128",
            ]) == EXIT_OK
        return ckpt

    def _campaigns(self, pipeline, n, seed):
        """``(generate argv, journal record kind)`` of each lifecycle case:
        D&C-GEN on PagPassGPT and free sampling on PassGPT."""
        common = ["-n", str(n), "--seed", str(seed)]
        return [
            (["generate", "--checkpoint", str(self._checkpoint(pipeline)), *common,
              "--dcgen", "--threshold", "32"], "leaf_batch"),
            (["generate", "--checkpoint", str(_passgpt_checkpoint(pipeline)), *common],
             "free_chunk"),
        ]

    def test_exit_code_constants_are_distinct(self):
        codes = [EXIT_OK, 1, EXIT_CORRUPT, EXIT_INTERRUPTED, EXIT_SIGNAL]
        assert codes == [0, 1, 2, 3, 4]

    def test_max_guesses_exits_3_then_resume_matches(self, pipeline, tmp_path, capsys):
        for common, record in self._campaigns(pipeline, n=1200, seed=6):
            clean = tmp_path / f"{record}.clean.txt"
            assert main(common + ["--out", str(clean)]) == EXIT_OK

            out = tmp_path / f"{record}.capped.txt"
            journal = tmp_path / f"{record}.capped.journal.jsonl"
            capsys.readouterr()
            assert main(common + ["--out", str(out), "--journal", str(journal),
                                  "--max-guesses", "200"]) == EXIT_INTERRUPTED
            err = capsys.readouterr().err
            assert "stopped" in err and "--resume" in err
            assert journal.exists()  # progress is durable
            assert not out.exists()  # output only lands on success

            assert main(common + ["--out", str(out), "--journal", str(journal),
                                  "--resume"]) == EXIT_OK
            assert out.read_text() == clean.read_text()
            assert not journal.exists()

    def test_immediate_deadline_exits_3(self, pipeline, tmp_path):
        for common, record in self._campaigns(pipeline, n=400, seed=0):
            out = tmp_path / f"{record}.deadline.txt"
            assert main(common + ["--deadline", "1e-9",
                                  "--out", str(out)]) == EXIT_INTERRUPTED
            assert not out.exists()

    def test_signal_fault_exits_4_and_leaves_valid_journal(
        self, pipeline, tmp_path, monkeypatch
    ):
        for common, record in self._campaigns(pipeline, n=1200, seed=8):
            clean = tmp_path / f"{record}.clean.txt"
            assert main(common + ["--out", str(clean)]) == EXIT_OK

            out = tmp_path / f"{record}.sig.txt"
            journal = tmp_path / f"{record}.sig.journal.jsonl"
            monkeypatch.setenv(FAULT_ENV, f"signal:{record}:1")
            assert main(common + ["--out", str(out), "--journal", str(journal)]) \
                == EXIT_SIGNAL
            monkeypatch.delenv(FAULT_ENV)

            # The journal the SIGTERM'd campaign left is structurally valid...
            assert main(["verify", str(journal)]) == EXIT_OK
            recovered = RunJournal.open(journal)
            assert recovered.completed(record)  # durable progress exists
            recovered.close()

            # ...and resume continues byte-identically.
            assert main(common + ["--out", str(out), "--journal", str(journal),
                                  "--resume"]) == EXIT_OK
            assert out.read_text() == clean.read_text()

    @pytest.mark.parametrize("flags", [
        ["--journal", "run.jsonl"], ["--resume"], ["--workers", "2"],
        ["--deadline", "5"], ["--max-guesses", "10"], ["--max-model-calls", "10"],
        ["--dcgen"], ["--strategy", "dcgen"], ["--strategy", "ordered"],
    ], ids="=".join)
    def test_pattern_rejects_campaign_flags(self, pipeline, tmp_path, capsys, flags):
        """A --pattern run is one unjournaled guided pass: a lifecycle
        flag it would silently ignore is refused before the checkpoint
        loads."""
        out = tmp_path / "guided.txt"
        code = main(["generate", "--checkpoint", str(self._checkpoint(pipeline)),
                     "-n", "50", "--pattern", "L6N2", "--out", str(out), *flags])
        assert code == EXIT_CORRUPT
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flags[0] in err[0]

    @pytest.mark.parametrize("flags", [
        ["--dropout", "1.0"], ["--dropout", "1.5"], ["--dropout", "-0.5"],
        ["--batch-size", "0"], ["--dim", "15", "--heads", "2"], ["--heads", "0"],
        ["--dim", "0"], ["--lr", "-1"], ["--epochs", "0"], ["--layers", "0"],
        ["--patience", "-1"],
    ], ids="=".join)
    def test_train_rejects_unusable_flags(self, tmp_path, capsys, flags):
        """A flag no model can train with exits 2 with one line naming
        it, before the corpus is read (the input here does not exist)."""
        out = tmp_path / "model.npz"
        code = main(["train", "--input", str(tmp_path / "missing.txt"),
                     "--out", str(out), *flags])
        assert code == EXIT_CORRUPT
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert all(flag in err[0] for flag in flags if flag.startswith("--"))

    def test_train_deadline_exits_3_and_resumes(self, pipeline, tmp_path):
        common = ["train", "--input", str(pipeline / "data.train.txt"),
                  "--dim", "32", "--layers", "1", "--heads", "2",
                  "--epochs", "2", "--batch-size", "128", "--seed", "4"]
        ckpt = tmp_path / "capped.npz"
        state = tmp_path / "capped.npz.train-state.npz"
        assert main(common + ["--out", str(ckpt),
                              "--deadline", "1e-9"]) == EXIT_INTERRUPTED
        assert state.exists()  # epoch 1 is durable
        assert not ckpt.exists()
        assert main(common + ["--out", str(ckpt), "--resume"]) == EXIT_OK
        assert ckpt.exists()
        assert not state.exists()


class TestVerifyCommand:
    def test_clean_journal_exits_0(self, tmp_path):
        journal = tmp_path / "run.journal.jsonl"
        j = RunJournal.create(journal, {"kind": "t", "seed": 1})
        j.record("leaf_batch", 0, {"guesses": ["a"]})
        j.close()
        assert main(["verify", str(journal)]) == EXIT_OK

    def test_torn_journal_exits_2_then_repair_recovers(self, tmp_path, capsys):
        journal = tmp_path / "run.journal.jsonl"
        j = RunJournal.create(journal, {"kind": "t", "seed": 1})
        j.record("leaf_batch", 0, {"guesses": ["a"]})
        j.close()
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        assert main(["verify", str(journal)]) == EXIT_CORRUPT
        assert "torn_tail" in capsys.readouterr().out
        assert main(["verify", str(journal), "--repair"]) == EXIT_OK
        assert "repaired" in capsys.readouterr().out
        assert main(["verify", str(journal)]) == EXIT_OK  # now clean

    def test_corrupt_checkpoint_is_flagged_never_accepted(self, tmp_path, capsys):
        bad = tmp_path / "model.npz"
        bad.write_bytes(b"PK\x03\x04 not a model")
        assert main(["verify", str(bad)]) == EXIT_CORRUPT
        assert "unreadable_checkpoint" in capsys.readouterr().out
        # --repair cannot fix a checkpoint; it stays an error.
        assert main(["verify", str(bad), "--repair"]) == EXIT_CORRUPT

    def test_json_findings_are_machine_readable(self, tmp_path, capsys):
        missing = tmp_path / "gone.journal.jsonl"
        assert main(["verify", str(missing), "--json"]) == EXIT_CORRUPT
        findings = json.loads(capsys.readouterr().out)
        assert findings[0]["kind"] == "missing_file"
        assert findings[0]["severity"] == "error"

    def test_generate_manifest_roundtrip(self, pipeline, tmp_path):
        ckpt = pipeline / "model.npz"
        if not ckpt.exists():
            pytest.skip("train fixture not built")
        out = tmp_path / "guesses.txt"
        assert main(["generate", "--checkpoint", str(ckpt), "-n", "50",
                     "--out", str(out), "--manifest"]) == EXIT_OK
        manifest = tmp_path / "guesses.txt.manifest.json"
        assert manifest.exists()
        assert main(["verify", str(manifest)]) == EXIT_OK
        out.write_text("tampered\n")
        assert main(["verify", str(manifest)]) == EXIT_CORRUPT


class TestTelemetrySummarize:
    """``telemetry summarize`` on directories with nothing to summarize."""

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "tele"
        empty.mkdir()
        assert main(["telemetry", "summarize", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "no telemetry streams" in err
        assert str(empty) in err

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "never-written"
        assert main(["telemetry", "summarize", str(missing)]) == 2
        assert "no telemetry streams" in capsys.readouterr().err

    def test_unrelated_files_exit_2(self, tmp_path, capsys):
        """Only telemetry*.jsonl streams count, not arbitrary files."""
        directory = tmp_path / "tele"
        directory.mkdir()
        (directory / "notes.txt").write_text("not a stream\n")
        assert main(["telemetry", "summarize", str(directory)]) == 2
        assert "no telemetry streams" in capsys.readouterr().err


class TestTelemetryExportAndProfile:
    """``telemetry export`` + ``--profile``: the CLI observability loop."""

    @pytest.fixture(scope="class")
    def traced_campaign(self, pipeline, tmp_path_factory):
        """A 2-worker traced+profiled dcgen campaign via the real CLI."""
        root = tmp_path_factory.mktemp("traced")
        ckpt = root / "model.npz"
        assert main([
            "train", "--input", str(pipeline / "data.train.txt"),
            "--out", str(ckpt),
            "--dim", "32", "--layers", "1", "--heads", "2",
            "--epochs", "1", "--batch-size", "128",
        ]) == 0
        tele = root / "tele"
        profile = root / "profile.folded"
        assert main([
            "generate", "--checkpoint", str(ckpt), "-n", "300",
            "--dcgen", "--threshold", "32", "--workers", "2",
            "--telemetry", str(tele), "--profile", str(profile),
            "--out", str(root / "guesses.txt"),
        ]) == 0
        return root, tele, profile

    def test_profile_file_is_valid_folded_stacks(self, traced_campaign):
        _, _, profile = traced_campaign
        text = profile.read_text()
        for line in text.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert stack.startswith("span:")

    def test_export_writes_connected_chrome_trace(self, traced_campaign, capsys):
        root, tele, _ = traced_campaign
        out = root / "trace.json"
        assert main(["telemetry", "export", str(tele),
                     "--out", str(out), "--check"]) == 0
        err = capsys.readouterr().err
        assert "single connected tree" in err
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        assert len(trace["otherData"]["pids"]) >= 2  # parent + workers

    def test_export_default_out_is_inside_dir(self, traced_campaign):
        _, tele, _ = traced_campaign
        assert main(["telemetry", "export", str(tele)]) == 0
        assert (tele / "trace.json").exists()

    def test_summarize_check_still_passes_with_percentiles(
        self, traced_campaign, capsys
    ):
        _, tele, _ = traced_campaign
        assert main(["telemetry", "summarize", str(tele), "--check"]) == 0
        out = capsys.readouterr().out
        assert "p95" in out

    def test_export_empty_directory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "tele"
        empty.mkdir()
        assert main(["telemetry", "export", str(empty)]) == 2
        assert "no telemetry streams" in capsys.readouterr().err

    def test_export_check_fails_on_lost_stream(self, traced_campaign, tmp_path, capsys):
        import shutil

        _, tele, _ = traced_campaign
        broken = tmp_path / "broken"
        shutil.copytree(tele, broken)
        (broken / "telemetry.jsonl").unlink()
        assert main(["telemetry", "export", str(broken), "--check"]) == 1
        assert "check failed" in capsys.readouterr().err
