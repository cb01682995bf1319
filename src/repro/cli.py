"""Command-line interface: the full pipeline without writing Python.

Subcommands::

    repro synth     synthesise a leak            -> passwords.txt
    repro clean     clean + report (Table II)    -> cleaned.txt
    repro split     7:1:2 train/val/test split   -> three files
    repro patterns  PCFG pattern distribution report
    repro train     train PagPassGPT / PassGPT   -> checkpoint.npz
    repro generate  guesses from a checkpoint (guided / free / D&C-GEN)
    repro evaluate  hit rate, repeat rate, distances of a guess file
    repro telemetry summarize / export a campaign telemetry directory
    repro verify    integrity-check checkpoints/journals/manifests
    repro chaos     randomized fault-injection sweep (crash anywhere,
                    resume exactly)
    repro serve     guessing-as-a-service campaign server
    repro top       live TTY view of a running server (/status+/metrics)

Example end-to-end session::

    repro synth --site rockyou --entries 15000 --out leak.txt
    repro clean --input leak.txt --out cleaned.txt
    repro split --input cleaned.txt --prefix data
    repro train --input data.train.txt --val data.val.txt --out model.npz
    repro generate --checkpoint model.npz -n 50000 --dcgen --out guesses.txt \\
        --telemetry tele/ --heartbeat
    repro telemetry summarize tele/ --check
    repro evaluate --guesses guesses.txt --test data.test.txt

Observability: ``--telemetry DIR`` on ``train``/``generate`` records a
structured JSONL trace (events, spans, metrics; one stream per process)
and a merged ``campaign-summary.json``; ``--profile FILE`` samples the
wall-clock into a folded flamegraph; ``repro telemetry export`` stitches
every stream into one Chrome trace-event file; ``--heartbeat`` draws a
live progress line; ``--log-level`` / ``REPRO_LOG`` control stderr
verbosity.

Lifecycle: ``--deadline`` / ``--max-guesses`` / ``--max-model-calls``
stop a campaign gracefully at a budget boundary, and SIGTERM/SIGINT take
the same graceful path (journal flushed, then a distinct exit code), so
``--resume`` always continues byte-identically.  A guided
(``--pattern``) run is one unjournaled pass and refuses these flags.
Exit codes: 0 success, 1 runtime failure (e.g. disk full), 2
corrupt/unusable artifact or invalid request, 3 deadline or quota
reached, 4 stopped by signal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import telemetry
from .datasets import build_corpus, clean_leak, generate_leak, split_dataset
from .datasets.synthetic import SITES
from .evaluation import (
    hit_rate,
    length_distance,
    pattern_distance,
    render_table,
    repeat_rate,
)
from .generation import OrderedConfig, SamplerConfig, UnsupportedStrategy, run_strategy
from .models import PagPassGPT, PassGPT, load_checkpoint
from .nn import CheckpointError, GPT2Config
from .runtime import (
    Budget,
    CampaignInterrupted,
    DiskFullError,
    JournalError,
    atomic_write_text,
    signals,
)
from .tokenizer import Pattern
from .training import TrainConfig

# Process exit codes (documented in docs/API.md; asserted in tests).
EXIT_OK = 0            # command completed
EXIT_FAILURE = 1       # runtime failure (disk full, chaos invariant broken, ...)
EXIT_CORRUPT = 2       # corrupt/unusable artifact or invalid request
EXIT_INTERRUPTED = 3   # deadline / guess quota / model-call quota reached
EXIT_SIGNAL = 4        # stopped gracefully by SIGTERM/SIGINT


def _read_lines(path: str) -> list[str]:
    return Path(path).read_text(encoding="utf-8", errors="ignore").splitlines()


def _write_lines(path: str, lines: Sequence[str]) -> None:
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_artifact_manifest(out: str, run: dict) -> None:
    """Pin a finished artifact's checksum next to it (``--manifest``)."""
    from .runtime import integrity

    manifest_path = f"{out}.manifest.json"
    integrity.write_manifest(manifest_path, [out], run=run)
    print(f"integrity manifest written to {manifest_path}", file=sys.stderr)


def _start_telemetry(args: argparse.Namespace, run_id: str) -> bool:
    """Open a telemetry session when ``--telemetry DIR`` was given.

    The JSONL capture is always full fidelity; ``--log-level`` only
    governs the stderr bridge (handled in :func:`main`).
    """
    if not getattr(args, "telemetry", None):
        return False
    telemetry.start_session(args.telemetry, run_id=run_id)
    return True


def _finish_telemetry(args: argparse.Namespace, started: bool) -> None:
    """Close the session and write the merged ``campaign-summary.json``."""
    if not started:
        return
    telemetry.end_session()
    directory = Path(args.telemetry)
    summary = telemetry.summarize_campaign(directory)
    atomic_write_text(
        directory / "campaign-summary.json", json.dumps(summary, indent=2) + "\n"
    )
    print(telemetry.render_summary(summary), file=sys.stderr)


def _start_profiler(args: argparse.Namespace) -> Optional[telemetry.SamplingProfiler]:
    """Arm the sampling profiler when ``--profile FILE`` was given."""
    if not getattr(args, "profile", None):
        return None
    profiler = telemetry.SamplingProfiler()
    profiler.start()
    return profiler


def _finish_profiler(
    args: argparse.Namespace, profiler: Optional[telemetry.SamplingProfiler]
) -> None:
    """Disarm and write the folded flamegraph stacks.

    Called *before* the telemetry session closes so the ``profile``
    summary event lands inside the campaign's stream.
    """
    if profiler is None:
        return
    profiler.stop()
    out = profiler.write(args.profile)
    top = ", ".join(f"{name}={count}" for name, count in profiler.top_spans(3))
    print(
        f"profile: {profiler.sample_count} samples "
        f"({len(profiler.samples)} stacks) -> {out}"
        + (f"  [{top}]" if top else ""),
        file=sys.stderr,
    )


# ----------------------------------------------------------------------
# Subcommand implementations (each returns a process exit code)
# ----------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    leak = generate_leak(args.site, args.entries, seed=args.seed)
    _write_lines(args.out, leak)
    print(f"wrote {len(leak)} raw entries for site {args.site!r} to {args.out}")
    return 0


def cmd_clean(args: argparse.Namespace) -> int:
    cleaned, report = clean_leak(_read_lines(args.input))
    _write_lines(args.out, cleaned)
    print(
        render_table(
            ["Raw", "Unique", "Cleaned", "Retention"],
            [[report.raw_entries, report.unique, report.cleaned, f"{report.retention_rate:.1%}"]],
            title="Cleaning report (Table II columns)",
        )
    )
    print(f"wrote {len(cleaned)} cleaned unique passwords to {args.out}")
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    passwords = _read_lines(args.input)
    splits = split_dataset(passwords, seed=args.seed)
    for part in ("train", "val", "test"):
        path = f"{args.prefix}.{part}.txt"
        _write_lines(path, getattr(splits, part))
        print(f"{path}: {len(getattr(splits, part))} passwords")
    return 0


def cmd_patterns(args: argparse.Namespace) -> int:
    corpus = build_corpus(_read_lines(args.input))
    rows = [
        [pattern, f"{prob:.4%}", Pattern.parse(pattern).num_segments]
        for pattern, prob in corpus.top_patterns(args.top)
    ]
    print(
        render_table(
            ["Pattern", "Probability", "Segments"],
            rows,
            title=f"Top {args.top} PCFG patterns of {len(corpus)} passwords",
        )
    )
    return 0


def _train_flag_error(args: argparse.Namespace) -> Optional[str]:
    """One line naming the first ``repro train`` model or optimiser flag
    that cannot train, or None when all of them can."""
    for flag, value in (("--dim", args.dim), ("--layers", args.layers),
                        ("--heads", args.heads), ("--epochs", args.epochs),
                        ("--batch-size", args.batch_size)):
        if value < 1:
            return f"{flag} must be at least 1, got {value}"
    if args.dim % args.heads:
        return f"--dim {args.dim} must be a multiple of --heads {args.heads}"
    if not 0.0 <= args.dropout < 1.0:
        return f"--dropout must be in [0, 1), got {args.dropout}"
    if not args.lr > 0.0:
        return f"--lr must be positive, got {args.lr}"
    if args.patience < 0:
        return f"--patience must be 0 (off) or more, got {args.patience}"
    return None


def cmd_train(args: argparse.Namespace) -> int:
    problem = _train_flag_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_CORRUPT
    train_passwords = _read_lines(args.input)
    val_passwords = _read_lines(args.val) if args.val else None
    model_cls = {"pagpassgpt": PagPassGPT, "passgpt": PassGPT}[args.model]
    tokenizer = model_cls.tokenizer_cls()
    config = GPT2Config(
        vocab_size=len(tokenizer.vocab),
        block_size=tokenizer.block_size,
        dim=args.dim,
        n_layers=args.layers,
        n_heads=args.heads,
        dropout=args.dropout,
    )
    model = model_cls(
        model_config=config,
        train_config=TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            lr=args.lr,
            early_stop_patience=args.patience,
            seed=args.seed,
        ),
        seed=args.seed,
    )
    print(f"training {model.name} ({model.model.num_parameters():,} parameters) "
          f"on {len(train_passwords)} passwords")
    state_path = args.state or f"{args.out}.train-state.npz"
    resume_from = None
    if args.resume:
        if Path(state_path).exists():
            resume_from = state_path
        else:
            print(f"no training state at {state_path}; starting fresh", file=sys.stderr)
    started = _start_telemetry(args, run_id="train")
    profiler = _start_profiler(args)
    try:
        model.fit(
            build_corpus(train_passwords),
            val_passwords=val_passwords,
            log_fn=print,
            checkpoint_path=state_path,
            resume_from=resume_from,
            budget=Budget(wall_seconds=args.deadline),
        )
    finally:
        _finish_profiler(args, profiler)
        _finish_telemetry(args, started)
    model.save(args.out)
    Path(state_path).unlink(missing_ok=True)  # campaign finished
    if args.manifest:
        _write_artifact_manifest(
            args.out, run={"command": "train", "model": args.model, "seed": args.seed}
        )
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def _campaign_flags(args: argparse.Namespace) -> list[str]:
    """The campaign-lifecycle flags ``args`` sets; a ``--pattern`` run
    is one unjournaled guided pass and honours none of them."""
    used = {
        "--journal": args.journal is not None,
        "--resume": args.resume,
        "--workers": args.workers != 1,
        "--deadline": args.deadline is not None,
        "--max-guesses": args.max_guesses is not None,
        "--max-model-calls": args.max_model_calls is not None,
        "--dcgen": args.dcgen,
        "--strategy": args.strategy != "sampled",
    }
    return [flag for flag, on in used.items() if on]


def cmd_generate(args: argparse.Namespace) -> int:
    conflicts = _campaign_flags(args) if args.pattern else []
    if conflicts:
        print(f"error: --pattern runs one unjournaled guided pass; it cannot take "
              f"{', '.join(conflicts)}", file=sys.stderr)
        return EXIT_CORRUPT
    if args.backend:
        # The inference engine is built lazily on first use and reads
        # REPRO_BACKEND then; the env var also reaches spawned workers.
        os.environ["REPRO_BACKEND"] = args.backend
    model = load_checkpoint(args.checkpoint)
    if args.temperature != 1.0 or args.top_k or args.top_p < 1.0:
        model.sampler = SamplerConfig(
            temperature=args.temperature, top_k=args.top_k, top_p=args.top_p
        )
    journal_path = Path(args.journal or f"{args.out}.journal.jsonl")
    # Always build a budget (all limits may be None): a limitless budget
    # still turns SIGTERM/SIGINT into a graceful stop at the next poll.
    budget = Budget(
        wall_seconds=args.deadline,
        max_guesses=args.max_guesses,
        max_model_calls=args.max_model_calls,
    )
    started = _start_telemetry(args, run_id="generate")
    profiler = _start_profiler(args)
    heartbeat = telemetry.Heartbeat(
        args.n, enabled=True if args.heartbeat else None
    )
    strategy = "dcgen" if args.dcgen else args.strategy
    try:
        if args.pattern:
            guesses = model.generate_with_pattern(Pattern.parse(args.pattern), args.n, seed=args.seed)
        else:
            ordered = None
            if strategy == "ordered":
                ordered = OrderedConfig(beam_width=args.beam_width, max_frontier=args.max_frontier,
                                        snapshot_every=args.snapshot_every)
            guesses, summary, _ = run_strategy(
                model, strategy, args.n, seed=args.seed, workers=args.workers,
                threshold=args.threshold, ordered=ordered,
                journal=journal_path, resume=args.resume,
                progress=heartbeat.update, budget=budget,
            )
            if summary:
                print(summary, file=sys.stderr)
    finally:
        heartbeat.close()
        _finish_profiler(args, profiler)
        _finish_telemetry(args, started)
    _write_lines(args.out, guesses)
    journal_path.unlink(missing_ok=True)  # campaign finished; journal spent
    if args.manifest:
        _write_artifact_manifest(
            args.out,
            run={"command": "generate", "strategy": strategy,
                 "seed": args.seed, "n": args.n},
        )
    print(f"wrote {len(guesses)} guesses to {args.out}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    guesses = _read_lines(args.guesses)
    test = _read_lines(args.test)
    rows = [
        ["hit rate", f"{hit_rate(guesses, test):.2%}"],
        ["repeat rate", f"{repeat_rate(guesses):.2%}"],
        ["unique guesses", len(set(guesses))],
    ]
    if args.distances:
        corpus = build_corpus(sorted(set(test)))
        rows.append(["length distance", f"{length_distance(guesses, corpus):.4f}"])
        rows.append(["pattern distance", f"{pattern_distance(guesses, corpus):.4f}"])
    print(render_table(["Metric", "Value"], rows, title="Evaluation"))
    return 0


def cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not telemetry.campaign_files(directory):
        print(f"error: no telemetry streams found in {directory}", file=sys.stderr)
        return 2
    summary = telemetry.summarize_campaign(directory)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(telemetry.render_summary(summary))
    if args.check:
        failures = telemetry.check_summary(summary)
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("all campaign invariants hold", file=sys.stderr)
    return 0


def cmd_telemetry_export(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not telemetry.campaign_files(directory):
        print(f"error: no telemetry streams found in {directory}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else directory / "trace.json"
    path, trace, failures = telemetry.export_chrome_trace(
        directory, out, check=args.check
    )
    meta = trace.get("otherData", {})
    print(
        f"wrote {meta.get('spans', 0)} span(s) across "
        f"{len(meta.get('pids', []))} process(es) from "
        f"{len(meta.get('streams', []))} stream(s) to {path}",
        file=sys.stderr,
    )
    if args.check:
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("trace forms a single connected tree", file=sys.stderr)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from .server.top import run_top

    return run_top(args.url, interval=args.interval, once=args.once)


def cmd_verify(args: argparse.Namespace) -> int:
    """Integrity-check artifacts; exit 2 if any error-level finding remains."""
    from .runtime import integrity

    findings = integrity.verify_paths(args.paths, repair=args.repair)
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f"{f.severity:7s} {f.kind:22s} {f.path}  {f.detail}")
    errors = sum(1 for f in findings if f.severity == "error")
    repaired = sum(1 for f in findings if f.kind == "repaired")
    summary = f"{len(findings)} finding(s), {errors} error(s)"
    if repaired:
        summary += f", {repaired} repaired"
    print(summary, file=sys.stderr)
    return EXIT_CORRUPT if errors else EXIT_OK


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos sweep or server soak; exit 1 if any invariant breaks."""
    from .runtime import chaos

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    checkpoint = args.checkpoint
    if checkpoint is None:
        # Self-contained mode: train a throwaway model on a synthetic
        # leak (cached across invocations sharing the workdir).
        checkpoint = workdir / "chaos-model.npz"
        if not checkpoint.exists():
            print("training a throwaway chaos model...", file=sys.stderr)
            leak = workdir / "chaos-leak.txt"
            cleaned = workdir / "chaos-cleaned.txt"
            _write_lines(leak, generate_leak("rockyou", 3000, seed=0))
            _write_lines(cleaned, clean_leak(_read_lines(str(leak)))[0])
            code = main([
                "train", "--input", str(cleaned), "--out", str(checkpoint),
                "--dim", "32", "--layers", "1", "--heads", "2",
                "--epochs", "1", "--batch-size", "128",
            ])
            if code != 0:
                print("error: chaos model training failed", file=sys.stderr)
                return EXIT_FAILURE
    strategies = [s for s in args.strategies.split(",") if s]
    workers_list = [int(w) for w in args.workers.split(",") if w]
    schedule = dict(
        base_seed=args.seed,
        strategies=strategies,
        workers_list=workers_list,
        per_strategy=args.per_strategy,
        n=args.n,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    if args.server:
        surface = "server soak"
        report = chaos.run_server_soak(
            checkpoint, workdir / "server-soak", clients=args.clients, **schedule
        )
        report_path = workdir / "soak-report.json"
    else:
        surface = "chaos"
        report = chaos.run_chaos(checkpoint, workdir / "cases", **schedule)
        report_path = workdir / "chaos-report.json"
    atomic_write_text(report_path, json.dumps(report.to_dict(), indent=2) + "\n")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"{surface}: {len(report.cases)} case(s), "
              f"{len(report.failures)} failure(s); report at {report_path}")
        for failure in report.failures:
            print(f"  FAIL {failure}")
    return EXIT_OK if report.ok else EXIT_FAILURE


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the campaign server until a graceful drain completes.

    Exit codes follow the drain reason: a SIGTERM/SIGINT drain is the
    *intended* shutdown and exits 0 (running jobs checkpoint at their
    next durable boundary); an expired server-wide ``--deadline`` exits
    3.  Corrupt state (checkpoint or server journal) exits 2 before
    serving starts.
    """
    import asyncio

    from .server import CampaignServer, ServerConfig

    config = ServerConfig(
        checkpoint=args.checkpoint,
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        fleet=args.fleet,
        max_queue=args.max_queue,
        max_tenant_queue=args.max_tenant_queue,
        rate=args.rate,
        burst=args.burst,
        deadline=args.deadline,
        job_telemetry=args.job_telemetry,
    )
    server = CampaignServer(config)

    async def _serve() -> dict:
        await server.start()
        print(f"serving on http://{config.host}:{server.port} "
              f"(state dir: {config.state_dir}, fleet: {config.fleet})",
              file=sys.stderr)
        return await server.serve_forever()

    profiler = _start_profiler(args)
    try:
        with signals.graceful_shutdown():
            summary = asyncio.run(_serve())
    finally:
        _finish_profiler(args, profiler)
    jobs = {k: v for k, v in summary["jobs"].items() if v}
    print(f"drained ({summary['reason']}): {jobs or 'no jobs'}", file=sys.stderr)
    return EXIT_INTERRUPTED if summary["reason"] == "deadline" else EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_observability_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="record a structured JSONL telemetry trace (events, "
                        "spans, metrics) into DIR and write a merged "
                        "campaign-summary.json")
    p.add_argument("--log-level", default=None, choices=sorted(telemetry.LEVELS),
                   help="stderr verbosity for telemetry events "
                        "(default: $REPRO_LOG or warning)")
    p.add_argument("--profile", default=None, metavar="FILE",
                   help="sample the wall-clock (setitimer) while the command "
                        "runs and write folded flamegraph stacks to FILE; "
                        "each sample is attributed to the open span")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PagPassGPT reproduction — password guessing pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesise a leak")
    p.add_argument("--site", choices=sorted(SITES), default="rockyou")
    p.add_argument("--entries", type=int, default=15_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("clean", help="clean a raw leak (length 4-12, ASCII, dedup)")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_clean)

    p = sub.add_parser("split", help="7:1:2 train/val/test split")
    p.add_argument("--input", required=True)
    p.add_argument("--prefix", required=True, help="output prefix for .train/.val/.test files")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("patterns", help="PCFG pattern distribution report")
    p.add_argument("--input", required=True)
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(fn=cmd_patterns)

    p = sub.add_parser("train", help="train a GPT password model")
    p.add_argument("--input", required=True, help="training passwords, one per line")
    p.add_argument("--val", default=None, help="validation passwords")
    p.add_argument("--model", choices=("pagpassgpt", "passgpt"), default="pagpassgpt")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--patience", type=int, default=0, help="early-stop patience (0=off)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--state", default=None,
                   help="training-state path (default: <out>.train-state.npz)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the training state if it exists")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="stop gracefully after this much wall clock "
                        "(exit 3; --resume continues byte-identically)")
    p.add_argument("--manifest", action="store_true",
                   help="write a checksum manifest (<out>.manifest.json) "
                        "next to the finished checkpoint")
    _add_observability_options(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="generate guesses from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("-n", type=int, default=10_000, help="number of guesses")
    p.add_argument("--pattern", default=None,
                   help='guided generation, e.g. "L6N2": one unjournaled pass '
                        "that takes no journal, resume, worker, budget or "
                        "strategy flag (exit 2)")
    p.add_argument("--strategy", choices=("sampled", "dcgen", "ordered"),
                   default="sampled",
                   help="decode backend: stochastic sampling (default), "
                        "D&C-GEN, or best-first ordered enumeration")
    p.add_argument("--dcgen", action="store_true",
                   help="alias for --strategy dcgen (PagPassGPT only)")
    p.add_argument("--threshold", type=int, default=256, help="D&C-GEN threshold T")
    p.add_argument("--beam-width", type=int, default=64,
                   help="ordered: frontier nodes expanded per model call")
    p.add_argument("--max-frontier", type=int, default=50_000,
                   help="ordered: frontier size cap (overflow is pruned "
                        "least-probable-first, with accounting)")
    p.add_argument("--snapshot-every", type=int, default=4,
                   help="ordered: journal a frontier snapshot every K rounds")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for free/D&C-GEN generation "
                        "(output is identical for any count)")
    p.add_argument("--backend", choices=("numpy", "compiled"), default=None,
                   help="decode-step kernel backend (default: $REPRO_BACKEND, "
                        "else compiled when a C compiler is available, else "
                        "numpy); 'compiled' fuses the step into cached C "
                        "kernels with byte-identical output")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-k", type=int, default=0)
    p.add_argument("--top-p", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--journal", default=None,
                   help="run-journal path (default: <out>.journal.jsonl); "
                        "deleted after a successful run")
    p.add_argument("--resume", action="store_true",
                   help="resume an interrupted run from its journal "
                        "(output is byte-identical to an uninterrupted run)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="stop gracefully after this much wall clock "
                        "(exit 3; --resume continues byte-identically)")
    p.add_argument("--max-guesses", type=int, default=None, metavar="G",
                   help="stop gracefully once G guesses are journaled (exit 3)")
    p.add_argument("--max-model-calls", type=int, default=None, metavar="C",
                   help="stop gracefully after C model calls (exit 3; "
                        "strategies that do not count calls ignore this)")
    p.add_argument("--manifest", action="store_true",
                   help="write a checksum manifest (<out>.manifest.json) "
                        "next to the finished guess file")
    p.add_argument("--heartbeat", action="store_true",
                   help="draw a live progress line (done/total, rate, ETA) "
                        "even when stderr is not a TTY")
    _add_observability_options(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evaluate", help="score a guess file against a test file")
    p.add_argument("--guesses", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--distances", action="store_true", help="also compute eqs. 6-7")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("telemetry", help="inspect campaign telemetry")
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    s = tsub.add_parser("summarize", help="merge a campaign's streams into one report")
    s.add_argument("dir", help="telemetry directory written by --telemetry")
    s.add_argument("--json", action="store_true", help="print the raw summary JSON")
    s.add_argument("--check", action="store_true",
                   help="verify deterministic campaign invariants "
                        "(exit 1 on violation)")
    s.set_defaults(fn=cmd_telemetry_summarize)
    s = tsub.add_parser(
        "export",
        help="stitch every stream into one Chrome trace-event file "
             "(open in chrome://tracing or Perfetto)",
    )
    s.add_argument("dir", help="telemetry directory written by --telemetry")
    s.add_argument("--out", default=None,
                   help="output path (default: <dir>/trace.json)")
    s.add_argument("--format", choices=("chrome-trace",), default="chrome-trace",
                   help="export format (only chrome-trace today)")
    s.add_argument("--check", action="store_true",
                   help="verify the exported spans form a single connected "
                        "tree across all processes (exit 1 on violation)")
    s.set_defaults(fn=cmd_telemetry_export)

    p = sub.add_parser(
        "verify",
        help="integrity-check campaign artifacts (exit 2 on any error finding)",
    )
    p.add_argument("paths", nargs="+",
                   help="checkpoints (.npz), run journals (*journal*.jsonl), "
                        "manifests (MANIFEST.json / *.manifest.json), or "
                        "directories to walk for all three")
    p.add_argument("--repair", action="store_true",
                   help="truncate torn journal tails back to the last valid "
                        "record (atomic rewrite; repairs become info findings)")
    p.add_argument("--json", action="store_true",
                   help="print machine-readable findings as JSON")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "chaos",
        help="randomized fault-injection sweep: crash anywhere, resume exactly",
    )
    p.add_argument("--workdir", required=True,
                   help="scratch directory for cases and the JSON report")
    p.add_argument("--checkpoint", default=None,
                   help="model checkpoint to campaign with (default: train a "
                        "throwaway tiny model into the workdir)")
    p.add_argument("--seed", type=int, default=0,
                   help="schedule seed; the same seed replays the same faults")
    p.add_argument("--per-strategy", type=int, default=2,
                   help="cases per (strategy, workers) shape")
    p.add_argument("--strategies", default="sampled,dcgen,ordered",
                   help="comma-separated strategies to sweep")
    p.add_argument("--workers", default="1,2",
                   help="comma-separated worker counts to sweep")
    p.add_argument("-n", type=int, default=None,
                   help="guesses per campaign (default: per-strategy sizing)")
    p.add_argument("--json", action="store_true",
                   help="print the full chaos report as JSON on stdout")
    p.add_argument("--server", action="store_true",
                   help="run the cases as requests to a live campaign "
                        "server instead (ordered cases are left out): "
                        "concurrent clients, an injected worker crash, a "
                        "SIGTERM drain mid-run, then verify every accepted "
                        "request resumed byte-identically")
    p.add_argument("--clients", type=int, default=2,
                   help="(--server) concurrent client threads / tenants")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="guessing as a service: journaled campaign server with "
             "admission control and graceful drain",
    )
    p.add_argument("--checkpoint", required=True,
                   help="default model checkpoint served to requests")
    p.add_argument("--state-dir", required=True,
                   help="server state: the request journal plus one "
                        "directory per job (journal, guesses, telemetry)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8157,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--fleet", type=int, default=2,
                   help="concurrent campaign slots")
    p.add_argument("--max-queue", type=int, default=64,
                   help="global queued-request cap (503 beyond it)")
    p.add_argument("--max-tenant-queue", type=int, default=8,
                   help="per-tenant queued-request cap (429 beyond it)")
    p.add_argument("--rate", type=float, default=50.0,
                   help="per-tenant sustained requests/second")
    p.add_argument("--burst", type=float, default=20.0,
                   help="per-tenant token-bucket burst size")
    p.add_argument("--deadline", type=float, default=None,
                   help="server-wide wall-clock budget in seconds; "
                        "composes min-wins into every request and "
                        "drains the server (exit 3) when it expires")
    p.add_argument("--job-telemetry", action="store_true",
                   help="record a per-job telemetry session under each "
                        "job directory (forces --fleet 1: the counters a "
                        "session reports are process-global)")
    p.add_argument("--profile", default=None, metavar="FILE",
                   help="sample the server's wall-clock while it runs and "
                        "write folded flamegraph stacks to FILE on drain")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "top",
        help="live TTY view of a running campaign server (/status + /metrics)",
    )
    p.add_argument("--url", default="http://127.0.0.1:8157",
                   help="server base URL (default: http://127.0.0.1:8157)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh period in seconds")
    p.add_argument("--once", action="store_true",
                   help="render a single frame and exit (no screen clearing)")
    p.set_defaults(fn=cmd_top)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Unusable checkpoints/journals (missing, corrupt, belonging to a
    different run, or unable to run the requested strategy) exit with
    code 2 and a one-line diagnosis instead of a traceback.
    SIGTERM/SIGINT are converted into a graceful stop at
    the next budget poll (progress stays durable and resumable; exit 4);
    tripped deadlines/quotas exit 3; a full disk aborts safely with
    exit 1.  The full table lives in docs/API.md.
    """
    args = build_parser().parse_args(argv)
    telemetry.configure_logging(getattr(args, "log_level", None))
    try:
        with signals.graceful_shutdown():
            return args.fn(args)
    except CampaignInterrupted as exc:
        print(f"stopped: {exc}", file=sys.stderr)
        print("progress is journaled; rerun with --resume to continue "
              "byte-identically", file=sys.stderr)
        return EXIT_SIGNAL if exc.reason == "signal" else EXIT_INTERRUPTED
    except DiskFullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (CheckpointError, JournalError, UnsupportedStrategy) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT


if __name__ == "__main__":
    raise SystemExit(main())
