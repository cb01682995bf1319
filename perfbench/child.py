"""One fresh benchmark process: drives ``repro.cli.main`` and reports.

Usage::

    python3 perfbench/child.py SPEC.json

The spec names the workload, the CLI argv to run, where to write the
result, and whether to trace.  Untraced processes carry only the probe:
a handful of O(1)-per-campaign hooks that timestamp when the process can
do useful work (first inference engine built, or training started), when
each generator is called and when each epoch's state is written, and
that keep the counters the checks and per-layer metrics read.  Traced
processes add the span wrappers of ``tracer.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


class Probe:
    """Timestamps and public objects the parent needs from this process."""

    def __init__(self) -> None:
        self.ready: dict[str, float] = {}
        self.starts: list[float] = []
        self.stats: list[dict] = []
        self.scores: list[list] = []
        self.epochs: list[dict] = []
        self.engines: list = []
        self.prompt_caches: list = []
        #: Called once the process can do useful work (setup-only runs exit there).
        self.on_ready = None

    def mark_ready(self, name: str) -> None:
        if name not in self.ready:
            self.ready[name] = time.monotonic()
            if self.on_ready is not None:
                self.on_ready()

    def install(self) -> None:
        import repro.training.trainer as trainer
        from repro.generation import DCGenerator, OrderedGenerator
        from repro.nn.inference import GPT2Inference, PromptCache

        probe = self

        def after_init(cls, bucket, mark=None):
            original = cls.__init__

            @functools.wraps(original)
            def init(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                bucket.append(obj)
                if mark is not None:
                    probe.mark_ready(mark)

            cls.__init__ = init

        def campaign(cls):
            original = cls.generate

            @functools.wraps(original)
            def generate(gen, *args, **kwargs):
                probe.starts.append(time.monotonic())
                result = original(gen, *args, **kwargs)
                probe.stats.append(dataclasses.asdict(gen.stats))
                return result

            cls.generate = generate

        after_init(GPT2Inference, self.engines, mark="engine")
        after_init(PromptCache, self.prompt_caches)
        campaign(DCGenerator)
        campaign(OrderedGenerator)

        scored = OrderedGenerator.generate_scored

        @functools.wraps(scored)
        def generate_scored(gen, *args, **kwargs):
            result = scored(gen, *args, **kwargs)
            probe.scores.append([score for _, score in result])
            return result

        OrderedGenerator.generate_scored = generate_scored

        fit = trainer.Trainer.fit

        @functools.wraps(fit)
        def fit_marked(*args, **kwargs):
            probe.mark_ready("fit")
            return fit(*args, **kwargs)

        trainer.Trainer.fit = fit_marked

        save_state = trainer.save_training_state

        @functools.wraps(save_state)
        def save_training_state(*args, **kwargs):
            save_state(*args, **kwargs)
            history = kwargs["history"]
            probe.epochs.append({
                "end": time.monotonic(),
                "train_loss": history.train_loss[-1],
                "val_loss": history.val_loss[-1] if history.val_loss else None,
            })

        trainer.save_training_state = save_training_state

    def counters(self) -> dict:
        """Sums over every engine and prompt cache this process built."""
        out = {"backends": sorted({e.backend_name for e in self.engines})}
        for field in ("prime_calls", "prime_positions", "step_calls", "step_rows"):
            out[field] = sum(getattr(e.counters, field) for e in self.engines)
        for field in ("hits", "misses"):
            out[f"prompt_cache_{field}"] = sum(c.stats()[field] for c in self.prompt_caches)
        return out


def file_digest(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def run_campaigns(spec: dict, probe: Probe) -> list[dict]:
    """Warm up once, then repeat the campaign until the spec's deadline."""
    from repro import cli

    if spec.get("warmup_argv"):
        code = cli.main(spec["warmup_argv"])
        if code != 0:
            return [{"code": code}]
    runs: list[dict] = []
    out = Path(spec["out"])
    while True:
        before = len(probe.starts)
        code = cli.main(spec["argv"])
        end = time.monotonic()
        run = {"code": code, "end": end}
        if code == 0 and len(probe.starts) > before:
            run["start"] = probe.starts[-1]
            if spec.get("corrupt"):  # self-test: a damaged stream must fail the check
                data = out.read_bytes()
                out.write_bytes(b"#" + data[1:])
            run["digest"], run["guesses"] = file_digest(out)
            if probe.scores:
                scores = probe.scores[-1]
                run["monotone"] = all(a >= b for a, b in zip(scores, scores[1:]))
        runs.append(run)
        if code != 0 or len(runs) >= spec["max_runs"]:
            break
        if len(runs) >= spec["min_runs"] and time.monotonic() >= spec["until"]:
            break
    return runs


def usage(result: dict) -> None:
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    result["maxrss_mb"] = rusage.ru_maxrss / 1024.0
    result["cpu_s"] = rusage.ru_utime + rusage.ru_stime
    result["exit"] = time.monotonic()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    result: dict = {"workload": spec["workload"]}
    tracer = None
    try:
        probe = Probe()
        probe.install()
        if spec.get("setup_only"):
            def stop_here() -> None:
                result["ready"] = probe.ready
                usage(result)
                Path(spec["result"]).write_text(json.dumps(result))
                os._exit(0)

            probe.on_ready = stop_here
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        if spec["workload"] in ("dcgen", "ordered"):
            result["runs"] = run_campaigns(spec, probe)
        else:
            from repro import cli

            result["code"] = cli.main(spec["argv"])
        result["ready"] = probe.ready
        if spec.get("corrupt"):
            for epoch in probe.epochs:
                epoch["train_loss"] += 1e-3
        result["epochs"] = probe.epochs
        result["stats"] = probe.stats
        result["counters"] = probe.counters()
        from repro.telemetry import get_registry

        result["registry"] = get_registry().values()
    except Exception:  # noqa: BLE001 - reported to the parent, which fails the run
        result["error"] = traceback.format_exc()
    finally:
        usage(result)
        if tracer is not None:
            tracer.restore()
            tracer.write(Path(spec["spans"]))
            result["spans"] = spec["spans"]
        Path(spec["result"]).write_text(json.dumps(result))
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
