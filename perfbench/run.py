"""The repo benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dcgen|ordered|serve|train \\
        --seed N --seconds S --trace 0|1

Every measured process is a fresh interpreter started through
``child.py``, which drives the program only through ``repro.cli.main``;
``serve`` is then loaded over HTTP.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs fixed-size passes untraced and traced in
turn, and prints the per-layer metrics plus the tracing overhead.  The
last line of standard output is one JSON object; the lines before it are
the same numbers for people, including ``error_rate``.  See
``README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread here and, through the environment, in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import queue  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("dcgen", "ordered", "serve", "train")
PROCESS_TIMEOUT = 60.0  # a measuring child runs ~7 s; a hung one is killed
LOAD_TIMEOUT = 30.0  # cap on a count-driven serve phase

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "inference.prime.calls": "count", "inference.prime.positions": "count",
    "inference.prime.s": "s",
    "inference.step.calls": "count", "inference.step.rows": "count",
    "inference.step.s": "s",
    "backend.build_s": "s", "backend.kernels_compiled": "count",
    "backend.fallbacks": "count",
    "kv.gather.calls": "count", "kv.gather.rows": "count", "kv.gather.s": "s",
    "prompt_cache.hits": "count", "prompt_cache.misses": "count",
    "prompt_cache.hit_ratio": "fraction",
    "sampler.calls": "count", "sampler.rows": "count", "sampler.s": "s",
    "dcgen.plan.s": "s", "dcgen.batches": "count", "dcgen.execute.self_s": "s",
    "dcgen.model_calls": "count",
    "ordered.frontier.self_s": "s", "ordered.rounds": "count",
    "ordered.pops": "count", "ordered.expansions": "count",
    "ordered.truncated_nodes": "count", "ordered.emitted_per_pop": "ratio",
    "ordered.model_calls": "count",
    "free.self_s": "s", "free.rows": "count",
    "journal.records": "count", "journal.bytes": "bytes", "journal.record.s": "s",
    "atomic.writes": "count", "atomic.bytes": "bytes", "atomic.write.s": "s",
    "server.post.p50_s": "s", "server.poll.p50_s": "s", "server.fetch.p50_s": "s",
    "server.queue_wait.p50_s": "s", "server.slot.p50_s": "s",
    "server.polls_per_request": "ratio", "server.refused": "count",
    "server.failed": "count", "server.cpu_util": "cores",
    "train.steps": "count", "train.forward.s": "s", "train.backward.s": "s",
    "train.optim.s": "s", "train.eval.s": "s", "train.checkpoint.s": "s",
    "process.cpu_s": "s", "host.calib_s": "s", "trace.overhead_pct": "%",
}

#: Workload-specific names printed beside the generic end-to-end metrics.
ALIASES = {
    "dcgen": {"throughput_per_s": "guesses_per_s"},
    "ordered": {"throughput_per_s": "guesses_per_s"},
    "serve": {"throughput_per_s": "requests_per_s"},
    "train": {"latency_p50_s": "epoch_s"},
}

SAMPLER_SPANS = ("sampler.choose_constrained", "sampler.constrained_distribution",
                 "sampler.sample_constrained", "sampler.sample_masked")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else median(values)


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    Reported beside the metrics, never used to adjust them.
    """
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok


class Context:
    """Per-run paths, environment and child launching."""

    def __init__(self, workload: str, seed: int, seconds: int, corrupt: bool) -> None:
        import inputs

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.corrupt = corrupt
        self.variant = inputs.variant(seed)
        self.expected = inputs.load_expected()
        self.dir = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.kernels = WORK / "kernels"
        self.kernels.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env.update(
            PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(self.dir),
            REPRO_KERNEL_CACHE=str(self.kernels),
        )
        self.children = 0
        self.procs: list[subprocess.Popen] = []
        self.tally = Tally()

    def launch(self, spec: dict, stderr=None) -> tuple[subprocess.Popen, float, dict]:
        """Start ``child.py`` on ``spec``; returns (process, launch time, full spec)."""
        self.children += 1
        name = self.dir / f"child{self.children}"
        spec = {"workload": self.workload, "corrupt": self.corrupt,
                "result": f"{name}.result.json", "spans": f"{name}.spans.jsonl", **spec}
        Path(f"{name}.spec.json").write_text(json.dumps(spec))
        with open(f"{name}.log", "w") as log:
            t_launch = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), f"{name}.spec.json"],
                cwd=self.dir, env=self.env, stdin=subprocess.DEVNULL, stdout=log,
                stderr=stderr if stderr is not None else log, text=True,
            )
        self.procs.append(proc)
        return proc, t_launch, spec

    def stop_all(self) -> None:
        """Kill and reap any child still running (only after a failure)."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def finish(self, proc: subprocess.Popen, spec: dict, timeout: float = PROCESS_TIMEOUT) -> dict:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": f"child timed out after {timeout}s", "exit_code": None}
        try:
            result = json.loads(Path(spec["result"]).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return {"error": f"no result from child (exit {code}): {exc}", "exit_code": code}
        result["exit_code"] = code
        return result

    def run_child(self, spec: dict) -> tuple[float, dict]:
        proc, t_launch, full = self.launch(spec)
        return t_launch, self.finish(proc, full)


# ----------------------------------------------------------------------
# Prep (untimed)
# ----------------------------------------------------------------------

def prep_checkpoint(ctx: Context, compiled: bool) -> Path:
    import inputs

    path = ctx.dir / "bench.npz"
    inputs.write_checkpoint(path)
    if compiled:
        # Build (first run) or load the kernels into the benchmark-owned
        # cache so no timed process ever compiles.
        os.environ["REPRO_KERNEL_CACHE"] = str(ctx.kernels)
        from repro.models import PagPassGPT
        from repro.nn import GPT2Inference

        GPT2Inference(PagPassGPT.load(path).model, backend="compiled")
    return path


# ----------------------------------------------------------------------
# dcgen / ordered: repeated CLI campaigns in several cold-started processes
# ----------------------------------------------------------------------

def campaign_argv(workload: str, checkpoint: Path, ctx: Context, warmup: bool) -> list[str]:
    import inputs

    out = ["--out", "guesses.txt", "--journal", "run.journal.jsonl"]
    if workload == "dcgen":
        n = inputs.DCGEN["warmup_n"] if warmup else inputs.DCGEN["n"]
        return ["generate", "--checkpoint", str(checkpoint), "--strategy", "dcgen",
                "--backend", "compiled", "--threshold", str(inputs.DCGEN["threshold"]),
                "--workers", "1", "-n", str(n), "--seed", str(ctx.variant), *out]
    cap = inputs.ORDERED["warmup_frontier"] if warmup else inputs.ORDERED["max_frontier"]
    n = inputs.ORDERED["warmup_n"] if warmup else inputs.ORDERED["n"]
    return ["generate", "--checkpoint", str(checkpoint), "--strategy", "ordered",
            "--max-frontier", str(cap), "--workers", "1", "-n", str(n), *out]


def cold_starts(ctx: Context, spec: dict, count: int, mark: str) -> list[float]:
    """Launch-to-ready times of ``count`` processes that exit once ready."""
    samples = []
    for i in range(count):
        t_launch, result = ctx.run_child({**spec, "trace": False, "setup_only": True})
        if ctx.tally.op(result.get("exit_code") == 0 and mark in result.get("ready", {}),
                        f"cold start {i}: {result.get('error', result.get('exit_code'))}"):
            samples.append(result["ready"][mark] - t_launch)
    return samples


def campaign_pass(ctx: Context, checkpoint: Path, processes: int, seconds: float,
                  trace: bool, fixed_runs: int = 0, cold: int = 0) -> dict:
    """Cold-start ``processes`` children in turn, each after ``cold``
    setup-only starts; each warms up, then runs campaigns until its share
    of ``seconds`` is spent (or exactly ``fixed_runs`` of them)."""
    expected = ctx.expected
    want = (expected["ordered"] if ctx.workload == "ordered"
            else expected["variants"][str(ctx.variant)]["dcgen"])
    setup, durations, rates, rss, results = [], [], [], [], []
    t0 = time.monotonic()
    for i in range(processes):
        spec = {
            "trace": trace,
            "argv": campaign_argv(ctx.workload, checkpoint, ctx, warmup=False),
            "warmup_argv": campaign_argv(ctx.workload, checkpoint, ctx, warmup=True),
            "out": str(ctx.dir / "guesses.txt"),
            "min_runs": fixed_runs or 2,
            "max_runs": fixed_runs or 1000,
            "until": t0 + seconds * (i + 1) / processes,
        }
        setup += cold_starts(ctx, spec, cold, "engine")
        t_launch, result = ctx.run_child(spec)
        results.append(result)
        if not ctx.tally.op("error" not in result and result["exit_code"] == 0,
                            f"process {i}: {result.get('error', 'exit ' + str(result.get('exit_code')))}"):
            continue
        setup.append(result["ready"]["engine"] - t_launch)
        rss.append(result["maxrss_mb"])
        fell_back = (result["registry"].get("backend.fallbacks", 0)
                     or result["counters"]["backends"] != ["compiled"])
        for run in result["runs"]:
            reason = None
            if run["code"] != 0:
                reason = f"campaign exit {run['code']}"
            elif run.get("digest") != want:
                reason = f"guesses digest {run.get('digest')} != recorded {want}"
            elif ctx.workload == "dcgen" and fell_back:
                reason = f"compiled backend fell back: {result['counters']['backends']}"
            elif ctx.workload == "ordered" and not run.get("monotone"):
                reason = "ordered scores increase along the stream"
            if ctx.tally.op(reason is None, reason):
                seconds_taken = run["end"] - run["start"]
                durations.append(seconds_taken)
                rates.append(run["guesses"] / seconds_taken)
    return {"setup": setup, "durations": durations, "rates": rates, "rss": rss,
            "results": results, "unit": "guesses/s"}


# ----------------------------------------------------------------------
# train: `repro train` for a few epochs in several cold-started processes
# ----------------------------------------------------------------------

def train_pass(ctx: Context, corpus: tuple[Path, Path], processes: int, trace: bool,
               cold: int = 0) -> dict:
    import inputs

    want = ctx.expected["variants"][str(ctx.variant)]["train"]
    rows = len(corpus[0].read_text(encoding="utf-8").splitlines())
    cfg = inputs.TRAIN
    argv = ["train", "--input", str(corpus[0]), "--val", str(corpus[1]),
            "--out", "model.npz", "--state", "train-state.npz",
            "--dim", str(cfg["dim"]), "--layers", str(cfg["layers"]),
            "--heads", str(cfg["heads"]), "--batch-size", str(cfg["batch_size"]),
            "--lr", str(cfg["lr"]), "--epochs", str(cfg["epochs"]),
            "--seed", str(ctx.variant)]
    setup, durations, rates, rss, results = [], [], [], [], []
    for i in range(processes):
        setup += cold_starts(ctx, {"argv": argv}, cold, "fit")
        t_launch, result = ctx.run_child({"trace": trace, "argv": argv})
        results.append(result)
        # Epochs are timed where their state is written, so a process that
        # writes fewer states than it runs epochs must not pass unseen.
        timed = len(result.get("epochs", []))
        if not ctx.tally.op(
            "error" not in result and result.get("code") == 0
            and timed == cfg["epochs"] == len(want["train_loss"]),
            f"process {i}: {result.get('error', 'exit ' + str(result.get('code')))}, "
            f"{timed} of {cfg['epochs']} epochs timed",
        ):
            continue
        start = result["ready"]["fit"]
        setup.append(start - t_launch)
        rss.append(result["maxrss_mb"])
        for epoch, record in enumerate(result["epochs"]):
            ok = (record["train_loss"] == want["train_loss"][epoch]
                  and record["val_loss"] == want["val_loss"][epoch])
            if ctx.tally.op(ok, f"epoch {epoch} losses {record} != {want}"):
                durations.append(record["end"] - start)
                rates.append(rows / (record["end"] - start))
            start = record["end"]
    return {"setup": setup, "durations": durations, "rates": rates, "rss": rss,
            "results": results, "unit": "passwords/s"}


# ----------------------------------------------------------------------
# serve: `repro serve` in its own process, loaded over HTTP
# ----------------------------------------------------------------------

class Server:
    """A `repro serve` child; its stderr is read line by line."""

    def __init__(self, ctx: Context, checkpoint: Path, trace: bool, name: str) -> None:
        state = ctx.dir / f"state-{name}"
        argv = ["serve", "--checkpoint", str(checkpoint), "--state-dir", str(state),
                "--port", "0", "--fleet", "2"]
        self.ctx = ctx
        self.proc, self.t_launch, self.spec = ctx.launch(
            {"trace": trace, "argv": argv}, stderr=subprocess.PIPE
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.port = None
        self.t_ready = None

    def _read(self) -> None:
        for line in self.proc.stderr:
            self.lines.put((time.monotonic(), line))
        self.lines.put((time.monotonic(), None))

    def wait_ready(self, timeout: float = LOAD_TIMEOUT) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                t, line = self.lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                break
            if line is None:
                return False
            if line.startswith("serving on http://"):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                self.t_ready = t
                return True
        return False

    def stop(self) -> dict:
        """SIGTERM: the server drains and must exit 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        result = self.ctx.finish(self.proc, self.spec, timeout=30.0)
        self.reader.join(timeout=10.0)
        return result


def request(port: int, method: str, path: str, payload=None) -> tuple[int, bytes, float]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=LOAD_TIMEOUT)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        t0 = time.perf_counter()
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - t0
    finally:
        conn.close()


class LoadClient:
    """Closed loop: one thread keeps CONCURRENCY campaigns outstanding,
    one connection at a time, polling each at a fixed interval."""

    CONCURRENCY = 4
    POLL_INTERVAL = 0.02

    def __init__(self, ctx: Context, pool: dict, schedule: list) -> None:
        self.ctx = ctx
        self.port = 0
        self.pool = pool
        self.expected = ctx.expected["variants"][str(ctx.variant)]["serve"]
        self.schedule = iter(schedule)
        self.outstanding: list[dict] = []
        self.done: list[tuple[float, float]] = []  # correct requests: (finished at, latency)
        self.calls: dict[str, list[float]] = {"post": [], "poll": [], "fetch": []}
        self.polls = 0
        self.refused = 0
        self.generated = 0

    def _outcome(self, ok: bool, reason: str, t0: float) -> None:
        if self.ctx.tally.op(ok, reason):
            now = time.monotonic()
            self.done.append((now, now - t0))

    def submit(self) -> None:
        key, tenant = next(self.schedule)
        payload = {**self.pool[key], "tenant": tenant}
        t0 = time.monotonic()
        if key.startswith("score"):
            status, data, _ = request(self.port, "POST", "/score", payload)
            self.refused += status in (429, 503)
            got = json.loads(data) if status == 200 else {}
            want = self.expected[key]
            ok = all(got.get(field) == value for field, value in want.items())
            self._outcome(ok and not self.ctx.corrupt,
                          f"score {key}: HTTP {status} {got} != {want}", t0)
            return
        status, data, took = request(self.port, "POST", "/campaigns", payload)
        self.calls["post"].append(took)
        if status != 202:
            self.refused += status in (429, 503)
            self._outcome(False, f"POST {key}: HTTP {status} {data[:120]!r}", t0)
            return
        self.outstanding.append({"id": json.loads(data)["id"], "key": key, "t0": t0})

    def sweep(self) -> None:
        for job in list(self.outstanding):
            status, data, took = request(self.port, "GET", f"/campaigns/{job['id']}")
            self.calls["poll"].append(took)
            self.polls += 1
            state = json.loads(data).get("state") if status == 200 else None
            if state in ("queued", "running"):
                continue
            self.outstanding.remove(job)
            if state != "done":
                self._outcome(False, f"job {job['id']} ({job['key']}): state {state}", job["t0"])
                continue
            status, data, took = request(self.port, "GET", f"/campaigns/{job['id']}/guesses")
            self.calls["fetch"].append(took)
            if self.ctx.corrupt:
                data = b"#" + data[1:]
            self.generated += 1
            self._outcome(status == 200 and hashlib.sha256(data).hexdigest() == self.expected[job["key"]],
                          f"job {job['id']} ({job['key']}): guesses differ from the library's",
                          job["t0"])

    def drive(self, until: float, submissions: int = 0) -> tuple[float, float]:
        """Run the loop until ``until``.  Given ``submissions``, send
        exactly that many requests and return once all have finished,
        so every such pass sends the same requests.  Returns the
        window (start, end)."""
        start = time.monotonic()
        left = submissions or math.inf
        while True:
            now = time.monotonic()
            if now >= until or (left == 0 and not self.outstanding):
                return start, now
            while left and len(self.outstanding) < self.CONCURRENCY:
                self.submit()
                left -= 1
            time.sleep(self.POLL_INTERVAL)
            self.sweep()

    def drain(self, timeout: float = LOAD_TIMEOUT) -> None:
        deadline = time.monotonic() + timeout
        while self.outstanding and time.monotonic() < deadline:
            time.sleep(self.POLL_INTERVAL)
            self.sweep()
        for job in self.outstanding:
            self._outcome(False, f"job {job['id']} unfinished after drain timeout", job["t0"])


def serve_pass(ctx: Context, checkpoint: Path, seconds: float, trace: bool,
               cold_starts: int, fixed_requests: int = 0) -> dict:
    import inputs

    pool = inputs.serve_pool(ctx.variant)
    schedule = inputs.schedule(ctx.seed, pool, 100_000)
    setup = []
    t0 = time.monotonic()
    for i in range(cold_starts):
        server = Server(ctx, checkpoint, trace=False, name=f"cold{i}")
        ready = server.wait_ready()
        result = server.stop()
        if ctx.tally.op(ready and result.get("code") == 0 and "error" not in result,
                        f"cold start {i}: ready={ready} {result.get('error', result.get('code'))}"):
            setup.append(server.t_ready - server.t_launch)
    server = Server(ctx, checkpoint, trace=trace, name="load")
    client = LoadClient(ctx, pool, schedule)
    window, start, end = [], 0.0, 0.0
    try:
        if ctx.tally.op(server.wait_ready(), "the load server never printed its serving line"):
            setup.append(server.t_ready - server.t_launch)
            client.port = server.port
            # Warm-up: both fleet slots load the model before timing.
            client.drive(time.monotonic() + LOAD_TIMEOUT, submissions=2 * LoadClient.CONCURRENCY)
            warm = len(client.done)
            if fixed_requests:
                start, end = client.drive(time.monotonic() + LOAD_TIMEOUT, fixed_requests)
            else:
                start, end = client.drive(max(t0 + seconds, time.monotonic() + 2.0))
            window = [lat for t, lat in client.done[warm:] if t <= end]
            client.drain()
    finally:
        result = server.stop()
    ctx.tally.op(result.get("code") == 0 and "error" not in result,
                 f"server drain: exit {result.get('code')} {result.get('error', '')}")
    return {
        "setup": setup, "durations": window,
        "rates": [len(window) / (end - start)] if end > start else [],
        "rss": [result["maxrss_mb"]] if "maxrss_mb" in result else [],
        "results": [result], "unit": "req/s",
        "client": {
            "post": client.calls["post"], "poll": client.calls["poll"],
            "fetch": client.calls["fetch"], "polls": client.polls,
            "generated": client.generated, "refused": client.refused,
            "server_cpu_s": result.get("cpu_s", 0.0),
            "server_life_s": result.get("exit", time.monotonic()) - server.t_launch,
        },
    }


def merge(passes: list[dict]) -> dict:
    """One pass's worth of samples from several passes of a workload."""
    out = {"setup": [], "durations": [], "rates": [], "rss": [], "results": [],
           "unit": passes[0]["unit"]}
    client: dict = {}
    for one in passes:
        for key in ("setup", "durations", "rates", "rss", "results"):
            out[key] += one[key]
        for key, value in one.get("client", {}).items():
            client[key] = client.get(key, [] if isinstance(value, list) else 0) + value
    if client:
        out["client"] = client
    return out


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def end_to_end(measured: dict) -> dict:
    return {
        "setup_s": median(measured["setup"]),
        "throughput_per_s": median(measured["rates"]),
        "peak_rss_mb": median(measured["rss"]),
    }


def per_layer(ctx: Context, measured: dict, overhead_pct: float, calib: float) -> dict:
    import tracer

    out = {name: 0 for name in PER_LAYER}
    emitted = 0
    waits, slots = [], []  # per server job: admit -> running, running -> done
    for result in measured["results"]:
        if not result.get("spans") or not Path(result["spans"]).exists():
            continue
        spans = tracer.read_spans(Path(result["spans"]))
        totals = tracer.span_totals(spans)

        def total(name, key="s"):
            return totals.get(name, {}).get(key, 0)

        counters = result.get("counters", {})
        registry = result.get("registry", {})
        out["inference.prime.calls"] += counters.get("prime_calls", 0)
        out["inference.prime.positions"] += counters.get("prime_positions", 0)
        out["inference.prime.s"] += tracer.busy(spans, ("inference.start", "inference.extend"))
        out["inference.step.calls"] += counters.get("step_calls", 0)
        out["inference.step.rows"] += counters.get("step_rows", 0)
        out["inference.step.s"] += total("inference.step")
        out["backend.build_s"] += total("backend.build")
        out["backend.kernels_compiled"] += registry.get("backend.kernels_compiled", 0)
        out["backend.fallbacks"] += registry.get("backend.fallbacks", 0)
        out["kv.gather.calls"] += total("kv.gather", "calls")
        out["kv.gather.rows"] += total("kv.gather", "size")
        out["kv.gather.s"] += total("kv.gather")
        out["prompt_cache.hits"] += counters.get("prompt_cache_hits", 0)
        out["prompt_cache.misses"] += counters.get("prompt_cache_misses", 0)
        out["sampler.calls"] += sum(total(n, "calls") for n in SAMPLER_SPANS)
        out["sampler.rows"] += sum(total(n, "size") for n in SAMPLER_SPANS)
        out["sampler.s"] += tracer.busy(spans, SAMPLER_SPANS)
        out["dcgen.plan.s"] += total("dcgen.plan")
        out["dcgen.batches"] += total("dcgen.execute_batch", "calls")
        out["dcgen.execute.self_s"] += total("dcgen.execute_batch", "self_s")
        out["ordered.frontier.self_s"] += total("ordered.generate", "self_s")
        out["free.self_s"] += total("free.generate", "self_s")
        out["free.rows"] += total("free.generate", "size")
        out["journal.records"] += total("journal.record", "calls")
        out["journal.bytes"] += total("journal.record", "size")
        out["journal.record.s"] += total("journal.record")
        out["atomic.writes"] += total("atomic.write", "calls")
        out["atomic.bytes"] += total("atomic.write", "size")
        out["atomic.write.s"] += total("atomic.write")
        out["train.steps"] += registry.get("train.steps", 0)
        out["train.forward.s"] += sum(
            r[2] - r[1] for r in spans
            if r[0] == "train.loss" and not tracer.has_ancestor(spans, r, ("train.eval",))
        )
        out["train.backward.s"] += total("train.backward")
        out["train.optim.s"] += tracer.busy(spans, ("train.optim", "train.clip"))
        out["train.eval.s"] += total("train.eval")
        out["train.checkpoint.s"] += total("train.checkpoint")
        for stats in result.get("stats", []):
            if "leaves" in stats:  # DCGenStats
                out["dcgen.model_calls"] += stats["model_calls"]
            else:  # OrderedStats
                for field in ("rounds", "pops", "expansions", "truncated_nodes", "model_calls"):
                    out[f"ordered.{field}"] += stats[field]
                emitted += stats["emitted"]
        if ctx.workload == "serve":
            jobs: dict = {}
            for name, t0, t1, _, job, _, info, _ in spans:
                if name == "server.admit":
                    jobs.setdefault(job, {})["admitted"] = t1
                elif name == "server.set_state":
                    jobs.setdefault(job, {})[info] = t0
            waits += [j["running"] - j["admitted"] for j in jobs.values()
                      if "running" in j and "admitted" in j]
            slots += [j["done"] - j["running"] for j in jobs.values()
                      if "running" in j and "done" in j]
            out["server.failed"] += sum(1 for j in jobs.values() if "failed" in j)
    lookups = out["prompt_cache.hits"] + out["prompt_cache.misses"]
    out["prompt_cache.hit_ratio"] = out["prompt_cache.hits"] / lookups if lookups else 0.0
    pops = out["ordered.pops"]
    out["ordered.emitted_per_pop"] = emitted / pops if pops else 0.0
    out["server.queue_wait.p50_s"] = median(waits)
    out["server.slot.p50_s"] = median(slots)
    client = measured.get("client")
    if client is not None:
        out["server.post.p50_s"] = median(client["post"])
        out["server.poll.p50_s"] = median(client["poll"])
        out["server.fetch.p50_s"] = median(client["fetch"])
        out["server.polls_per_request"] = (
            client["polls"] / client["generated"] if client["generated"] else 0.0
        )
        out["server.refused"] = client["refused"]
        out["server.cpu_util"] = client["server_cpu_s"] / client["server_life_s"]
    out["process.cpu_s"] = sum(r.get("cpu_s", 0.0) for r in measured["results"])
    out["host.calib_s"] = calib
    out["trace.overhead_pct"] = overhead_pct
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def measure(ctx: Context, ready: dict, seconds: float, trace: bool, fixed: bool) -> dict:
    """One pass of the workload.  ``fixed`` sizes it by operation count
    instead of by ``seconds``, so the per-layer counts repeat exactly."""
    if fixed:
        processes, cold, runs, requests = 1, 0, 3, 40
    else:  # up to three measuring processes, each after two cold starts
        processes, cold, runs, requests = max(1, min(3, int(seconds) // 6)), 2, 0, 0
    if ctx.workload in ("dcgen", "ordered"):
        return campaign_pass(ctx, ready["checkpoint"], processes, seconds, trace,
                             fixed_runs=runs, cold=cold)
    if ctx.workload == "serve":
        return serve_pass(ctx, ready["checkpoint"], seconds, trace,
                          cold_starts=cold * processes, fixed_requests=requests)
    return train_pass(ctx, ready["corpus"], processes, trace, cold=cold)


def report(ctx: Context, metrics: dict, measured: dict, calib: float, trace: bool) -> None:
    tally = ctx.tally
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"perfbench {ctx.workload}: seed {ctx.seed} (input set {ctx.variant}), "
          f"{ctx.seconds} s, trace {int(trace)}")
    if not trace:
        durations = measured["durations"]
        n = len(durations)
        # The latencies are printed, not reported: with fixed work per
        # operation, or a fixed number outstanding, p50 mirrors throughput.
        printed = {**metrics, "latency_p50_s": median(durations)}
        units = {**END_TO_END, "throughput_per_s": measured["unit"], "latency_p50_s": "s"}
        notes = {
            "setup_s": f"median of {len(measured['setup'])} cold starts",
            "latency_p50_s": f"n={n}",
        }
        for name, value in printed.items():
            note = ", ".join(x for x in (ALIASES[ctx.workload].get(name), notes.get(name)) if x)
            print(f"  {name:17s} {value:.6g} {units[name]}" + (f"   ({note})" if note else ""))
        if ctx.workload == "serve":
            print(f"  latency_p90_s     {p90(durations):.6g} s   "
                  f"(n={n}, {n - math.ceil(0.9 * n)} beyond p90)")
    else:
        for name, value in metrics.items():
            if value:
                print(f"  {name:28s} {value:.6g} {PER_LAYER[name]}")
    print(f"  error_rate        {rate:.4f} fraction ({tally.failed}/{tally.attempted})")
    if not trace:
        print(f"  host.calib_s      {calib:.4f} s")
    for reason in tally.reasons[:10]:
        print(f"  FAILED: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test only: damage every output before it is checked")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import compileall

    # Pin this process, and so every child, to one CPU: on a shared 2-vCPU
    # host the second CPU comes and goes, which swung unpinned serve runs
    # far more than pinned ones.  The workloads are single-threaded (one
    # BLAS thread, workers 1); on serve the two fleet threads and the load
    # client share that CPU, so fleet parallelism goes unmeasured.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    calib = calibrate()
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    # A SIGTERM unwinds through the cleanup below instead of orphaning children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ctx = Context(args.workload, args.seed, args.seconds, args.corrupt)
    try:
        import inputs

        ready: dict = {}
        if args.workload == "train":
            ready["corpus"] = inputs.write_corpus(ctx.variant, ctx.dir)
        else:
            ready["checkpoint"] = prep_checkpoint(ctx, compiled=args.workload == "dcgen")
        if not args.trace:
            measured = measure(ctx, ready, args.seconds, trace=False, fixed=False)
            metrics = end_to_end(measured)
            empty = [name for name, value in metrics.items() if not value > 0]
        else:
            # Fixed-size passes, untraced and traced in turn: the gap
            # between their medians is the tracing overhead.
            plain, traced = [], []
            for _ in range(2):
                plain.append(measure(ctx, ready, args.seconds, trace=False, fixed=True))
                traced.append(measure(ctx, ready, args.seconds, trace=True, fixed=True))
            plain, traced = merge(plain), merge(traced)
            base = median(plain["durations"])
            overhead = (median(traced["durations"]) / base - 1.0) * 100.0 if base else 0.0
            metrics = per_layer(ctx, traced, overhead, calib)
            keep = WORK / f"trace-{args.workload}"
            shutil.rmtree(keep, ignore_errors=True)
            keep.mkdir(parents=True)
            for path in ctx.dir.glob("*.spans.jsonl"):
                shutil.copy(path, keep / path.name)
            measured = traced
            empty = [f"{kind} passes" for kind, one in (("untraced", plain), ("traced", traced))
                     if not one["durations"]]
        if empty:  # a metric with no samples reads 0, which would pass as a gain
            ctx.tally.op(False, f"no timed samples: {', '.join(empty)}")
        report(ctx, metrics, measured, calib, bool(args.trace))
    finally:
        ctx.stop_all()
        shutil.rmtree(ctx.dir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    tally = ctx.tally
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
