"""Randomized chaos harness: crash anywhere, resume exactly.

The fault-tolerance tests exercise hand-picked fault sites; this module
generalises them into a *property*: for a seeded random schedule of
faults — process crashes, wedged workers, torn journal tails, disk
exhaustion, SIGTERM — across every generation strategy and worker
count, an interrupted-then-resumed campaign must produce a guess stream
**byte-identical** to an undisturbed reference run, with ``telemetry
summarize --check`` holding on the resumed leg.

One case model serves two surfaces.  Every :class:`ChaosCase` of
:func:`build_schedule` is judged against one cached reference run
(numpy backend, one worker) by one verdict into one :class:`CaseResult`
of one :class:`ChaosReport`.  Fault and resume legs take the default
backend and the case's worker count, so each case also holds the C
kernels and the pool to the numpy serial stream.

* :func:`run_chaos` runs each case as in-process CLI legs (the same
  ``cli.main`` the operator runs): the campaign with its one-shot fault
  armed, then ``--resume`` with the fault cleared.
* :func:`run_server_soak` runs each case as one request to a live
  ``CampaignServer`` under a worker crash and a SIGTERM drain; a fresh
  server over the same state directory must finish every request.

Faults fire via the :mod:`repro.runtime.faults` environment directives
with a state directory, so every directive is one-shot.  An injected
hang sleeps far longer than the short ``REPRO_TASK_TIMEOUT`` watchdog
every leg arms, so the watchdog ends it and a case takes seconds, not
minutes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import os
import random
import signal as _stdlib_signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from . import faults, signals
from .faults import FAULT_ENV, FAULT_STATE_ENV, InjectedFault, corrupt_file
from .retry import TASK_TIMEOUT_ENV

#: Default guesses per strategy — enough journaled units for the random
#: fault count to land at several distinct boundaries, small enough that
#: a full sweep stays CI-sized.
DEFAULT_N = {"sampled": 1200, "dcgen": 800, "ordered": 200}

#: Exit codes a chaos leg may legitimately end with (see docs/API.md):
#: 0 completed (hangs are survivable), 1 runtime failure (disk full),
#: 3 deadline/budget, 4 signal.
_ACCEPTABLE_CHAOS_EXITS = {0, 1, 3, 4}

#: The parent-side durable boundary each strategy journals at.
_SITE = {"sampled": "free_chunk", "dcgen": "leaf_batch", "ordered": "frontier"}

#: The hang watchdog every leg arms: injected hangs sleep far longer.
_TASK_TIMEOUT = 2.0

#: The server soak's one fault: the first pool task of the first
#: campaign that reaches the pool crashes once (its retry succeeds).
SOAK_FAULT = "crash:worker:0"


@dataclass(frozen=True)
class ChaosCase:
    """One seeded schedule: a campaign shape plus a fault to inject."""

    case_id: int
    strategy: str  # sampled | dcgen | ordered
    workers: int
    seed: int  # campaign seed (feeds --seed)
    fault: str  # REPRO_FAULT directive, "corrupt_tail" (harness-applied), or "none"

    def describe(self) -> str:
        return (
            f"case {self.case_id}: {self.strategy} workers={self.workers} "
            f"seed={self.seed} fault={self.fault}"
        )


@dataclass
class CaseResult:
    """Verdict for one case on either surface."""

    case: ChaosCase
    #: How the faulted leg ended: ``exit:N`` / ``raise:Exc`` for a CLI
    #: leg, ``job:<state>`` for a request when the soak's phase 1 drained.
    chaos_outcome: str = ""
    #: How the resume leg ended, in the same notation (empty when the
    #: faulted leg already completed and there was nothing to resume).
    resume_outcome: str = ""
    identical: Optional[bool] = None  # None until the stream is compared
    check_ok: Optional[bool] = None  # None when no resumed session was checked
    repair_exit: Optional[int] = None
    failure: Optional[str] = None  # None = invariant held

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return {**out.pop("case"), **out}


@dataclass
class ChaosReport:
    """What ``repro chaos`` writes to its JSON report, for either surface."""

    cases: list[CaseResult] = field(default_factory=list)
    #: One drain summary per server lifetime (server soak only).
    drains: list[dict] = field(default_factory=list)
    #: Failures of the run as a whole rather than of one case.
    harness_failures: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[str]:
        return self.harness_failures + [
            f"{r.case.describe()}: {r.failure}" for r in self.cases if not r.ok
        ]

    @property
    def ok(self) -> bool:
        return bool(self.cases) and not self.failures

    def to_dict(self) -> dict:
        return {
            "total": len(self.cases),
            "failed": len(self.failures),
            "ok": self.ok,
            "cases": [r.to_dict() for r in self.cases],
            "drains": self.drains,
            "failures": self.failures,
        }


def _fault_menu(strategy: str, workers: int) -> list[str]:
    """Fault directives applicable to a campaign shape.

    Site choice follows where the strategy journals: ``free_chunk`` /
    ``leaf_batch`` / ``frontier`` are the parent-side durable boundaries,
    ``journal`` is the disk-full site, ``worker`` only exists on the pool
    path (``workers > 1``).  ``corrupt_tail`` is applied by the harness
    to the journal a crash leaves behind.
    """
    site = _SITE[strategy]
    menu = [
        f"crash:{site}:K",
        f"signal:{site}:K",
        "disk_full:journal:K",
        "corrupt_tail",
    ]
    if workers > 1:
        menu.append("hang:worker:K")
        menu.append("crash:worker:K")
    return menu


def build_schedule(
    base_seed: int,
    strategies: list[str],
    workers_list: list[int],
    per_strategy: int,
) -> list[ChaosCase]:
    """The deterministic case list a seed expands to.

    Every (strategy, workers) pair gets ``per_strategy`` cases; faults
    and counts are drawn from ``random.Random(base_seed)``, so the same
    seed always replays the same schedule (the CI smoke and a failing
    case's repro command depend on this).
    """
    rng = random.Random(base_seed)
    cases: list[ChaosCase] = []
    for strategy in strategies:
        for workers in workers_list:
            if strategy == "ordered" and workers > 1:
                continue  # ordered enumeration is serial by design
            for _ in range(per_strategy):
                fault = rng.choice(_fault_menu(strategy, workers))
                fault = fault.replace(":K", f":{rng.randrange(0, 3)}")
                cases.append(
                    ChaosCase(
                        case_id=len(cases),
                        strategy=strategy,
                        workers=workers,
                        seed=rng.randrange(0, 1_000_000),
                        fault=fault,
                    )
                )
    return cases


def _setenv(values: dict) -> None:
    for key, value in values.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


@contextmanager
def _environ(**values: Optional[str]):
    """Set (``None``: unset) environment variables for a block."""
    saved = {key: os.environ.get(key) for key in values}
    _setenv(values)
    try:
        yield
    finally:
        _setenv(saved)


def _armed(fault: Optional[str], state_dir: Optional[Path] = None):
    """The environment of one leg: ``fault`` armed one-shot under
    ``state_dir``, or every fault cleared when ``fault`` is ``None``.
    The task watchdog is short either way, so a hang costs seconds."""
    return _environ(**{
        FAULT_ENV: fault,
        FAULT_STATE_ENV: None if fault is None else str(state_dir),
        TASK_TIMEOUT_ENV: str(_TASK_TIMEOUT),
    })


def _run_cli(argv: list[str]) -> tuple[Optional[int], Optional[BaseException]]:
    """One in-process CLI leg; returns ``(exit_code, exception)``.

    An injected fault deliberately escapes ``cli.main`` the way a real
    crash would escape the process; everything else, a full disk
    included, is an exit code.  Fault counters and any pending signal
    state are reset after the leg so legs stay independent.
    """
    from .. import cli  # lazy: cli imports this package

    try:
        return cli.main(argv), None
    except InjectedFault as exc:
        return None, exc
    finally:
        faults.reset()
        signals.reset()


def _outcome(code: Optional[int], exc: Optional[BaseException]) -> str:
    return f"raise:{type(exc).__name__}" if exc is not None else f"exit:{code}"


def _generate_argv(checkpoint, case: ChaosCase, n: int) -> list[str]:
    """The case's campaign as ``repro generate`` flags (no workers)."""
    argv = [
        "generate", "--checkpoint", str(checkpoint), "-n", str(n),
        "--seed", str(case.seed), "--strategy", case.strategy,
    ]
    if case.strategy == "dcgen":
        argv += ["--threshold", "32"]
    if case.strategy == "ordered":
        argv += ["--beam-width", "8", "--max-frontier", "4000", "--snapshot-every", "2"]
    return argv


def _reference(checkpoint, workdir: Path, case: ChaosCase, n: int, cache: dict) -> bytes:
    """The undisturbed stream of a case's campaign on the numpy backend
    with one worker, cached per ``(strategy, seed, n)``: backend and
    worker count must never change the bytes, so one run serves every
    case of that campaign."""
    from ..nn.backend import BACKEND_ENV  # lazy: nn imports runtime

    key = (case.strategy, case.seed, n)
    if key not in cache:
        out = workdir / "reference-{}-{}-{}.txt".format(*key)
        with _environ(**{BACKEND_ENV: "numpy"}):
            code, exc = _run_cli(
                _generate_argv(checkpoint, case, n) + ["--workers", "1", "--out", str(out)]
            )
        if exc is not None or code != 0:
            raise RuntimeError(f"reference run failed: {_outcome(code, exc)}")
        cache[key] = out.read_bytes()
    return cache[key]


def _verdict(result: CaseResult, out: bytes, reference: bytes, tele: Optional[Path]) -> None:
    """The one acceptance bar: bytes equal to the reference, then
    ``telemetry summarize --check`` over the resumed session ``tele``
    (``None`` when the faulted leg itself completed untraced)."""
    result.identical = out == reference
    if not result.identical:
        result.failure = (
            f"guess stream differs from the numpy reference run "
            f"({len(out)} vs {len(reference)} bytes)"
        )
        return
    if tele is None:
        return
    code, exc = _run_cli(["telemetry", "summarize", str(tele), "--check"])
    result.check_ok = exc is None and code == 0
    if not result.check_ok:
        result.failure = "telemetry summarize --check failed on the resumed session"


def run_case(
    case: ChaosCase,
    checkpoint: str | Path,
    workdir: Path,
    n: Optional[int] = None,
    reference_cache: Optional[dict] = None,
) -> CaseResult:
    """Execute one chaos case end to end; never raises for a held/failed
    invariant (the verdict lives in the returned :class:`CaseResult`)."""
    result = CaseResult(case)
    n = n if n is not None else DEFAULT_N[case.strategy]
    casedir = workdir / f"case-{case.case_id}"
    casedir.mkdir(parents=True, exist_ok=True)
    try:
        reference = _reference(
            checkpoint, workdir, case, n, {} if reference_cache is None else reference_cache
        )
    except RuntimeError as exc:
        result.failure = str(exc)
        return result

    # The faulted leg.  ``corrupt_tail`` crashes at a deterministic site
    # first, then tears the tail of the journal the crash leaves behind.
    out = casedir / "out.txt"
    journal = casedir / "run.journal.jsonl"
    leg = _generate_argv(checkpoint, case, n) + [
        "--workers", str(case.workers), "--out", str(out), "--journal", str(journal),
    ]
    fault = f"crash:{_SITE[case.strategy]}:1" if case.fault == "corrupt_tail" else case.fault
    with _armed(fault, casedir / "fault-state"):
        code, exc = _run_cli(leg)
    result.chaos_outcome = _outcome(code, exc)
    if exc is None and code not in _ACCEPTABLE_CHAOS_EXITS:
        result.failure = f"chaos leg ended with unexpected exit code {code}"
        return result
    if exc is None and code == 0:
        # Survived (e.g. a hang): nothing to resume; the disturbed run
        # itself must match the reference.
        _verdict(result, out.read_bytes(), reference, None)
        return result

    if case.fault == "corrupt_tail" and journal.exists():
        corrupt_file(journal, keep_fraction=0.7)
        result.repair_exit, _ = _run_cli(["verify", str(journal), "--repair"])
        if result.repair_exit == 2:
            # Unrepairable (tear reached the header): the documented
            # operator flow is to discard the journal and rerun.
            journal.unlink()

    # The resume leg, fault cleared, into a fresh telemetry dir so the
    # summarize --check accounting covers exactly the resumed process.
    tele = casedir / "tele-resume"
    with _armed(None):
        code, exc = _run_cli(leg + ["--resume", "--telemetry", str(tele)])
    result.resume_outcome = _outcome(code, exc)
    if exc is not None or code != 0:
        result.failure = f"resume leg failed: {result.resume_outcome} {exc or ''}".rstrip()
        return result
    _verdict(result, out.read_bytes(), reference, tele)
    if result.ok and journal.exists():
        result.failure = "spent journal not cleaned up after successful resume"
    return result


def _say(log: Optional[Callable[[str], None]], message: str) -> None:
    if log is not None:
        log(message)


def _verdict_line(result: CaseResult) -> str:
    verdict = "ok" if result.ok else f"FAIL ({result.failure})"
    return f"  -> {result.chaos_outcome}, resume {result.resume_outcome or '-'}: {verdict}"


def run_chaos(
    checkpoint: str | Path,
    workdir: str | Path,
    base_seed: int = 0,
    strategies: Optional[list[str]] = None,
    workers_list: Optional[list[int]] = None,
    per_strategy: int = 2,
    n: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run a full seeded chaos sweep; returns the per-case report.

    ``per_strategy`` cases are run for every (strategy, workers) shape —
    the acceptance sweep uses ≥ 20, the CI smoke 1-2.  ``n`` overrides
    the per-strategy guess budget (tests use tiny budgets).
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cases = build_schedule(
        base_seed, strategies or list(DEFAULT_N), workers_list or [1, 2], per_strategy
    )
    report = ChaosReport()
    references: dict = {}
    for case in cases:
        _say(log, case.describe())
        result = run_case(case, checkpoint, workdir, n=n, reference_cache=references)
        report.cases.append(result)
        _say(log, _verdict_line(result))
    return report


# ----------------------------------------------------------------------
# Server soak: the schedule's cases as requests to a live server
# ----------------------------------------------------------------------


class _ServerThread:
    """One server lifetime on a background thread with its own loop."""

    def __init__(self, config) -> None:
        from ..server import CampaignServer  # lazy: server imports runtime

        self.server = CampaignServer(config)
        self.summary: Optional[dict] = None
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(
            target=self._run, daemon=True, name="soak-server"
        )

    def _run(self) -> None:
        try:
            self.summary = asyncio.run(self.server.serve_forever())
        except BaseException as exc:  # noqa: BLE001 — surfaced by start()/drain()
            self.error = exc

    def start(self, timeout: float = 60.0) -> int:
        self.thread.start()
        deadline = time.monotonic() + timeout
        while not self.server.ready.is_set():
            if not self.thread.is_alive():
                raise RuntimeError(f"server died during startup: {self.error!r}")
            if time.monotonic() > deadline:
                raise RuntimeError("server failed to become ready in time")
            time.sleep(0.02)
        return int(self.server.port)

    def drain(self, timeout: float = 300.0) -> dict:
        """Drain the way SIGTERM does: running jobs checkpoint at their
        next durable boundary.  The stop request is cleared after the
        join so later legs in this process start clean."""
        signals.request(_stdlib_signal.SIGTERM)
        try:
            self.thread.join(timeout)
        finally:
            signals.reset()
        if self.thread.is_alive():
            raise RuntimeError("server did not drain in time")
        if self.error is not None:
            raise self.error
        return self.summary or {}


def _http_request(port: int, method: str, path: str, payload=None, timeout=30.0):
    """One request against the soak server; returns (status, bytes, retry_after)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, data, response.getheader("Retry-After")
    finally:
        conn.close()


def _http_json(port: int, method: str, path: str, payload=None):
    status, data, retry_after = _http_request(port, method, path, payload)
    return status, json.loads(data.decode("utf-8") or "null"), retry_after


def _reaches_pool(case: ChaosCase, n: int) -> bool:
    """Whether a campaign hands tasks to the worker pool: ``Tasks.run``
    pools only with ``workers > 1`` and more than one task, and free
    sampling has one task per ``GEN_BATCH`` rows (the soak's fault check
    catches a D&C-GEN plan with a single leaf batch)."""
    from ..generation.sampler import GEN_BATCH  # lazy: generation imports runtime

    return case.workers > 1 and (case.strategy == "dcgen" or n > GEN_BATCH)


def _submit(port, tenant, cases, sizes, accepted, errors, lock) -> None:
    """One client: submit each case's campaign as ``tenant``, retrying
    through 429/503."""
    for case in cases:
        payload = {"tenant": tenant, "strategy": case.strategy, "workers": case.workers,
                   "n": sizes[case.case_id], "seed": case.seed}
        if case.strategy == "dcgen":
            payload["threshold"] = 32  # as in _generate_argv
        for _attempt in range(50):
            try:
                status, obj, retry_after = _http_json(port, "POST", "/campaigns", payload)
            except OSError as exc:
                with lock:
                    errors.append(f"submit failed for case {case.case_id}: {exc}")
                return
            if status == 202:
                with lock:
                    accepted[int(obj["id"])] = case
                break
            if status in (429, 503):
                # Honour Retry-After, capped so the soak stays CI-sized.
                time.sleep(min(float(retry_after or 1.0), 0.2))
                continue
            with lock:
                errors.append(f"unexpected status {status} for case {case.case_id}: {obj}")
            return
        else:
            with lock:
                errors.append(f"submission retries exhausted for case {case.case_id}")


def _wait(port: int, settled: Callable[[dict], bool], path: str, timeout: float) -> bool:
    """Poll ``GET path`` until ``settled(body)``; False on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body, _ = _http_json(port, "GET", path)
        if settled(body):
            return True
        time.sleep(0.05)
    return False


def run_server_soak(
    checkpoint: str | Path,
    workdir: str | Path,
    base_seed: int = 0,
    strategies: Optional[list[str]] = None,
    workers_list: Optional[list[int]] = None,
    per_strategy: int = 2,
    n: Optional[int] = None,
    clients: int = 2,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Soak a live campaign server with one request per schedule case.

    Ordered cases are left out: a server job runs ``OrderedConfig()``,
    which no request can change.  The first case that reaches the worker
    pool hosts :data:`SOAK_FAULT` and is submitted alone, so it runs
    first; ``clients`` threads submit the rest under a tiny per-tenant
    queue cap.  Once the fault has fired the server drains as on SIGTERM,
    so the host and whatever else is unfinished checkpoint, and a fresh
    server over the same state directory must finish every accepted
    request: ``done`` with the reference bytes, or a typed failure.  A
    fault that never fires, or no case to host it, fails it.
    """
    from ..server import ServerConfig  # lazy: server imports runtime

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    clients = max(1, clients)
    strategies = [s for s in strategies or list(DEFAULT_N) if s != "ordered"]
    cases = build_schedule(base_seed, strategies, workers_list or [1, 2], per_strategy)
    sizes = {case.case_id: n if n is not None else DEFAULT_N[case.strategy] for case in cases}
    report = ChaosReport()
    host = next((c for c in cases if _reaches_pool(c, sizes[c.case_id])), None)
    if host is None:
        report.harness_failures.append(
            "no case reaches the worker pool, so the soak's fault cannot fire"
        )
        return report
    # Every request shares the server's environment, so the soak's one
    # fault is the host's; the drain disturbs the rest.
    cases = [dataclasses.replace(c, fault=SOAK_FAULT if c == host else "none") for c in cases]
    host, others = cases[host.case_id], [c for c in cases if c.case_id != host.case_id]
    _say(log, f"server soak: {len(cases)} request(s), {clients} client(s), "
              f"fault {SOAK_FAULT} on case {host.case_id}, seed {base_seed}")
    references: dict = {}
    for case in cases:  # before the server starts: each sets the backend variable
        _reference(checkpoint, workdir, case, sizes[case.case_id], references)

    state_dir = workdir / "state"
    fault_state = workdir / "fault-state"
    config = dict(
        checkpoint=str(checkpoint),
        state_dir=str(state_dir),
        port=0,
        job_telemetry=True,  # per-job sessions are audited
        max_tenant_queue=2,  # small on purpose: clients must absorb 429s
        rate=1000.0,
        burst=1000.0,
        poll_interval=0.02,
    )

    # ------------------------------------------------------------- phase 1
    accepted: dict[int, ChaosCase] = {}  # job id -> case
    errors: list[str] = []
    lock = threading.Lock()
    runner = _ServerThread(ServerConfig(**config))
    with _armed(SOAK_FAULT, fault_state):
        try:
            port = runner.start()
            _say(log, f"  phase 1: serving on port {port}")
            _submit(port, "tenant-0", [host], sizes, accepted, errors, lock)
            threads = []
            for client in range(clients):
                thread = threading.Thread(
                    target=_submit, name=f"soak-client-{client}",
                    args=(port, f"tenant-{client}", others[client::clients], sizes,
                          accepted, errors, lock),
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(60.0)
            # Drain once the fault has fired, while the host still runs:
            # on two fleet slots the other requests can all finish before
            # the host does, and the drain must leave phase 2 work to recover.
            deadline = time.monotonic() + 120.0
            while not any(fault_state.glob("*.tripped")) and time.monotonic() < deadline:
                time.sleep(0.01)
            summary = runner.drain()
            report.drains.append(summary)
            _say(log, f"  phase 1: drained ({summary.get('reason')}) "
                      f"jobs={summary.get('jobs')}")
        finally:
            faults.reset()
    report.harness_failures.extend(errors)
    if len(accepted) != len(cases):
        report.harness_failures.append(f"accepted {len(accepted)} of {len(cases)} submissions")
    if not any(fault_state.glob("*.tripped")):
        report.harness_failures.append(f"fault {SOAK_FAULT} never fired in phase 1")
    phase1 = {job_id: job.state for job_id, job in runner.server.store.jobs.items()}

    # ------------------------------------------------------------- phase 2
    with _armed(None):
        runner = _ServerThread(ServerConfig(**config))
        try:
            port = runner.start()
            _say(log, f"  phase 2: recovered server on port {port}")
            if not _wait(port, lambda s: s["jobs"]["queued"] == s["jobs"]["running"] == 0,
                         "/status", 300.0):
                report.harness_failures.append(
                    "phase 2 timed out waiting for recovered jobs to settle"
                )
            # The synchronous scoring path must serve while campaigns do.
            status, score, _ = _http_json(
                port, "POST", "/score",
                {"guesses": ["password", "hunter2"], "test": ["password", "zzz"]},
            )
            if status != 200 or "hit_rate" not in score:
                report.harness_failures.append(
                    f"score request failed: status={status} body={score}"
                )
            # No phantom requests: the server's journal must list exactly
            # the accepted campaign submissions (plus the score job).
            _, listing, _ = _http_json(port, "GET", "/campaigns")
            journaled = sorted(
                entry["id"] for entry in listing["requests"]
                if entry["kind"] == "generate"
            )
            if journaled != sorted(accepted):
                report.harness_failures.append(
                    f"journaled requests {journaled} != accepted {sorted(accepted)}"
                )
            for job_id, case in sorted(accepted.items()):
                result = CaseResult(case, chaos_outcome=f"job:{phase1[job_id]}")
                reference = _reference(checkpoint, workdir, case, sizes[case.case_id], references)
                _job_verdict(port, state_dir, job_id, result, reference)
                report.cases.append(result)
                _say(log, f"  request {job_id} ({result.case.describe()})")
                _say(log, _verdict_line(result))
            summary = runner.drain()
            report.drains.append(summary)
            _say(log, f"  phase 2: drained ({summary.get('reason')})")
        except BaseException as exc:
            report.harness_failures.append(f"phase 2 harness error: {exc!r}")
            try:
                runner.drain(timeout=30.0)
            except BaseException:
                pass
    return report


def _job_verdict(port, state_dir: Path, job_id: int, result: CaseResult, reference: bytes) -> None:
    """Judge one recovered request by the shared verdict."""
    _, job, _ = _http_json(port, "GET", f"/campaigns/{job_id}")
    detail = job.get("detail", {})
    result.resume_outcome = f"job:{job['state']}"
    if job["state"] == "done":
        _, data, _ = _http_request(port, "GET", f"/campaigns/{job_id}/guesses")
        _verdict(result, data, reference, state_dir / "jobs" / f"{job_id:06d}" / "tele")
    elif job["state"] == "failed" and detail.get("error"):
        # A typed failure is an acceptable (reported) outcome.
        result.resume_outcome += f":{detail['error']}"
    else:
        result.failure = (
            f"request ended {job['state']!r} with detail {detail!r} "
            f"instead of done or a typed failure"
        )
