"""Multiprocess execution backend for campaign tasks.

D&C-GEN's subtasks are non-overlapping (§III-C2), which makes leaf
execution embarrassingly parallel — the paper runs it across 4 GPUs.
Here planning stays serial in the parent (it is model-bound and cheap),
and the campaign runner (:class:`repro.generation.campaign.Tasks`) hands
the resulting task list — D&C-GEN leaf batches or free-sampling chunks —
to :func:`run_pool`, the one pool entry point, which shards it across a
process pool.

Because every task carries its own seed material (a leaf draws from
``(base_seed, task_id)``, a free chunk from ``(base_seed, chunk)``),
the merged stream is byte-identical to the serial path for any worker
count — the equivalence harness in ``tests/test_generation_parallel.py``
enforces this.

Weight sharing
--------------

* With the ``fork`` start method (Linux default) workers inherit the
  parent's model snapshot copy-on-write: the parent touches
  ``model.inference`` and ``model.prompt_cache`` once before forking so
  no worker rebuilds them — prompts primed in the parent (the D&C-GEN
  divide phase warms every pattern's ``<BOS> pattern <SEP>``) are never
  re-primed by workers.
* Without ``fork`` (e.g. spawn on macOS/Windows) the parent writes the
  weights once to a temporary ``repro.nn.serialization`` checkpoint and
  each worker rebuilds the model from that blob at pool init.

Failure handling
----------------

Tasks run under :func:`repro.runtime.retry.supervised_map`: worker
exceptions are caught *inside* the worker and reported per task, so a
single failed or hung task is retried (with backoff, a hung pool being
killed and rebuilt) while every completed result is kept.
``on_result`` callbacks fire in the parent as each task completes,
which is where the campaign runner journals progress
(:mod:`repro.runtime.journal`).  Tasks the pool gives up on are handed
back, and the campaign runner runs them serially in the parent.

Fault injection (:mod:`repro.runtime.faults`): every worker task passes
through ``maybe_fail("worker", index)``, so ``REPRO_FAULT=crash:worker``
(no count, no state dir) fails every worker task — and never the
runner's serial path, which runs the task body directly.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .. import telemetry
from ..runtime import maybe_fail, signals, supervised_map

if TYPE_CHECKING:  # imported lazily to avoid a models <-> generation cycle
    from ..models.pagpassgpt import GPTGuesser

@dataclass
class _WorkerContext:
    """Read-only state each worker needs: model, tasks, task body, seed."""

    model: "GPTGuesser"
    tasks: Sequence
    execute: Callable
    base_seed: int


#: Set in the parent before forking (inherited copy-on-write) or rebuilt
#: by :func:`_init_from_checkpoint` under non-fork start methods.
_CTX: Optional[_WorkerContext] = None


def _parent_telemetry_args() -> Optional[tuple[str, str, str, Optional[dict]]]:
    """Session init args to ship to workers, or ``None`` (telemetry off).

    The trace ref pins the worker session into the parent's trace: its
    root spans attach under whatever span is open at pool start (the
    campaign span), so the merged streams form one connected tree.
    """
    sess = telemetry.active()
    if sess is None:
        return None
    return (str(sess.dir), sess.run_id, sess.level, sess.trace_ref())


def _init_worker(tele: Optional[tuple[str, str, str, Optional[dict]]]) -> None:
    """Pool initializer for the fork path (the model arrives
    copy-on-write) and first step of :func:`_init_from_checkpoint`.

    Opens this worker's own ``telemetry-worker-<pid>.jsonl`` stream,
    replacing any session inherited via fork (the parent's stream must
    only ever be written by the parent) and marking the metrics
    registry, so everything the worker reports is its own delta.  The
    shipped trace ref (works for fork and spawn alike — it rides the
    initargs) makes the worker a remote child of the parent's campaign
    span.
    """
    signals.ignore_in_worker()
    if tele is not None:
        directory, run_id, level, trace = tele
        telemetry.start_session(
            directory,
            run_id=run_id,
            worker=os.getpid(),
            level=level,
            context=telemetry.TraceContext.from_dict(trace),
        )


def _init_from_checkpoint(
    model_cls, path, tokenizer, sampler, tasks, execute, base_seed, tele=None
) -> None:
    """Pool initializer for non-fork start methods.

    Rebuilds the model once per worker from an explicit weight blob (a
    ``model_cls.save`` checkpoint written by the parent).
    """
    global _CTX
    _init_worker(tele)
    model = model_cls.load(path)
    model.tokenizer = tokenizer
    model.sampler = sampler
    _CTX = _WorkerContext(model=model, tasks=tasks, execute=execute, base_seed=base_seed)


def _run_task(index: int) -> tuple[int, bool, object]:
    """Worker body: run task ``index`` into an ``(index, ok, value)`` record.

    Any raise becomes a per-task failure record.  Catching
    ``BaseException`` is deliberate: injected faults derive from it, and
    the supervisor must be able to attribute *any* worker failure to its
    task index rather than lose the whole map.
    """
    try:
        maybe_fail("worker", index)
        ctx = _CTX
        assert ctx is not None, "worker context not initialised"
        result = (index, True, ctx.execute(ctx.model, ctx.tasks[index], ctx.base_seed))
    except BaseException as exc:  # noqa: BLE001 — see docstring
        return (index, False, f"{type(exc).__name__}: {exc}")
    # Refresh this worker's final metrics snapshot after every completed
    # task: workers die by Pool.terminate(), so there is no shutdown hook
    # — the last snapshot written is the worker's final accounting.
    sess = telemetry.active()
    if sess is not None and sess.worker is not None:
        sess.emit_metrics()
    return result


def run_pool(
    model: "GPTGuesser",
    tasks: Sequence,
    execute: Callable,
    base_seed: int,
    workers: int,
    on_result: Callable[[int, object], None],
    start_method: Optional[str] = None,
    context: str = "parallel execution",
    stop: Optional[Callable[[], None]] = None,
) -> dict[int, Optional[str]]:
    """Run ``execute(model, task, base_seed)`` for every task on a pool.

    ``execute`` must be a module-level function (spawned workers receive
    it by reference).  ``on_result(index, result)`` fires once per task
    the pool completes, as it completes (unordered).  Returns the tasks
    the pool gave up on, ``{index: last error}``, for the caller to run
    (see :func:`repro.runtime.retry.supervised_map`); empty ``tasks``
    returns ``{}`` without spinning up a pool.

    ``stop`` (e.g. ``Budget.stopper``) is polled while waiting on worker
    results so deadlines and graceful-shutdown signals interrupt the map
    mid-wait; the supervisor terminates and reaps the pool on the way
    out.
    """
    global _CTX
    if not tasks:
        return {}
    tasks = tuple(tasks)
    if start_method is None:
        methods = mp.get_all_start_methods()
        start_method = "fork" if "fork" in methods else mp.get_start_method()
    # Build the weight snapshot and prompt-KV cache once, before any
    # fork, so workers inherit them copy-on-write.  Under
    # REPRO_BACKEND=compiled this also renders+compiles (or cache-loads)
    # the fused decode kernels in the parent: forked workers inherit the
    # loaded shared library and bound weight pointers COW and never
    # touch the compiler; spawned workers re-resolve via the on-disk
    # kernel cache instead (the env var travels with them).
    model.inference
    model.prompt_cache
    workers = max(1, min(workers, len(tasks)))
    tele = _parent_telemetry_args()

    def supervise(factory: Callable) -> dict[int, Optional[str]]:
        return supervised_map(factory, _run_task, len(tasks), on_result, context, stop)

    if start_method == "fork":
        ctx = mp.get_context("fork")
        _CTX = _WorkerContext(model=model, tasks=tasks, execute=execute, base_seed=base_seed)
        try:
            return supervise(
                lambda: ctx.Pool(
                    processes=workers, initializer=_init_worker, initargs=(tele,)
                )
            )
        finally:
            _CTX = None

    # Non-fork start method: ship an explicit weight blob once per worker.
    # The blob outlives any single pool so a post-timeout rebuild can
    # re-initialise fresh workers from it.
    ctx = mp.get_context(start_method)
    with tempfile.TemporaryDirectory(prefix="repro-parallel-") as tmp:
        path = Path(tmp) / "weights.npz"
        model.save(path)
        return supervise(
            lambda: ctx.Pool(
                processes=workers,
                initializer=_init_from_checkpoint,
                initargs=(type(model), str(path), model.tokenizer, model.sampler, tasks,
                          execute, base_seed, tele),
            )
        )
