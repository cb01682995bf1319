"""Benchmark-owned span tracing around the program's public functions.

Every wrapper is installed from this file by replacing a name where its
caller looks it up (a class attribute, or a module global of the calling
module), so the library itself carries no benchmark code.  Spans live in
memory and are written out once, when the traced process ends.

A span records its name, start, end, parent span, the server job it ran
for (``serve`` only), a size (rows, bytes) and a short info string.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from pathlib import Path

_now = time.perf_counter


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "job", "size", "info", "child_s")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.size = 0
        self.info = ""
        self.child_s = 0.0
        self.t0 = self.t1 = 0.0


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str, job) -> Span:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if job is None:
            job = getattr(local, "job", None)
        rec = Span(name, stack[-1] if stack else None, job)
        stack.append(rec)
        rec.t0 = _now()
        return rec

    def _close(self, rec: Span) -> None:
        rec.t1 = _now()
        self._local.stack.pop()
        if rec.parent is not None:
            rec.parent.child_s += rec.t1 - rec.t0
        self.spans.append(rec)

    @contextlib.contextmanager
    def span(self, name: str, job=None):
        rec = self._open(name, job)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name, fn, size=None, info=None, job=None, pre=None,
              bind_job=False, result_job=False):
        """``job``/``info``/``pre`` read the call's arguments; ``size``
        gets the arguments, the result and the value ``pre`` took before
        the call.  All of them run outside the timed region."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job_id = job(args, kwargs) if job is not None else None
            before = pre(args, kwargs) if pre is not None else None
            if bind_job:
                tracer._local.job = job_id
            rec = tracer._open(name, job_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                if bind_job:
                    tracer._local.job = None
            if size is not None:
                rec.size = int(size(args, result, before))
            if info is not None:
                rec.info = str(info(args, kwargs))
            if result_job:
                rec.job = result.job_id
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **how) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, self._wrap(name, original, **how))

    def patch_context(self, owner, attr: str, name: str) -> None:
        """Wrap a context-manager factory taking the target path first."""
        original = getattr(owner, attr)
        tracer = self

        @contextlib.contextmanager
        def wrapper(path, *args, **kwargs):
            with tracer.span(name) as rec:
                with original(path, *args, **kwargs) as handle:
                    yield handle
            rec.size = os.path.getsize(path)

        self._patched.append((owner, attr, original, True))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- output --------------------------------------------------------
    def write(self, path: Path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = ids.get(id(s.parent), -1) if s.parent is not None else -1
                fh.write(json.dumps([s.name, s.t0, s.t1, parent, s.job, s.size, s.info, s.child_s]) + "\n")


def _rows(args, result, before) -> int:
    return len(args[1])


def _logit_rows(args, result, before) -> int:
    return len(args[0])


def _result_len(args, result, before) -> int:
    return len(result)


def _text_bytes(args, result, before) -> int:
    return len(args[1].encode("utf-8"))


def _journal_size(args, kwargs) -> int:
    return os.path.getsize(args[0].path)


def _journal_bytes(args, result, before) -> int:
    return os.path.getsize(args[0].path) - before


def install(tracer: Tracer) -> None:
    """Install every layer wrapper the per-layer metrics are built from."""
    import repro.cli as cli
    import repro.generation.dcgen as dcgen
    import repro.generation.ordered as ordered
    import repro.models.pagpassgpt as pagpassgpt
    import repro.nn.backend as backend
    import repro.nn.serialization as serialization
    import repro.server.core as server_core
    import repro.training.trainer as trainer
    from repro.autograd import Tensor
    from repro.nn import AdamW, GPT2Model
    from repro.nn.inference import GPT2Inference, KVCache, PromptCache
    from repro.runtime import RunJournal
    from repro.server.jobs import JobStore

    p = tracer.patch
    # nn.inference: priming, decode, caches; nn.backend construction.
    p(GPT2Inference, "start", "inference.start")
    p(GPT2Inference, "extend", "inference.extend")
    p(GPT2Inference, "step", "inference.step")
    p(KVCache, "gather", "kv.gather", size=_rows)
    p(PromptCache, "lookup", "prompt_cache.lookup")
    p(PromptCache, "expand", "prompt_cache.expand")
    p(backend.CompiledStepBackend, "__init__", "backend.build")
    # generation.sampler, patched in each calling module.
    p(dcgen, "choose_constrained", "sampler.choose_constrained", size=_logit_rows)
    p(dcgen, "constrained_distribution", "sampler.constrained_distribution", size=_logit_rows)
    p(ordered, "constrained_distribution", "sampler.constrained_distribution", size=_logit_rows)
    p(pagpassgpt, "sample_constrained", "sampler.sample_constrained", size=_logit_rows)
    p(pagpassgpt, "sample_masked", "sampler.sample_masked", size=_logit_rows)
    # generation.dcgen / generation.ordered / models.pagpassgpt.
    p(dcgen.DCGenerator, "plan", "dcgen.plan")
    p(dcgen, "execute_batch", "dcgen.execute_batch")
    p(ordered.OrderedGenerator, "generate", "ordered.generate")
    p(pagpassgpt.PagPassGPT, "generate", "free.generate", size=_result_len)
    # runtime.journal and runtime.atomic.
    p(RunJournal, "record", "journal.record", pre=_journal_size, size=_journal_bytes)
    p(cli, "atomic_write_text", "atomic.write", size=_text_bytes)
    p(server_core, "atomic_write_text", "atomic.write", size=_text_bytes)
    tracer.patch_context(trainer, "atomic_write", "atomic.write")
    tracer.patch_context(serialization, "atomic_write", "atomic.write")
    # server: admission bookkeeping and the fleet slot running each job.
    p(JobStore, "admit", "server.admit", result_job=True)
    p(JobStore, "set_state", "server.set_state",
      job=lambda a, k: a[1].job_id, info=lambda a, k: a[2])
    p(server_core.CampaignServer, "_run_job_sync", "server.job",
      job=lambda a, k: a[1].job_id, bind_job=True)
    # training, autograd, nn.optim.
    p(GPT2Model, "loss", "train.loss")
    p(Tensor, "backward", "train.backward")
    p(AdamW, "step", "train.optim")
    p(trainer, "clip_grad_norm", "train.clip")
    p(trainer.Trainer, "evaluate", "train.eval")
    p(trainer, "save_training_state", "train.checkpoint")


# ----------------------------------------------------------------------
# Aggregation (parent side, over every traced process's span file)
# ----------------------------------------------------------------------

def read_spans(path: Path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def has_ancestor(spans, rec, names) -> bool:
    parent = rec[3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def span_totals(spans: list[list]) -> dict:
    """Busy time, self time, count and size per span name.

    A span nested inside another of the same name (a recursive call)
    adds to the count but not to the busy time, so no time is counted
    twice.
    """
    out: dict[str, dict] = {}
    for rec in spans:
        name, t0, t1, _, _, size, _, child_s = rec
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0})
        agg["calls"] += 1
        agg["size"] += size
        agg["self_s"] += (t1 - t0) - child_s
        if not has_ancestor(spans, rec, (name,)):
            agg["s"] += t1 - t0
    return out


def busy(spans: list[list], names: tuple) -> float:
    """Busy time of the union of ``names``, counting no nesting twice."""
    return sum(
        rec[2] - rec[1]
        for rec in spans
        if rec[0] in names and not has_ancestor(spans, rec, names)
    )
