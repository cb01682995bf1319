"""One campaign runner and one strategy dispatch for every generation path.

D&C-GEN (§III-C, Algorithm 1), free trawling sampling (§IV-D) and
ordered enumeration share one journaled lifecycle, owned by :func:`run`:
the ``campaign`` span, the ``campaign_plan`` event, and the run journal,
attached (or resumed, header-checked) with the active trace pinned into
it, so a resumed process rejoins the original trace tree.

D&C-GEN leaf batches and free-sampling chunks are *task campaigns*
(:class:`Tasks`): independent tasks, each carrying its own seed
material and run by a pure module-level ``execute(model, task, seed)``,
so the merged stream is the same for any worker count, crash point or
resume.  Ordered enumeration keeps its own round loop (its durable unit
is a frontier snapshot) and hands that loop to :func:`run` as the
plan's ``execute``.  :func:`run_strategy` is the strategy dispatch
behind ``repro generate`` and ``repro serve``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from .. import telemetry
from ..runtime import Budget, RunJournal, maybe_fail
from .parallel import run_pool

if TYPE_CHECKING:  # imported lazily: the strategies import this module
    from .ordered import OrderedConfig

Progress = Callable[[int, int], None]


@dataclass(frozen=True)
class Plan:
    """A planned campaign: the journal ``header`` (run identity; the
    runner adds ``kind``), the ``campaign_plan`` event ``fields``, the
    execute phase ``execute(journal, progress, budget)``, and optionally
    ``report()``, the result attributes set on the ``campaign`` span
    once ``execute`` returns."""

    header: dict
    fields: dict
    execute: Callable[[Optional[RunJournal], Optional[Progress], Optional[Budget]], Any]
    report: Optional[Callable[[], dict]] = None


def run(
    kind: str,
    requested: int,
    prepare: Callable[[], Plan],
    journal: Optional[Union[str, Path, RunJournal]] = None,
    resume: bool = False,
    progress: Optional[Progress] = None,
    budget: Optional[Budget] = None,
) -> Any:
    """Plan, journal and execute one campaign; returns what the plan's
    ``execute`` returns.

    ``prepare`` runs inside the ``campaign`` span, so planning spans
    nest under it.  A ``journal`` path is attached here under the
    plan's header (a mismatching stored header raises
    :class:`~repro.runtime.JournalError` on ``resume``) and closed when
    the run ends; an open :class:`RunJournal` stays the caller's.
    """
    with telemetry.trace("campaign", kind=kind, requested=int(requested)) as span:
        plan = prepare()
        telemetry.emit("campaign_plan", kind=kind, requested=int(requested), **plan.fields)
        if journal is None or isinstance(journal, RunJournal):
            result = plan.execute(journal, progress, budget)
        else:
            header = telemetry.pin_trace({"kind": kind, **plan.header})
            with RunJournal.attach(journal, header, resume=resume) as attached:
                # A resumed run rejoins the original run's trace so its
                # spans extend the first attempt's tree; a fresh run
                # adopts its own pinned ref (a no-op).
                telemetry.rejoin_trace(attached.header.get(RunJournal.TRACE_HEADER_KEY))
                result = plan.execute(attached, progress, budget)
        if plan.report is not None:
            span.set(**plan.report())
        return result


@dataclass(frozen=True)
class Tasks:
    """The execute phase of a task campaign.

    A task's journal id is its position in ``items``; ``rows`` is the
    guesses the whole list yields (the progress total).  ``record`` is
    the journal record kind and also the fault site every result
    passes; ``label`` names the pool in supervision events and warnings.
    With ``counts_calls`` each journaled result carries its model calls.

    :meth:`run` is the one place a campaign runs a task in the parent:
    every task with ``workers == 1``, and every task the pool hands back
    otherwise.
    """

    model: Any
    items: Sequence
    execute: Callable[[Any, Any, int], tuple[list[str], int]]
    seed: int
    rows: int
    record: str
    label: str
    workers: int = 1
    counts_calls: bool = False

    def plan(self, header: dict, **fields) -> Plan:
        """A :class:`Plan` running these tasks, with ``rows``, ``n_tasks``
        and ``workers`` added to the event fields."""
        shared = {"rows": int(self.rows), "n_tasks": len(self.items), "workers": int(self.workers)}
        return Plan(header, {**shared, **fields}, self.run)

    def run(
        self,
        journal: Optional[RunJournal] = None,
        progress: Optional[Progress] = None,
        budget: Optional[Budget] = None,
    ) -> list[tuple[list[str], int]]:
        """Execute every task not yet journaled; returns ``(guesses,
        model_calls)`` per task, in task order.

        Journaled results are reused verbatim (``campaign_resume``) and
        each fresh one is journaled the moment it lands, so a crash never
        costs more than the tasks in flight.  ``progress(done, rows)``
        fires after each result and ``budget`` is polled before the first
        task, after each journal write and while waiting on workers.
        Whatever that path raises (the fault site, the journal write,
        the budget) propagates at any worker count.  Tasks the pool
        hands back run serially here, after one ``RuntimeWarning``, each
        counted as a ``serial_fallback``.
        """
        items, record = self.items, self.record
        results: dict[int, tuple[list[str], int]] = {}
        if journal is not None:
            for index, payload in journal.completed(record).items():
                if 0 <= index < len(items):
                    calls = int(payload["model_calls"]) if self.counts_calls else 0
                    results[index] = (list(payload["guesses"]), calls)
        pending = [index for index in range(len(items)) if index not in results]
        done_rows = sum(len(guesses) for guesses, _ in results.values())
        done_calls = sum(calls for _, calls in results.values())
        if results:
            telemetry.emit(
                "campaign_resume", tasks=len(results), guesses=done_rows, model_calls=done_calls
            )
        if progress is not None:
            progress(done_rows, self.rows)

        def current() -> dict:
            return {"guesses": done_rows, "model_calls": done_calls,
                    "tasks": len(results), "n_tasks": len(items)}

        def on_result(position: int, value: tuple[list[str], int]) -> None:
            nonlocal done_rows, done_calls
            index = pending[position]
            guesses, calls = value
            maybe_fail(record)
            if journal is not None:
                payload: dict = {"guesses": list(guesses)}
                if self.counts_calls:
                    payload["model_calls"] = int(calls)
                journal.record(record, index, payload)
            results[index] = (guesses, calls)
            done_rows += len(guesses)
            done_calls += calls
            if progress is not None:
                progress(done_rows, self.rows)
            if budget is not None:
                budget.poll(**current())

        if budget is not None:
            budget.poll(**current())
        context = f"parallel {self.label}"
        handed_back: dict[int, Optional[str]] = {}
        if self.workers > 1 and len(pending) > 1:
            handed_back = run_pool(
                self.model, [items[index] for index in pending], self.execute, self.seed,
                self.workers, on_result, context=context,
                stop=None if budget is None else budget.stopper(current),
            )
        if handed_back:
            causes = "; ".join(
                f"task {position}: {error or 'timed out'}"
                for position, error in list(handed_back.items())[:3]
            )
            more = "; ..." if len(handed_back) > 3 else ""
            warnings.warn(
                f"{context}: the pool gave up on {len(handed_back)} task(s) ({causes}{more}); "
                "falling back to serial execution for those tasks",
                RuntimeWarning,
                stacklevel=2,
            )
        registry = telemetry.get_registry()
        for position, index in enumerate(pending):
            if index in results:  # completed (and journaled) on the pool
                continue
            if position in handed_back:
                registry.counter("retry.serial_fallbacks").inc()
                telemetry.emit("serial_fallback", level="warning", context=context,
                               task=position, error=handed_back[position] or "timed out")
            value = self.execute(self.model, items[index], self.seed)
            if handed_back.get(position) is not None:  # it recorded task_failed
                registry.counter("retry.tasks_recovered").inc()
                telemetry.emit("task_recovered", context=context, task=position)
            on_result(position, value)
        return [results[index] for index in range(len(items))]


class UnsupportedStrategy(ValueError):
    """The checkpoint's model cannot run the requested strategy."""


def run_strategy(
    model,
    strategy: str,
    n: int,
    *,
    seed: int = 0,
    workers: int = 1,
    threshold: int = 256,
    ordered: Optional["OrderedConfig"] = None,
    journal: Optional[Union[str, Path, RunJournal]] = None,
    resume: bool = False,
    progress: Optional[Progress] = None,
    budget: Optional[Budget] = None,
) -> tuple[list[str], str, dict]:
    """Run ``strategy`` on a loaded GPT model; returns the guesses, a
    one-line stats summary (empty for ``sampled``) and the result fields
    a server job reports (``ordered``: ``emitted`` and ``exact_prefix``;
    empty otherwise).

    ``sampled`` runs the model's free-sampling campaign, ``dcgen`` runs
    D&C-GEN (PagPassGPT only) and ``ordered`` enumerates under
    ``ordered`` (default ``OrderedConfig()``): pattern-conditioned for
    PagPassGPT, unconditional for PassGPT.
    """
    from ..models import PagPassGPT
    from .dcgen import DCGenConfig, DCGenerator
    from .ordered import OrderedConfig, OrderedGenerator

    lifecycle = dict(journal=journal, resume=resume, progress=progress, budget=budget)
    guided = isinstance(model, PagPassGPT)
    if strategy == "ordered":
        root = OrderedGenerator.for_patterns if guided else OrderedGenerator.unconditional
        generator = root(model, config=ordered or OrderedConfig())
        guesses = generator.generate(n, **lifecycle)
        stats = generator.stats
        return guesses, (
            f"ordered: {stats.rounds} rounds, {stats.pops} pops, "
            f"{stats.model_calls} model calls, {stats.truncated_nodes} frontier nodes "
            f"truncated ({stats.truncated_mass:.3g} mass), "
            f"{stats.exact_prefix} of {stats.emitted} guesses provably exact"
        ), stats.exactness()
    if strategy == "dcgen":
        if not guided:
            raise UnsupportedStrategy("strategy dcgen requires a PagPassGPT checkpoint")
        generator = DCGenerator(model, DCGenConfig(threshold=threshold, workers=workers))
        guesses = generator.generate(n, seed=seed, **lifecycle)
        stats = generator.stats
        return guesses, (
            f"D&C-GEN: {stats.patterns_used} patterns, {stats.leaves} leaves, "
            f"{stats.divisions} divisions, {workers} worker(s)"
        ), {}
    if strategy != "sampled":
        raise UnsupportedStrategy(f"unknown strategy {strategy!r}")
    return model.generate(n, seed=seed, workers=workers, **lifecycle), "", {}
