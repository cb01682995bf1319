"""Fault-tolerant runtime: atomic writes, run journals, retry, faults,
deadlines, signals, and artifact integrity.

The paper's real workloads run for days (25 GPU-hours of training, up to
10^9 guesses per D&C-GEN campaign); this package makes that work durable
and governable:

* :mod:`~repro.runtime.atomic` — crash-safe file replacement and
  append streams with ENOSPC safe-abort, used by every checkpoint and
  output writer;
* :mod:`~repro.runtime.journal` — append-only JSONL journals that let an
  interrupted campaign resume byte-identically;
* :mod:`~repro.runtime.retry` — supervised pool execution: a failed
  or hung task is resubmitted (a bounded number of times, with backoff)
  and costs only its own shard; what the pool gives up on is handed
  back to the caller;
* :mod:`~repro.runtime.deadline` — cooperative wall-clock / guess /
  model-call budgets whose trip is a *graceful* stop at a durable
  boundary;
* :mod:`~repro.runtime.signals` — SIGTERM/SIGINT → graceful-stop
  conversion (one-shot; second signal hard-exits);
* :mod:`~repro.runtime.integrity` — checksum manifests, journal
  scanning/repair, checkpoint verification (``repro verify``);
* :mod:`~repro.runtime.faults` — injection hooks (crash / hang /
  corrupt / disk_full / signal) that the fault-tolerance and chaos
  harnesses drive.
"""

from .atomic import (
    AppendStream,
    DiskFullError,
    atomic_write,
    atomic_write_bytes,
    atomic_write_text,
)
from .deadline import Budget, CampaignInterrupted
from .faults import (
    FAULT_ENV,
    FAULT_STATE_ENV,
    InjectedFault,
    corrupt_file,
    maybe_corrupt,
    maybe_disk_full,
    maybe_fail,
)
from .integrity import (
    Finding,
    repair_journal,
    scan_journal,
    verify_manifest,
    verify_paths,
    write_manifest,
)
from .journal import JournalError, RunJournal, file_digest
from .retry import supervised_map
from . import signals

__all__ = [
    "AppendStream",
    "DiskFullError",
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_text",
    "Budget",
    "CampaignInterrupted",
    "FAULT_ENV",
    "FAULT_STATE_ENV",
    "InjectedFault",
    "corrupt_file",
    "maybe_corrupt",
    "maybe_disk_full",
    "maybe_fail",
    "Finding",
    "repair_journal",
    "scan_journal",
    "verify_manifest",
    "verify_paths",
    "write_manifest",
    "JournalError",
    "RunJournal",
    "file_digest",
    "supervised_map",
    "signals",
]
