"""Append-only JSONL run journal: the unit of crash-safe progress.

A journal records one line per completed unit of work — a D&C-GEN leaf
batch, a free-generation chunk, a training epoch — keyed by a stable
``task_id`` and guarded by a content digest.  An interrupted run resumes
by reopening its journal, skipping every journaled task, and re-executing
only the rest; because every task draws its randomness from
``(base_seed, task_id)``, the merged result is byte-identical to an
uninterrupted run.

File format (one JSON object per line)::

    {"kind": "header", "format": 1, "payload": {...run identity...}, "digest": "…"}
    {"kind": "leaf_batch", "task_id": 0, "payload": {...}, "digest": "…"}
    ...

Records are flushed and fsynced as they are appended.  On open, reading
stops at the first unparsable or digest-mismatched line (the torn tail a
crash mid-append can leave); everything before it is trusted, everything
after it is discarded and will be recomputed.

The header pins the run's identity (seed, totals, a digest of the task
plan).  Resuming against a journal whose header differs raises
:class:`JournalError` — silently merging two different runs would corrupt
the output.  Worker count is deliberately *not* part of the identity: a
campaign may crash on 4 workers and resume on 1.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .atomic import AppendStream

FORMAT_VERSION = 1


class JournalError(RuntimeError):
    """Raised for unusable journals: bad header, or header/run mismatch."""


def _digest(obj: Any) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def file_digest(path: str | Path) -> str:
    """Short sha256 digest of a file's bytes (journaled with checkpoints)."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


class RunJournal:
    """One run's append-only journal. Use :meth:`attach` / :meth:`open`."""

    def __init__(self, path: Path, header: dict, records: dict, recovered: int) -> None:
        self.path = path
        #: Run-identity dict written as the first line.
        self.header = header
        #: Lines dropped on open because of a torn/corrupt tail.
        self.recovered_tail = recovered
        self._records: dict[tuple[str, int], Any] = records
        # AppendStream appends each record with a single O_APPEND write(2)
        # and rolls back partial lines on ENOSPC, so a full disk can stop
        # the journal at a record boundary but never tear it.
        self._stream = AppendStream(path)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str | Path, header: dict) -> "RunJournal":
        """Start a fresh journal at ``path`` (truncates any existing file)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        line = cls._encode({"kind": "header", "format": FORMAT_VERSION, "payload": header})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        return cls(path, header, {}, recovered=0)

    @classmethod
    def open(cls, path: str | Path) -> "RunJournal":
        """Reopen an existing journal, recovering a torn tail if present.

        Recovery is physical, not just logical: the torn bytes are
        truncated away before the journal is reopened for appending, so
        a new record can never concatenate onto a partial line (which
        would silently invalidate it on the *next* open).
        """
        path = Path(path)
        raw = path.read_bytes()
        scan = scan_bytes(raw)
        if not scan.lines:
            raise JournalError(f"{path} has no readable header")
        if scan.header is None:
            raise JournalError(f"{path} does not start with a format-{FORMAT_VERSION} header")
        records = {(rec["kind"], int(rec["task_id"])): rec["payload"] for rec in scan.lines[1:]}
        if scan.valid_bytes < len(raw):
            with open(path, "r+b") as fh:
                fh.truncate(scan.valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        return cls(path, scan.header, records, recovered=scan.total_lines - len(scan.lines))

    #: Header key reserved for the pinned telemetry trace.  It names the
    #: *observation* of a run, not its identity: a resumed process has a
    #: fresh trace ref (or none, if re-run without telemetry), yet must
    #: still attach — it then *adopts* the stored trace so its spans
    #: rejoin the original tree (:func:`repro.telemetry.rejoin_trace`).
    TRACE_HEADER_KEY = "trace"

    @classmethod
    def attach(cls, path: str | Path, header: dict, resume: bool = False) -> "RunJournal":
        """Open-and-validate when resuming, otherwise start fresh.

        On resume the stored header must equal ``header`` exactly
        (excluding :data:`TRACE_HEADER_KEY`); a mismatch means the
        journal belongs to a different run.
        """
        path = Path(path)

        def identity(h: dict) -> dict:
            return {k: v for k, v in h.items() if k != cls.TRACE_HEADER_KEY}

        if resume and path.exists():
            journal = cls.open(path)
            if identity(journal.header) != identity(header):
                stored = journal.header
                journal.close()
                keys = sorted(set(identity(stored)) | set(identity(header)))
                diffs = ", ".join(
                    f"{k}: journal={stored.get(k)!r} != run={header.get(k)!r}"
                    for k in keys
                    if stored.get(k) != header.get(k)
                )
                raise JournalError(
                    f"cannot resume from {path}: journal belongs to a different run "
                    f"(mismatched header fields — {diffs})"
                )
            return journal
        return cls.create(path, header)

    # ------------------------------------------------------------------
    # Record I/O
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(rec: dict) -> str:
        rec = dict(rec)
        rec["digest"] = _digest([rec.get("kind"), rec.get("task_id"), rec.get("payload")])
        return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def _decode(line: str) -> Optional[dict]:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(rec, dict):
            return None
        expected = _digest([rec.get("kind"), rec.get("task_id"), rec.get("payload")])
        if rec.get("digest") != expected:
            return None
        return rec

    def record(self, kind: str, task_id: int, payload: Any) -> None:
        """Append one completed task; durable once this returns.

        A full disk (real or injected via ``disk_full:journal``) raises
        :class:`~repro.runtime.atomic.DiskFullError` *before* any bytes
        land, or rolls a partial line back — either way the journal stays
        valid and the unit of work is simply not recorded, so a resumed
        run re-executes it.
        """
        from .. import telemetry  # lazy: telemetry's logger builds on runtime.atomic
        from . import faults

        with telemetry.trace("journal.record", level="debug", kind=kind, task_id=int(task_id)):
            faults.maybe_disk_full("journal")
            self._stream.write_line(
                self._encode({"kind": kind, "task_id": int(task_id), "payload": payload})
            )
            self._stream.fsync()
        telemetry.get_registry().counter("journal.records").inc()
        self._records[(kind, int(task_id))] = payload

    def completed(self, kind: str) -> dict[int, Any]:
        """``task_id -> payload`` for every journaled task of ``kind``."""
        return {tid: payload for (k, tid), payload in self._records.items() if k == kind}

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()

    def remove(self) -> None:
        """Close and delete the journal file (call after a successful run)."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class JournalScan:
    """The trusted prefix of a journal's bytes (see :func:`scan_bytes`)."""

    #: Decoded lines up to the first unparsable or digest-mismatched one.
    lines: list[dict]
    #: Byte length of that prefix, newlines included.
    valid_bytes: int
    total_lines: int
    #: The run identity, if line 1 is a format-pinned header.
    header: Optional[dict]


def scan_bytes(raw: bytes) -> JournalScan:
    """Decode journal bytes up to the first line that fails parsing or
    its digest check (the torn tail a crash mid-append can leave): the
    one parser :meth:`RunJournal.open` and the integrity checks share."""
    lines = raw.split(b"\n")
    # split() leaves a trailing empty element iff raw ends with a newline.
    if lines and lines[-1] == b"":
        lines.pop()
    decoded: list[dict] = []
    valid_bytes = 0
    for line in lines:
        rec = RunJournal._decode(line.decode("utf-8", errors="replace"))
        if rec is None:
            break  # torn/corrupt tail: trust nothing from here on
        decoded.append(rec)
        valid_bytes = min(valid_bytes + len(line) + 1, len(raw))  # +1 for the newline
    first = decoded[0] if decoded else {}
    pinned = first.get("kind") == "header" and first.get("format") == FORMAT_VERSION
    return JournalScan(decoded, valid_bytes, len(lines), first["payload"] if pinned else None)
