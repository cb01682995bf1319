"""Crash-safe file writes: temp file + fsync + ``os.replace``.

Every durable artifact this codebase writes — model checkpoints, trainer
state, guess files — goes through :func:`atomic_write`, so an interrupted
process can never leave a truncated file at the destination path.  The
destination either holds its previous content or the complete new
content, never a torn write.

Disk exhaustion gets the same guarantee, without a free-space
preflight: an ENOSPC is handled where the write fails.
:func:`atomic_write` fails onto its temp file (the destination is
untouched), and :meth:`AppendStream.write_line` truncates a
partially-appended line back off the file so an ENOSPC can shorten a
journal but never tear it.  Both raise :class:`DiskFullError`, which the
chaos harness also injects via the ``disk_full`` fault directive.
"""

from __future__ import annotations

import errno
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


class DiskFullError(OSError):
    """ENOSPC, surfaced after the write path has safely aborted.

    By the time this propagates, the artifact being written is in a
    usable state: ``atomic_write`` targets are untouched and append
    streams have had any partial tail truncated away.
    """

    def __init__(self, message: str) -> None:
        super().__init__(errno.ENOSPC, message)


def _is_enospc(exc: OSError) -> bool:
    return exc.errno in (errno.ENOSPC, errno.EDQUOT)


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb") -> Iterator[IO]:
    """Context manager yielding a file object that atomically replaces ``path``.

    The data is written to a uniquely-named sibling temp file, flushed and
    fsynced, then moved onto ``path`` with ``os.replace`` (atomic on POSIX
    for same-filesystem renames — the temp file lives next to the target
    to guarantee that).  If the block raises, the temp file is removed and
    the target is left untouched.  An ENOSPC while writing or fsyncing the
    temp file is re-raised as :class:`DiskFullError`; the destination still
    holds its previous content.
    """
    from . import faults  # local: faults imports DiskFullError from here

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    faults.maybe_disk_full("atomic")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError) and not isinstance(exc, DiskFullError) and _is_enospc(exc):
            raise DiskFullError(f"disk full while writing {path}") from exc
        raise
    _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
    """Flush the directory entry so the rename itself survives a crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # e.g. filesystems that refuse opening directories
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    with atomic_write(path, "wb") as fh:
        fh.write(data)


class AppendStream:
    """Crash-tolerant line appender: ``O_APPEND`` + one ``os.write`` per line.

    The journal and telemetry streams are JSONL files that must survive
    ``Pool.terminate`` and hard crashes with at most a torn *tail*.  A
    single ``write(2)`` on an ``O_APPEND`` descriptor is atomic with
    respect to concurrent appenders (for the line sizes involved here),
    so interleaved writers — e.g. several worker processes sharing a log
    — never interleave bytes *within* a line, and there is no userspace
    buffer to lose on an abrupt kill.

    ENOSPC safe-abort: if the kernel accepts only part of a line (short
    write) or rejects it outright, the file is truncated back to its
    pre-write size and :class:`DiskFullError` raised — the stream loses
    the failed line, never gains a torn one.  (The truncation assumes the
    partial line is still the tail; a concurrent appender racing into the
    gap between a *short* write and the truncate is not defended against,
    but short writes on O_APPEND only happen when the disk is already
    full, which also stops the other appenders.)
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)

    def write_line(self, line: str) -> None:
        """Append one line (a trailing newline is added if missing)."""
        if not line.endswith("\n"):
            line += "\n"
        data = line.encode("utf-8")
        size_before = os.fstat(self._fd).st_size
        try:
            written = os.write(self._fd, data)
        except OSError as exc:
            if _is_enospc(exc):
                self._rollback(size_before)
                raise DiskFullError(f"disk full appending to {self.path}") from exc
            raise
        if written != len(data):
            self._rollback(size_before)
            raise DiskFullError(
                f"short write appending to {self.path} "
                f"({written}/{len(data)} bytes): disk full"
            )

    def _rollback(self, size: int) -> None:
        try:
            os.ftruncate(self._fd, size)
        except OSError:  # pragma: no cover - nothing more we can do
            pass

    def fsync(self) -> None:
        try:
            os.fsync(self._fd)
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        return self._fd is None

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "AppendStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text``."""
    atomic_write_bytes(path, text.encode(encoding))
