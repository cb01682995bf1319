"""Structured JSONL event logging with a stdlib-``logging`` bridge.

Every record is one JSON object per line::

    {"ts": 1722950000.123456, "run_id": "run", "pid": 4242, "worker": null,
     "event": "span", "level": "info", "fields": {...}}

Records are appended through :class:`repro.runtime.atomic.AppendStream`
(``O_APPEND`` + single ``write``), so a stream written by a worker that
is later ``terminate()``-d is still readable up to its last complete
line, and multiple processes may in principle share a file without
interleaving bytes within a line.

Console verbosity is a separate axis from capture: the JSONL stream
records every event, whatever its ``level`` (the file is the data),
while each event is also forwarded to the stdlib logger
``repro.telemetry`` where the usual ``logging`` machinery (configured by
:func:`configure_logging` from ``--log-level`` or the ``REPRO_LOG``
environment variable) decides what reaches stderr.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Optional, Union

from ..runtime.atomic import AppendStream

#: Environment variable holding the default console log level.
LOG_ENV = "REPRO_LOG"

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_BRIDGE = logging.getLogger("repro.telemetry")


def _json_default(obj):
    """Coerce numpy scalars (and anything else odd) into JSON."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    if isinstance(obj, Path):
        return str(obj)
    return repr(obj)


class TelemetryLogger:
    """Appends structured events to one JSONL file.

    ``worker`` distinguishes streams in a multi-process campaign
    (``None`` for the parent, the worker pid otherwise); ``clock`` is
    injectable so tests can pin timestamps.
    """

    def __init__(
        self,
        path: Union[str, Path],
        run_id: str = "run",
        worker: Optional[int] = None,
        clock=time.time,
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.worker = worker
        self._clock = clock
        self._stream = AppendStream(self.path)

    def emit(self, event: str, level: str = "info", **fields) -> None:
        """Write one record (and forward it to the stdlib bridge)."""
        record = {
            "ts": round(self._clock(), 6),
            "run_id": self.run_id,
            "pid": os.getpid(),
            "worker": self.worker,
            "event": event,
            "level": level,
            "fields": fields,
        }
        self._stream.write_line(
            json.dumps(record, sort_keys=True, separators=(",", ":"), default=_json_default)
        )
        severity = LEVELS.get(level, LEVELS["info"])
        if _BRIDGE.isEnabledFor(severity):
            _BRIDGE.log(severity, "%s %s", event, fields)

    @property
    def closed(self) -> bool:
        return self._stream.closed

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "TelemetryLogger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def log_level_from_env(default: str = "warning") -> str:
    """Console level from ``REPRO_LOG`` (falls back to ``default``)."""
    level = os.environ.get(LOG_ENV, "").strip().lower()
    return level if level in LEVELS else default


def configure_logging(level: Optional[str] = None, stream=None) -> None:
    """Point the ``repro`` logger hierarchy at stderr with ``level``.

    Called by the CLI with ``--log-level`` (or ``REPRO_LOG`` when the
    flag is absent).  Idempotent: re-configuring replaces the handler
    rather than stacking duplicates.
    """
    level = level or log_level_from_env()
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r}; expected one of {sorted(LEVELS)}")
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(LEVELS[level])
    root.propagate = False


def read_events(path: Union[str, Path]) -> list[dict]:
    """Parse a JSONL telemetry stream, skipping any torn/corrupt lines.

    A worker killed mid-``write`` can leave a torn *last* line; corrupt
    lines anywhere are skipped rather than fatal because telemetry is
    observability, not ground truth.
    """
    out: list[dict] = []
    path = Path(path)
    if not path.exists():
        return out
    for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "event" in record:
            out.append(record)
    return out
