"""Artifact integrity: checksum manifests, journal scanning, repair.

A campaign leaves artifacts behind — model checkpoints (npz), run
journals (JSONL), guess output files — and a days-long run is only
trustworthy if those artifacts can be *verified* after the fact: bit-rot,
torn tails from a hard kill, or an operator pairing a journal with the
wrong run must be detected, never silently accepted.  This module is the
engine behind ``repro verify``:

* :func:`write_manifest` / :func:`verify_manifest` — a JSON checksum
  manifest (full sha256 + size per file) written next to campaign
  artifacts; verification reports missing files, size drift, and digest
  mismatches.  Journals additionally pin their header identity digest in
  the manifest, so swapping in a journal from a *different* run is
  flagged as a run-identity conflict even when the file itself is
  internally consistent.
* :func:`scan_journal` — structural validation of a run journal without
  opening it for writing: header presence/format, per-record digests,
  and torn tails (every line from the first unparsable or
  digest-mismatched record onward is untrusted), in one streaming pass
  (:func:`~repro.runtime.journal.scan_file`, which every resume uses).
* :func:`repair_journal` — truncates a torn journal back to its last
  valid record in place, with the durable truncate every resume's
  :meth:`~repro.runtime.journal.RunJournal.open` performs; repair makes
  that recovery explicit and releases the dead bytes.
* :func:`verify_checkpoint` — readability check for npz checkpoints
  (truncated/corrupt archives surface as findings, not tracebacks).

Every problem is reported as a :class:`Finding` — a machine-readable
record with a severity, a stable ``kind``, the path, and structured
data — so tooling (CI gates, the chaos harness, a future serving layer)
can act on results without parsing prose.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional

from .atomic import atomic_write_text
from .journal import FORMAT_VERSION, RunJournal, _digest, scan_file

MANIFEST_VERSION = 1

#: Conventional manifest filename written next to campaign artifacts.
MANIFEST_NAME = "MANIFEST.json"

SEVERITIES = ("error", "warning", "info")


@dataclass
class Finding:
    """One verification result: machine-readable, severity-ranked.

    ``kind`` is a stable identifier (``torn_tail``, ``digest_mismatch``,
    ``header_conflict``, ``bad_header``, ``missing_file``,
    ``unreadable_checkpoint``, ``repaired``, ``unrepairable``…);
    ``data`` carries kind-specific structured detail (offsets, counts,
    expected/actual digests).
    """

    severity: str
    kind: str
    path: str
    detail: str
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, got {self.severity!r}")

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "kind": self.kind,
            "path": str(self.path),
            "detail": self.detail,
            "data": self.data,
        }


def sha256_file(path: str | Path) -> str:
    """Full sha256 hex digest of a file, streamed (artifacts can be GBs)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ----------------------------------------------------------------------
# Journal scanning and repair
# ----------------------------------------------------------------------

def scan_journal(path: str | Path, expected_header: Optional[dict] = None) -> list[Finding]:
    """Validate a journal file structurally; one :class:`Finding` per problem.

    Reports ``missing_file``, ``bad_header`` (no parseable format-pinned
    header — unrepairable), ``torn_tail`` (one or more trailing lines
    failed parsing or digest check; ``data`` carries the valid byte
    prefix a repair would keep), and — when ``expected_header`` is given —
    ``header_conflict`` for a journal that belongs to a different run.
    A clean journal yields no findings.
    """
    path = Path(path)
    if not path.exists():
        return [Finding("error", "missing_file", str(path), "journal file does not exist")]
    scan = scan_file(path)
    findings: list[Finding] = []
    if scan.header is None:
        return [
            Finding(
                "error",
                "bad_header",
                str(path),
                f"no format-{FORMAT_VERSION} header on line 1; "
                "journal is unusable and cannot be repaired",
                {"total_lines": scan.total_lines},
            )
        ]
    bad_line = scan.records + 1  # the first untrusted line, if any
    if bad_line < scan.total_lines:
        dropped = scan.total_lines - bad_line
        findings.append(
            Finding(
                "error",
                "torn_tail",
                str(path),
                f"line {bad_line + 1} fails parse/digest check; "
                f"{dropped} trailing line(s) untrusted "
                f"({scan.records} valid record(s) kept)",
                {
                    "first_bad_line": bad_line,
                    "dropped_lines": dropped,
                    "valid_records": scan.records,
                    "valid_bytes": scan.valid_bytes,
                    "total_bytes": scan.total_bytes,
                },
            )
        )
    if expected_header is not None and scan.header != expected_header:
        findings.append(
            Finding(
                "error",
                "header_conflict",
                str(path),
                "journal header identifies a different run",
                {"journal_header": scan.header, "expected_header": expected_header},
            )
        )
    return findings


def repair_journal(path: str | Path) -> list[Finding]:
    """Truncate a torn journal to its last valid record, in place, with
    the durable truncate every resume performs (:meth:`RunJournal.open`).

    Returns the post-repair findings: a ``repaired`` info finding for a
    recovered torn tail, an ``unrepairable`` error when there is no valid
    header to keep, and nothing for an already-clean journal.
    """
    path = Path(path)
    out: list[Finding] = []
    for f in scan_journal(path):
        if f.kind == "torn_tail":
            RunJournal.open(path).close()
            out.append(
                Finding(
                    "info",
                    "repaired",
                    str(path),
                    f"truncated {f.data['dropped_lines']} torn line(s) "
                    f"({f.data['total_bytes'] - f.data['valid_bytes']} bytes); "
                    f"{f.data['valid_records']} record(s) retained",
                    dict(f.data),
                )
            )
        elif f.kind in ("bad_header", "missing_file"):
            out.append(
                Finding(
                    "error",
                    "unrepairable",
                    str(path),
                    f"cannot repair: {f.detail}",
                    dict(f.data),
                )
            )
        else:
            out.append(f)
    return out


def journal_header_digest(path: str | Path) -> Optional[str]:
    """Digest of a journal's header payload (its run identity), if readable."""
    try:
        header = scan_file(path).header
    except OSError:
        return None
    return None if header is None else _digest(header)


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

def verify_checkpoint(path: str | Path) -> list[Finding]:
    """Readability check for an npz checkpoint (no module required)."""
    from ..nn.serialization import CheckpointError, _load_npz  # lazy: nn imports runtime

    path = Path(path)
    if not path.exists():
        return [Finding("error", "missing_file", str(path), "checkpoint does not exist")]
    try:
        _load_npz(path)
    except CheckpointError as exc:
        return [
            Finding(
                "error",
                "unreadable_checkpoint",
                str(path),
                str(exc),
            )
        ]
    return []


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------

def _is_journal(path: Path) -> bool:
    """Journal detection: name convention, or content sniff for any other
    ``.jsonl`` file (operators name journals freely — ``run.jsonl`` is
    the README's own example — and a misnamed journal silently skipped
    is exactly the kind of gap this module exists to close)."""
    if not path.name.endswith(".jsonl"):
        return False
    if "journal" in path.name:
        return True
    try:
        with open(path, "rb") as fh:
            first = fh.readline(4096)
    except OSError:
        return False
    try:
        record = json.loads(first.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return False
    return isinstance(record, dict) and record.get("kind") == "header"


def write_manifest(
    manifest_path: str | Path,
    files: Iterable[str | Path],
    run: Optional[dict[str, Any]] = None,
) -> dict:
    """Write a checksum manifest covering ``files`` (atomic; returns it).

    Paths are stored relative to the manifest's directory when possible
    so an artifact tree can be moved wholesale.  Journal entries also pin
    the journal's header-identity digest, letting verification detect a
    journal swapped in from a different run.  ``run`` is free-form run
    metadata stored verbatim (seed, strategy, …).
    """
    manifest_path = Path(manifest_path)
    root = manifest_path.parent.resolve()
    entries: dict[str, dict] = {}
    for p in files:
        p = Path(p)
        try:
            key = str(p.resolve().relative_to(root))
        except ValueError:
            key = str(p.resolve())
        entry = {"sha256": sha256_file(p), "bytes": p.stat().st_size}
        if _is_journal(p):
            hd = journal_header_digest(p)
            if hd is not None:
                entry["journal_header"] = hd
        entries[key] = entry
    manifest = {"format": MANIFEST_VERSION, "files": entries}
    if run:
        manifest["run"] = dict(run)
    atomic_write_text(
        manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return manifest


def load_manifest(manifest_path: str | Path) -> dict:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_VERSION:
        raise ValueError(
            f"{manifest_path} is not a format-{MANIFEST_VERSION} integrity manifest"
        )
    return manifest


def verify_manifest(manifest_path: str | Path) -> list[Finding]:
    """Check every manifest entry: existence, size, digest, run identity."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        return [Finding("error", "missing_file", str(manifest_path), "manifest does not exist")]
    try:
        manifest = load_manifest(manifest_path)
    except (ValueError, json.JSONDecodeError) as exc:
        return [Finding("error", "bad_manifest", str(manifest_path), str(exc))]
    root = manifest_path.parent
    findings: list[Finding] = []
    for key, entry in sorted(manifest.get("files", {}).items()):
        path = Path(key) if Path(key).is_absolute() else root / key
        if not path.exists():
            findings.append(
                Finding("error", "missing_file", str(path), "listed in manifest but absent")
            )
            continue
        size = path.stat().st_size
        if size != entry.get("bytes"):
            findings.append(
                Finding(
                    "error",
                    "size_mismatch",
                    str(path),
                    f"size {size} != manifest {entry.get('bytes')}",
                    {"actual": size, "expected": entry.get("bytes")},
                )
            )
        digest = sha256_file(path)
        if digest != entry.get("sha256"):
            findings.append(
                Finding(
                    "error",
                    "digest_mismatch",
                    str(path),
                    "content digest does not match manifest",
                    {"actual": digest, "expected": entry.get("sha256")},
                )
            )
        if "journal_header" in entry:
            hd = journal_header_digest(path)
            if hd != entry["journal_header"]:
                findings.append(
                    Finding(
                        "error",
                        "header_conflict",
                        str(path),
                        "journal run identity does not match the manifest "
                        "(journal from a different run?)",
                        {"actual": hd, "expected": entry["journal_header"]},
                    )
                )
    return findings


# ----------------------------------------------------------------------
# Top-level dispatch
# ----------------------------------------------------------------------

def verify_paths(paths: Iterable[str | Path], repair: bool = False) -> list[Finding]:
    """Verify a mixed list of artifacts, dispatching on type.

    Directories are walked for manifests, journals, and checkpoints.
    Manifests are verified entry-by-entry, ``*journal*.jsonl`` files are
    scanned (and, with ``repair=True``, torn tails truncated — repairs
    are reported as ``repaired`` info findings), ``.npz`` files get the
    checkpoint readability check, and anything else is reported as
    ``skipped`` (only a manifest can vouch for opaque content).
    """
    expanded: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            found = sorted(
                q
                for q in p.rglob("*")
                if q.is_file()
                and (q.name == MANIFEST_NAME or q.suffix == ".npz" or _is_journal(q))
            )
            expanded.extend(found if found else [p])
        else:
            expanded.append(p)

    findings: list[Finding] = []
    for path in expanded:
        if path.is_dir():
            findings.append(
                Finding("warning", "empty_dir", str(path), "no verifiable artifacts found")
            )
        elif path.name == MANIFEST_NAME or path.name.endswith(".manifest.json"):
            # Substantive findings first; the "checked" marker trails so
            # the worst news leads both human and --json output.
            findings.extend(verify_manifest(path))
            findings.append(Finding("info", "checked", str(path), "manifest"))
        elif _is_journal(path):
            if repair:
                findings.extend(repair_journal(path))
            else:
                findings.extend(scan_journal(path))
            findings.append(Finding("info", "checked", str(path), "journal"))
        elif path.suffix == ".npz":
            findings.extend(verify_checkpoint(path))
            findings.append(Finding("info", "checked", str(path), "checkpoint"))
        elif not path.exists():
            findings.append(Finding("error", "missing_file", str(path), "no such file"))
        else:
            findings.append(
                Finding(
                    "info",
                    "skipped",
                    str(path),
                    "no structural check for this file type (cover it with a manifest)",
                )
            )
    return findings
