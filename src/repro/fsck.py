"""Offline integrity checker for every durable artifact the library writes.

``repro fsck <path>...`` inspects codec files, write-ahead logs and fleet
directories *without* mutating them, and reports a typed
list of problems:

* **codec files** (``*.pfbin``) — container structure plus every per-array
  CRC (format v3; v1/v2 files predate checksums and are verified
  structurally only, which is reported as a note, not an error);
* **write-ahead logs** — magic, frame structure and per-frame CRCs.  A torn
  tail (an incomplete final frame, the expected artifact of a crash between
  ``write`` and ``fsync``) is *recoverable by design* and reported as a
  note; damage anywhere before the tail is corruption and fails the check;
* **fleet directories** — manifest well-formedness, splits/partition-count
  consistency, every referenced partition file present and checksum-clean
  with the aggregate the manifest promises, plus notes for orphan partition
  files and stale ``*.tmp`` leftovers from a crashed save.

A file with neither magic is reported ``unreadable``.

Each problem is an :class:`FsckIssue` with a stable ``kind`` so scripts can
dispatch on it; :class:`FsckReport` aggregates them per target.  The CLI
exits 0 when every target is clean and 1 otherwise — the check never
raises for corruption it was asked to find (only for unusable arguments,
e.g. a path that does not exist).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SerializationError
from .index.atomic import TMP_SUFFIX
from .index.codec import BINARY_MAGIC, load_index, read_array_store
from .stream.wal import WAL_MAGIC, scan_wal

__all__ = ["FsckIssue", "FsckReport", "fsck_path"]


@dataclass(frozen=True)
class FsckIssue:
    """One verifiable defect found in a durable artifact.

    ``kind`` is a stable machine-readable tag: ``codec-corrupt``,
    ``wal-corrupt``, ``manifest-corrupt``, ``manifest-inconsistent``,
    ``partition-missing``, ``partition-corrupt``, ``partition-mismatch``,
    ``unreadable``.
    """

    kind: str
    path: str
    message: str

    def to_payload(self) -> dict:
        return {"kind": self.kind, "path": self.path, "message": self.message}


@dataclass
class FsckReport:
    """All findings for one fsck target (one file or fleet directory)."""

    target: str
    #: What the target was recognised as: codec / wal / fleet.
    artifact: str = "unknown"
    #: Objects verified (files, WAL frames): a progress/coverage count.
    checked: int = 0
    issues: list[FsckIssue] = field(default_factory=list)
    #: Benign observations (torn WAL tail, pre-checksum format, tmp files).
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def to_payload(self) -> dict:
        return {
            "target": self.target,
            "artifact": self.artifact,
            "ok": self.ok,
            "checked": self.checked,
            "issues": [issue.to_payload() for issue in self.issues],
            "notes": list(self.notes),
        }


def _fsck_codec(path: Path, report: FsckReport) -> None:
    """Structural + checksum verification of one binary codec file."""
    report.artifact = "codec"
    try:
        meta, _ = read_array_store(path, mmap=False, verify=True)
        load_index(path, mmap=False)  # full structural decode
    except SerializationError as exc:
        report.issues.append(FsckIssue("codec-corrupt", str(path), str(exc)))
        return
    report.checked += 1
    version = int(meta.get("format_version", 0))
    # verify=True is a no-op on pre-v3 files (they carry no checksums);
    # surface that so "fsck passed" is not over-read for old files.
    if version < 3:
        report.notes.append(
            f"{path.name}: format v{version} predates per-array checksums; "
            f"verified structurally only"
        )


def _fsck_wal(path: Path, report: FsckReport) -> None:
    """Frame-by-frame WAL verification (lenient scan, then classify)."""
    report.artifact = "wal"
    try:
        scan = scan_wal(path, strict=False)
    except SerializationError as exc:  # bad magic: not a WAL at all
        report.issues.append(FsckIssue("wal-corrupt", str(path), str(exc)))
        return
    report.checked += len(scan.records)
    if scan.damage is not None:
        report.issues.append(FsckIssue("wal-corrupt", str(path), scan.damage))
        return
    if scan.truncated_bytes:
        report.notes.append(
            f"{path.name}: torn tail of {scan.truncated_bytes} bytes after "
            f"{len(scan.records)} valid records (recoverable: truncated on "
            f"next open)"
        )


def _fsck_fleet(directory: Path, report: FsckReport) -> None:
    """Manifest + every referenced partition file + directory hygiene."""
    from .fleet.map import PartitionMap
    from .fleet.persistence import MANIFEST_NAME

    report.artifact = "fleet"
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        report.issues.append(FsckIssue("unreadable", str(manifest_path), str(exc)))
        return
    except json.JSONDecodeError as exc:
        report.issues.append(
            FsckIssue("manifest-corrupt", str(manifest_path), f"not valid JSON: {exc}")
        )
        return
    report.checked += 1
    try:
        aggregate = str(manifest["aggregate"])
        partition_map = PartitionMap.from_payload(manifest["splits"])
        entries = manifest["partitions"]
        if not isinstance(entries, list):
            raise TypeError("partitions must be a list")
    except (KeyError, ValueError, TypeError) as exc:
        report.issues.append(
            FsckIssue("manifest-corrupt", str(manifest_path), f"malformed: {exc}")
        )
        return
    if len(entries) != partition_map.num_partitions:
        report.issues.append(
            FsckIssue(
                "manifest-inconsistent",
                str(manifest_path),
                f"lists {len(entries)} partitions but its splits describe "
                f"{partition_map.num_partitions}",
            )
        )
    referenced: set[str] = set()
    for entry in entries:
        file_name = entry.get("file") if isinstance(entry, dict) else None
        if file_name is None:
            continue
        referenced.add(file_name)
        partition_path = directory / file_name
        if not partition_path.is_file():
            report.issues.append(
                FsckIssue(
                    "partition-missing",
                    str(partition_path),
                    f"referenced by {MANIFEST_NAME} but absent",
                )
            )
            continue
        try:
            index = load_index(partition_path, mmap=False, verify=True)
        except SerializationError as exc:
            report.issues.append(
                FsckIssue("partition-corrupt", str(partition_path), str(exc))
            )
            continue
        report.checked += 1
        loaded = getattr(getattr(index, "aggregate", None), "value", None)
        if loaded is not None and loaded != aggregate:
            report.issues.append(
                FsckIssue(
                    "partition-mismatch",
                    str(partition_path),
                    f"answers {loaded}, manifest says {aggregate}",
                )
            )
    orphans = sorted(
        candidate.name
        for candidate in directory.glob("partition-*.pfbin")
        if candidate.name not in referenced
    )
    if orphans:
        report.notes.append(
            f"unreferenced partition files (stale save leftovers): "
            f"{', '.join(orphans)}"
        )
    stale_tmp = sorted(
        candidate.name for candidate in directory.glob(f"*{TMP_SUFFIX}")
    )
    if stale_tmp:
        report.notes.append(
            f"stale tmp files from an interrupted save (pruned on next "
            f"load): {', '.join(stale_tmp)}"
        )


def fsck_path(path: str | Path) -> FsckReport:
    """Verify one artifact; returns a report (never raises for corruption).

    The artifact type is sniffed: a directory containing a fleet manifest is
    checked as a fleet; files are dispatched on their magic bytes (codec vs
    WAL), and a file with neither is ``unreadable``.
    """
    path = Path(path)
    report = FsckReport(target=str(path))
    if path.is_dir():
        from .fleet.persistence import MANIFEST_NAME

        if (path / MANIFEST_NAME).is_file():
            _fsck_fleet(path, report)
        else:
            report.issues.append(
                FsckIssue(
                    "unreadable",
                    str(path),
                    f"directory has no {MANIFEST_NAME}: not a fleet",
                )
            )
        return report
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(max(len(BINARY_MAGIC), len(WAL_MAGIC)))
    except OSError as exc:
        report.issues.append(FsckIssue("unreadable", str(path), str(exc)))
        return report
    if prefix.startswith(BINARY_MAGIC):
        _fsck_codec(path, report)
    elif prefix.startswith(WAL_MAGIC) or WAL_MAGIC.startswith(prefix):
        # Second clause: a file shorter than the magic is a torn WAL
        # creation — the WAL checker classifies it properly.
        _fsck_wal(path, report)
    else:
        report.issues.append(
            FsckIssue("unreadable", str(path), "neither a codec file nor a WAL (bad magic)")
        )
    return report
