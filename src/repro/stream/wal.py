"""Write-ahead log for the streaming ingest path.

An acknowledged insert must survive a crash.  The delta buffers of
:class:`~repro.stream.updatable.UpdatablePolyFitIndex` and
:class:`~repro.stream.updatable2d.UpdatablePolyFit2DIndex` live in memory,
so each updatable index can attach a :class:`WriteAheadLog`: every insert
batch, compaction and checkpoint seal is appended as one CRC-framed record
*before* the call returns, and ``recover()`` replays the log over a base (or
checkpoint) to reproduce the pre-crash state **bit-identically** — replay
re-runs the same deterministic ``insert``/``compact`` code paths, and both
are bit-reproducible by construction (see the compaction invariants in the
``updatable`` module docstrings).

File layout
-----------

``PFWAL001`` magic (8 bytes), then a sequence of frames::

    length (uint32 LE) | crc32 (uint32 LE) | type (uint8) | payload[length]

``crc32`` covers the type byte plus the payload (``zlib.crc32`` — the
stdlib's C-speed CRC; the framing field is what matters, not the exact
polynomial).  Record types:

======  ==========  =====================================================
 type    name        payload
======  ==========  =====================================================
 1       INSERT1D    ``has_measures u8 | n u64 | keys f64*n [| measures]``
 2       INSERT2D    ``has_measures u8 | n u64 | xs f64*n | ys f64*n [| measures]``
 3       COMPACT     ``epoch u64`` (the epoch *after* the compaction)
 4       SEAL        ``inserts u64 | compactions u64 | epoch u64 | buffer u64``
======  ==========  =====================================================

Torn tails vs corruption
------------------------

The scan distinguishes the two failure modes a crash and bit rot produce —
the distinction is the "never a silent wrong answer" invariant:

* **torn tail** — the final frame is incomplete (header or payload runs past
  EOF), fails its CRC, or the remainder of the file is zero-filled
  (filesystems may zero-extend across a crash).  The tail is *truncated* at
  the last valid frame: those bytes were mid-write when the process died, so
  no reader was ever promised them.
* **corruption** — a frame *before* the last fails its CRC while non-zero
  bytes follow it.  That frame was once durable and acknowledged; silently
  dropping it (and everything after) would un-acknowledge writes, so the
  scan raises a typed :class:`~repro.errors.SerializationError` instead.

Group commit
------------

``sync_every=k`` batches the ``fsync`` barrier: appends buffer in the OS and
every k-th record (or an explicit :meth:`WriteAheadLog.sync`, or any
compaction/seal record, or :meth:`WriteAheadLog.close`) makes the log
durable.  The durability contract is correspondingly per-barrier: records
appended since the last barrier may be lost to a crash — but replay still
never yields wrong data, only a (bit-identical) earlier prefix.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import SerializationError
from ..obs.metrics import counter_family, histogram_family, log_buckets

__all__ = [
    "WAL_MAGIC",
    "RT_INSERT1D",
    "RT_INSERT2D",
    "RT_COMPACT",
    "RT_SEAL",
    "WalMetrics",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "scan_wal",
]

#: Leading bytes of every WAL file (8 bytes, versioned like the codec magic).
WAL_MAGIC = b"PFWAL001"

RT_INSERT1D = 1
RT_INSERT2D = 2
RT_COMPACT = 3
RT_SEAL = 4

_VALID_TYPES = frozenset({RT_INSERT1D, RT_INSERT2D, RT_COMPACT, RT_SEAL})
_FRAME_HEADER = struct.Struct("<IIB")


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record (fields beyond ``kind`` depend on the type)."""

    kind: int
    keys: np.ndarray | None = None  #: insert keys (1-D) or x coordinates (2-D)
    ys: np.ndarray | None = None  #: y coordinates (2-D inserts only)
    measures: np.ndarray | None = None
    epoch: int = 0  #: COMPACT/SEAL: epoch after the operation
    inserts: int = 0  #: SEAL: insert records subsumed by the checkpoint
    compactions: int = 0  #: SEAL: compaction records subsumed
    buffer_size: int = 0  #: SEAL: buffered records at checkpoint time


@dataclass
class WalScan:
    """Result of scanning a WAL file front to back."""

    records: list[WalRecord] = field(default_factory=list)
    valid_bytes: int = 0  #: offset of the first byte past the last valid frame
    truncated_bytes: int = 0  #: torn-tail bytes past ``valid_bytes``
    damage: str | None = None  #: mid-file corruption description (lenient scans)

    @property
    def insert_records(self) -> int:
        return sum(1 for r in self.records if r.kind in (RT_INSERT1D, RT_INSERT2D))

    @property
    def compaction_records(self) -> int:
        return sum(1 for r in self.records if r.kind == RT_COMPACT)

    @property
    def seal_records(self) -> int:
        return sum(1 for r in self.records if r.kind == RT_SEAL)


# --------------------------------------------------------------------- #
# Encoding / decoding
# --------------------------------------------------------------------- #


def _as_f64(values) -> np.ndarray:
    return np.ascontiguousarray(np.atleast_1d(np.asarray(values, dtype="<f8")))


def _encode_insert1d(keys, measures) -> bytes:
    keys = _as_f64(keys)
    parts = [struct.pack("<BQ", 0 if measures is None else 1, keys.size), keys.tobytes()]
    if measures is not None:
        parts.append(_as_f64(measures).tobytes())
    return b"".join(parts)


def _encode_insert2d(xs, ys, measures) -> bytes:
    xs, ys = _as_f64(xs), _as_f64(ys)
    parts = [
        struct.pack("<BQ", 0 if measures is None else 1, xs.size),
        xs.tobytes(),
        ys.tobytes(),
    ]
    if measures is not None:
        parts.append(_as_f64(measures).tobytes())
    return b"".join(parts)


def _decode_arrays(payload: bytes, columns: int) -> tuple[np.ndarray, ...] | None:
    """Split an insert payload into ``columns`` f64 arrays (+measures flag)."""
    if len(payload) < 9:
        return None
    has_measures, n = struct.unpack_from("<BQ", payload)
    total = columns + (1 if has_measures else 0)
    if has_measures not in (0, 1) or len(payload) != 9 + 8 * n * total:
        return None
    arrays = tuple(
        np.frombuffer(payload, dtype="<f8", count=n, offset=9 + 8 * n * i)
        for i in range(total)
    )
    if not has_measures:
        arrays = arrays + (None,)
    return arrays


def _decode(rtype: int, payload: bytes) -> WalRecord | None:
    """Decode one frame payload; ``None`` means structurally malformed."""
    if rtype == RT_INSERT1D:
        decoded = _decode_arrays(payload, 1)
        if decoded is None:
            return None
        keys, measures = decoded
        return WalRecord(RT_INSERT1D, keys=keys, measures=measures)
    if rtype == RT_INSERT2D:
        decoded = _decode_arrays(payload, 2)
        if decoded is None:
            return None
        xs, ys, measures = decoded
        return WalRecord(RT_INSERT2D, keys=xs, ys=ys, measures=measures)
    if rtype == RT_COMPACT:
        if len(payload) != 8:
            return None
        return WalRecord(RT_COMPACT, epoch=struct.unpack("<Q", payload)[0])
    if rtype == RT_SEAL:
        if len(payload) != 32:
            return None
        inserts, compactions, epoch, buffer_size = struct.unpack("<QQQQ", payload)
        return WalRecord(
            RT_SEAL,
            inserts=inserts,
            compactions=compactions,
            epoch=epoch,
            buffer_size=buffer_size,
        )
    return None


def _frame(rtype: int, payload: bytes) -> bytes:
    crc = zlib.crc32(bytes([rtype]) + payload)
    return _FRAME_HEADER.pack(len(payload), crc, rtype) + payload


# --------------------------------------------------------------------- #
# Scanning
# --------------------------------------------------------------------- #


def scan_wal(path: str | Path, *, strict: bool = True) -> WalScan:
    """Scan a WAL front to back, classifying any trailing damage.

    With ``strict=True`` (the recovery path) mid-file corruption raises
    :class:`~repro.errors.SerializationError`; a torn tail is reported via
    ``truncated_bytes`` and the caller truncates.  With ``strict=False``
    (the ``fsck`` path) corruption is reported in ``damage`` instead, with
    the valid prefix still decoded.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SerializationError(f"cannot read WAL {path}: {exc}") from exc
    scan = WalScan()
    if len(data) < len(WAL_MAGIC):
        # An empty or partially written magic is a torn creation: nothing was
        # ever acknowledged through this log.
        if WAL_MAGIC.startswith(data):
            scan.truncated_bytes = len(data)
            return scan
        raise SerializationError(f"{path} is not a PolyFit WAL (bad magic)")
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise SerializationError(f"{path} is not a PolyFit WAL (bad magic)")
    offset = len(WAL_MAGIC)
    size = len(data)
    while offset < size:
        if size - offset < _FRAME_HEADER.size:
            break  # torn header
        length, crc, rtype = _FRAME_HEADER.unpack_from(data, offset)
        end = offset + _FRAME_HEADER.size + length
        if end > size:
            break  # torn payload (or a length corrupted past EOF — see docs)
        payload = data[offset + _FRAME_HEADER.size: end]
        record = None
        if rtype in _VALID_TYPES and zlib.crc32(bytes([rtype]) + payload) == crc:
            record = _decode(rtype, payload)
        if record is None:
            if end == size or not any(data[offset:]):
                # Invalid final frame, or a zero-filled remainder: both are
                # crash artifacts of the tail, never acknowledged history.
                break
            message = (
                f"corrupt WAL frame at byte {offset} of {path} "
                f"({size - offset} bytes before EOF)"
            )
            if strict:
                raise SerializationError(message)
            scan.damage = message
            scan.valid_bytes = offset
            scan.truncated_bytes = 0
            return scan
        scan.records.append(record)
        offset = end
    scan.valid_bytes = offset
    scan.truncated_bytes = size - offset
    return scan


# --------------------------------------------------------------------- #
# The log
# --------------------------------------------------------------------- #


# fsync spans ~50 us (battery-backed / fake handles) to ~100 ms (spinning
# rust under load); dedicated buckets keep the barrier cost resolvable.
_FSYNC_BUCKETS = log_buckets(1e-5, 1.0, 18)


class WalMetrics:
    """Durability instruments for one :class:`WriteAheadLog`."""

    def __init__(self) -> None:
        self.appends_total = counter_family(
            "repro_wal_appends_total",
            "WAL records appended, by record kind",
            ("kind",),
        )
        self.fsyncs_total = counter_family(
            "repro_wal_fsyncs_total", "WAL durability barriers (fsync) issued"
        )
        self.fsync_seconds = histogram_family(
            "repro_wal_fsync_seconds",
            "WAL durability-barrier latency in seconds",
            buckets=_FSYNC_BUCKETS,
        )
        self.recoveries_total = counter_family(
            "repro_wal_recoveries_total", "Successful WAL replays into an index"
        )
        self.replayed_records_total = counter_family(
            "repro_wal_replayed_records_total",
            "WAL records re-applied during recovery replays",
        )

    def families(self) -> list:
        return [
            self.appends_total,
            self.fsyncs_total,
            self.fsync_seconds,
            self.recoveries_total,
            self.replayed_records_total,
        ]


class WriteAheadLog:
    """Append-only record log with CRC framing and group-commit fsync.

    Opening an existing log scans it first: a torn tail is truncated in
    place (so new appends extend the valid prefix, never garbage) and the
    decoded records are retained in :attr:`scanned_records` for replay.
    Mid-file corruption refuses to open with a typed error — appending after
    silently dropped history would fork the log.

    Parameters
    ----------
    path:
        Log file (created with the magic header when missing or empty).
    sync_every:
        Group-commit factor: fsync after every k-th appended insert record.
        Compactions and seals always sync (they are rare and gate recovery
        semantics).  ``sync_every=1`` is classic write-through.
    opener:
        Fault-injection hook: ``opener(path, mode)`` returning a file-like
        with ``write``/``flush``/``seek``/``truncate``/``close`` and
        optionally ``sync`` (preferred over raw ``os.fsync`` when present).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        sync_every: int = 1,
        opener=None,
    ) -> None:
        if sync_every < 1:
            raise SerializationError(f"sync_every must be >= 1, got {sync_every}")
        self._path = Path(path)
        self._sync_every = int(sync_every)
        self._opener = opener or (lambda p, mode: open(p, mode))
        self._pending = 0
        self._closed = False
        self.metrics = WalMetrics()
        self.insert_records = 0
        self.compaction_records = 0
        self.seal_records = 0
        #: Insert-record count captured by the most recent checkpoint seal;
        #: ``records_since_seal`` (WAL lag) is derived from it for /healthz.
        self.sealed_inserts = 0
        #: Records decoded from the existing file at open time (replay input).
        self.scanned_records: list[WalRecord] = []

        exists = self._path.exists() and self._path.stat().st_size > 0
        if exists:
            scan = scan_wal(self._path, strict=True)
            self.scanned_records = scan.records
            self.insert_records = scan.insert_records
            self.compaction_records = scan.compaction_records
            self.seal_records = scan.seal_records
            for record in scan.records:
                if record.kind == RT_SEAL:
                    self.sealed_inserts = record.inserts
            self._handle = self._opener(self._path, "r+b")
            start = max(scan.valid_bytes, len(WAL_MAGIC))
            self._handle.truncate(start)
            self._handle.seek(start)
            if scan.valid_bytes < len(WAL_MAGIC):
                # The previous process died inside the magic write itself.
                self._handle.seek(0)
                self._handle.write(WAL_MAGIC)
                self._sync_handle()
        else:
            self._handle = self._opener(self._path, "wb")
            self._handle.write(WAL_MAGIC)
            self._sync_handle()

    # -- introspection -------------------------------------------------- #

    @property
    def path(self) -> Path:
        return self._path

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pending_records(self) -> int:
        """Appended insert records not yet covered by a durability barrier."""
        return self._pending

    @property
    def records_since_seal(self) -> int:
        """Insert records appended since the last checkpoint seal (WAL lag)."""
        return self.insert_records - self.sealed_inserts

    # -- durability ----------------------------------------------------- #

    def _sync_handle(self) -> None:
        t0 = time.perf_counter()
        sync = getattr(self._handle, "sync", None)
        if sync is not None:
            sync()
        else:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self.metrics.fsyncs_total.inc()
        self.metrics.fsync_seconds.observe(time.perf_counter() - t0)

    def sync(self) -> None:
        """Force the durability barrier (flush + fsync) now."""
        self._sync_handle()
        self._pending = 0

    # -- appends -------------------------------------------------------- #

    def _append(self, rtype: int, payload: bytes, *, force_sync: bool) -> None:
        if self._closed:
            raise SerializationError(f"WAL {self._path} is closed")
        self._handle.write(_frame(rtype, payload))
        if force_sync:
            self.sync()
        else:
            self._pending += 1
            if self._pending >= self._sync_every:
                self.sync()
            else:
                self._handle.flush()

    def append_insert(self, keys, measures=None) -> None:
        """Log a 1-D insert batch (call *before* acknowledging the insert)."""
        self._append(RT_INSERT1D, _encode_insert1d(keys, measures), force_sync=False)
        self.insert_records += 1
        self.metrics.appends_total.labels(kind="insert").inc()

    def append_insert2d(self, xs, ys, measures=None) -> None:
        """Log a 2-D insert batch."""
        self._append(RT_INSERT2D, _encode_insert2d(xs, ys, measures), force_sync=False)
        self.insert_records += 1
        self.metrics.appends_total.labels(kind="insert").inc()

    def append_compaction(self, epoch: int) -> None:
        """Log a completed compaction (always fsync'd: it gates replay)."""
        self._append(RT_COMPACT, struct.pack("<Q", int(epoch)), force_sync=True)
        self.compaction_records += 1
        self.metrics.appends_total.labels(kind="compaction").inc()

    def append_seal(self, *, epoch: int, buffer_size: int) -> None:
        """Log a checkpoint seal: the counts a just-saved checkpoint subsumes.

        Advisory (recovery trusts the checkpoint's own ``wal_counts`` meta,
        which lands atomically with the checkpoint file); ``fsck`` uses seals
        to cross-check checkpoint/WAL consistency, and a future log-rotation
        can drop everything before the last seal.
        """
        payload = struct.pack(
            "<QQQQ",
            self.insert_records,
            self.compaction_records,
            int(epoch),
            int(buffer_size),
        )
        self._append(RT_SEAL, payload, force_sync=True)
        self.seal_records += 1
        self.sealed_inserts = self.insert_records
        self.metrics.appends_total.labels(kind="seal").inc()

    # -- lifecycle ------------------------------------------------------ #

    def close(self) -> None:
        """Sync and close (idempotent)."""
        if self._closed:
            return
        try:
            self.sync()
        finally:
            self._closed = True
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
