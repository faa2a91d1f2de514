"""Streaming ingestion: the delta-buffer write path over the static indexes.

The PolyFit structures are build-once; this package adds the system's first
mutation lifecycle — inserts, flush epochs, snapshots and compaction:

* :class:`~repro.stream.policy.CompactionPolicy` — when the buffer folds
  into the base (record cap, base-fraction cap, auto/manual).
* :class:`~repro.stream.updatable.MutableIndexCore` — the one write path
  both updatable indexes share: epoch and version counters, an
  arrival-order delta buffer, WAL append and replay, checkpoint, recovery,
  policy-triggered compaction and the cached snapshot overlay.  A dimension
  plugs in four hooks: fold base plus buffer into a new base, build the
  overlay's exact delta snapshot, log a chunk, and report the base size the
  policy reads.
* :class:`~repro.stream.updatable.UpdatablePolyFitIndex` — the one-key
  updatable index: exact delta contributions preserve the certified error
  bounds, and compaction re-segments only the tail from the last unaffected
  segment boundary (resuming the degree-1 corridor scanner for append-only
  workloads), producing boundaries identical to a from-scratch build.
* :class:`~repro.stream.updatable2d.UpdatablePolyFit2DIndex` — the minimal
  two-key variant: exact :class:`~repro.functions.cumulative2d.Cumulative2D`
  merge over the buffered points, full rebuild at compaction.
* :class:`~repro.stream.wal.WriteAheadLog` — CRC-framed durability for the
  insert path: both updatable indexes accept ``wal_path=`` so acknowledged
  inserts replay bit-identically after a crash via ``recover()``, with torn
  log tails truncated at the last valid frame (see ``docs/FORMATS.md``).
"""

from .policy import CompactionPolicy
from .updatable import UpdatablePolyFitIndex
from .updatable2d import UpdatablePolyFit2DIndex
from .wal import WalRecord, WalScan, WriteAheadLog, scan_wal

__all__ = [
    "CompactionPolicy",
    "UpdatablePolyFitIndex",
    "UpdatablePolyFit2DIndex",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "scan_wal",
]
