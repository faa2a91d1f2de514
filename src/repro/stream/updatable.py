"""The updatable PolyFit indexes: one mutable core, 1-D tail re-segmentation.

:class:`MutableIndexCore` is the system's one mutation lifecycle over the
otherwise build-once PolyFit structures, shared by the 1-D
:class:`UpdatablePolyFitIndex` and the 2-D
:class:`~repro.stream.updatable2d.UpdatablePolyFit2DIndex`.  It wraps an
immutable base index with an arrival-order delta buffer and serves queries
through a :class:`~repro.index.overlay.DirectoryOverlay`: the base
directory's certified estimate plus the buffer's *exact* contribution, so
every error guarantee of the static index survives a non-empty buffer
unchanged.  The core owns the epoch and version counters, the buffer, the
write-ahead log (log first, apply second; replay on ``recover``),
checkpoints, policy-triggered compaction and the cached snapshot; a
dimension supplies the fold of base plus buffer into a new base, the
overlay's delta snapshot, the WAL record of a chunk and the base size the
policy reads.

1-D compaction folds the buffer into the base.  The invariant it maintains
is strong: **post-compaction segment boundaries are identical to a
from-scratch Greedy Segmentation of the merged target function** — for
*any* workload, not just append-only ones.  That follows from GS being a
deterministic left-to-right greedy (Theorem 1): a base segment whose
closing witness sample precedes the first merged sample that changed would
be re-derived verbatim by a from-scratch build, so only the suffix from the
last unaffected boundary needs re-segmentation:

* **append-only** (all inserted keys above the base key span) — only the
  open last segment is re-examined.  For degree 1 the index keeps the
  segment's :class:`~repro.fitting.incremental.CorridorScanner` alive
  between compactions, so the appended tail is scanned by *resuming* the
  corridor instead of re-scanning the segment — the FITing-tree/PGM-style
  delta-buffer trick, with exact (not heuristic) boundaries.
* **out-of-order / duplicate keys** — a bounded merge-rebuild: the merged
  function is re-accumulated from the first affected key onward and the
  suffix from the containing segment boundary is re-segmented (one linear
  scanner pass for degree <= 1; Remez-accelerated search for degree >= 2).

Deletions are out of scope (the cumulative function must stay monotone);
see ROADMAP.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..config import Aggregate, IndexConfig
from ..errors import DataError, SerializationError
from ..fitting.incremental import CorridorScanner, fit_incremental_polynomial
from ..fitting.segmentation import Segment, greedy_segmentation
from ..index.overlay import DeltaSnapshot, DirectoryOverlay
from ..index.polyfit1d import PolyFitIndex
from ..queries.batch import SnapshotReads
from ..queries.types import Guarantee
from ..obs.metrics import SIZE_BUCKETS, counter_family, histogram_family
from .policy import CompactionPolicy
from .wal import RT_COMPACT, RT_INSERT1D, RT_SEAL, WriteAheadLog

__all__ = ["IngestMetrics", "MutableIndexCore", "UpdatablePolyFitIndex"]


class IngestMetrics:
    """Compaction instruments of an updatable index.

    Compaction is the ingest path's stop-the-world pause, so both its
    duration and the buffer fill that triggered it are histogram-tracked;
    a registry picks these up (plus the attached WAL's families) via the
    index's ``metrics_families()``.
    """

    def __init__(self) -> None:
        self.compactions_total = counter_family(
            "repro_compactions_total", "Completed compactions (buffer folds into base)"
        )
        self.compaction_seconds = histogram_family(
            "repro_compaction_seconds", "Compaction pause duration in seconds"
        )
        self.trigger_buffer_size = histogram_family(
            "repro_compaction_trigger_buffer_size",
            "Buffered records at the moment a compaction started",
            buckets=SIZE_BUCKETS,
        )

    def families(self) -> list:
        return [self.compactions_total, self.compaction_seconds, self.trigger_buffer_size]


class MutableIndexCore(SnapshotReads):
    """Insert, WAL, compaction, checkpoint and recovery over a static base.

    A subclass sets ``dims``, ``_static_type`` (the base index class) and
    ``_wal_insert_kind`` (its WAL insert record type) and implements the
    hooks :meth:`_fold`, :meth:`_delta_snapshot`, :meth:`_log_chunk` and
    :meth:`_base_size`.  Buffered chunks are tuples of columns: the
    ``dims`` coordinate columns, then the measures (unit for COUNT).  Reads
    go through :class:`~repro.queries.batch.SnapshotReads`: every call
    answers from one frozen :meth:`snapshot` overlay, so concurrent shard
    workers always serve one consistent epoch.
    """

    _static_type: type
    _wal_insert_kind: int

    def __init__(
        self,
        base,
        policy: CompactionPolicy | None = None,
        *,
        wal_path: str | Path | None = None,
        wal_sync_every: int = 1,
        wal_opener=None,
    ) -> None:
        self._base = base
        self._policy = policy or CompactionPolicy()
        self._chunks: list[tuple[np.ndarray, ...]] = []
        self._size = 0
        self._epoch = 0
        self._version = 0
        self._overlay: DirectoryOverlay | None = None
        # Durability: acknowledged inserts/compactions go through the WAL
        # first; ``recover()`` replays them after a crash.
        self._wal: WriteAheadLog | None = None
        self._replaying = False
        self._restored_wal_counts: dict | None = None
        self._obs = IngestMetrics()
        if wal_path is not None:
            wal = WriteAheadLog(wal_path, sync_every=wal_sync_every, opener=wal_opener)
            if wal.scanned_records:
                # Attaching a fresh index to a log that already holds
                # acknowledged records would silently fork history.
                wal.close()
                raise SerializationError(
                    f"WAL {wal_path} already holds {len(wal.scanned_records)} records; "
                    "use recover() to replay them instead of attaching a fresh index"
                )
            self._wal = wal

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def wrap(
        cls,
        index,
        policy: CompactionPolicy | None = None,
        *,
        wal_path: str | Path | None = None,
        wal_sync_every: int = 1,
        wal_opener=None,
    ):
        """Adopt an already-built static index as the base."""
        return cls(
            index, policy=policy, wal_path=wal_path,
            wal_sync_every=wal_sync_every, wal_opener=wal_opener,
        )

    @classmethod
    def _restore(
        cls,
        base,
        policy: CompactionPolicy,
        columns: tuple,
        *,
        epoch: int,
        wal_counts: dict | None = None,
    ):
        """Codec entry point: rebuild with a persisted buffer and epoch.

        ``columns`` is the persisted buffer in :meth:`buffer_columns` order
        (measures may be ``None`` where the aggregate implies them).
        Bypasses auto-compaction and the version counter so a loaded index
        reproduces the persisted snapshot byte for byte (same buffer, same
        epoch); ``wal_counts`` is the log position the checkpoint subsumes.
        """
        index = cls(base, policy=policy)
        chunk = index._coerce(columns[:-1], columns[-1])
        if chunk[0].size:
            index._append(chunk)
        index._epoch = int(epoch)
        index._restored_wal_counts = wal_counts
        return index

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def base(self):
        """The current immutable base index (replaced by compaction)."""
        return self._base

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the index answers."""
        return self._base.aggregate

    @property
    def delta(self) -> float:
        """Fitting budget of the base."""
        return self._base.delta

    @property
    def certified_bound(self) -> float:
        """Certified absolute bound — unchanged by the exact delta buffer."""
        return self._base.certified_bound

    @property
    def policy(self) -> CompactionPolicy:
        """The compaction policy."""
        return self._policy

    @property
    def epoch(self) -> int:
        """Number of completed compactions (flush epochs)."""
        return self._epoch

    @property
    def version(self) -> int:
        """Monotone write counter: bumped by every insert and compaction.

        Unlike :attr:`epoch` (compactions only), the version changes on
        *every* visible mutation, so result caches keyed on it can never
        serve an answer computed against a different index state.
        """
        return self._version

    @property
    def buffer_size(self) -> int:
        """Number of records currently buffered."""
        return self._size

    def buffer_columns(self) -> tuple[np.ndarray, ...]:
        """Buffered records in arrival order: coordinate columns, then measures."""
        if not self._chunks:
            return tuple(np.empty(0, dtype=np.float64) for _ in range(self.dims + 1))
        return tuple(np.concatenate(column) for column in zip(*self._chunks))

    def size_in_bytes(self) -> int:
        """Base payload plus the raw buffered columns.

        Deliberately avoids :meth:`snapshot`: introspection must not build
        the per-epoch query payload as a side effect.
        """
        return self._base.size_in_bytes() + 8 * (self.dims + 1) * self._size

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def insert(self, *columns: np.ndarray, measures: np.ndarray | None = None) -> int:
        """Buffer a chunk of records; compacts when the policy says so.

        ``insert(keys[, measures])`` on a 1-D index, ``insert(xs, ys[,
        measures])`` on a 2-D one; returns the number of records inserted.
        Records may arrive in any order and may duplicate existing ones.

        With a WAL attached, the chunk is validated, logged, and only then
        applied — so every record the log holds replays cleanly, and an
        insert this method acknowledged survives a crash (modulo the
        group-commit window, see :class:`~repro.stream.wal.WriteAheadLog`).
        """
        if len(columns) == self.dims + 1 and measures is None:
            *columns, measures = columns
        if len(columns) != self.dims:
            raise DataError(
                f"a {self.dims}-D insert takes {self.dims} coordinate array(s) "
                f"and optional measures, got {len(columns)} coordinate arrays"
            )
        chunk = self._coerce(columns, measures)
        count = int(chunk[0].size)
        if count == 0:
            return 0
        if self._wal is not None and not self._replaying:
            self._log_chunk(chunk)
        self._append(chunk)
        self._version += 1
        if (
            not self._replaying
            and self._policy.auto
            and self._policy.should_compact(self._size, self._base_size())
        ):
            self.compact()
        return count

    def _coerce(self, coordinates, measures) -> tuple[np.ndarray, ...]:
        """Validate and coerce an insert chunk without applying it.

        Validation mirrors the build path: finite coordinates, COUNT forces
        unit measures, SUM requires non-negative measures (the cumulative
        function must stay monotone), MAX/MIN require measures.  Runs
        *before* logging — a rejected chunk must never reach the log, or
        replay would fail on it.
        """
        coordinates = tuple(
            np.atleast_1d(np.asarray(column, dtype=np.float64)) for column in coordinates
        )
        first = coordinates[0]
        if first.ndim != 1 or any(column.shape != first.shape for column in coordinates):
            raise DataError("inserted coordinates must be equal-length 1-D arrays")
        if first.size == 0:
            return coordinates + (first,)
        if not all(np.all(np.isfinite(column)) for column in coordinates):
            raise DataError("inserted coordinates contain NaN or infinite values")
        if self.aggregate is Aggregate.COUNT:
            return coordinates + (np.ones_like(first),)
        if measures is None:
            raise DataError(f"{self.aggregate.value} inserts require measures")
        measures = np.atleast_1d(np.asarray(measures, dtype=np.float64))
        if measures.shape != first.shape:
            raise DataError("inserted measures must match the coordinates")
        if not np.all(np.isfinite(measures)):
            raise DataError("inserted measures contain NaN or infinite values")
        if self.aggregate is Aggregate.SUM and np.any(measures < 0):
            raise DataError("SUM inserts require non-negative measures")
        return coordinates + (measures,)

    def _append(self, chunk: tuple[np.ndarray, ...]) -> None:
        self._chunks.append(tuple(column.copy() for column in chunk))
        self._size += chunk[0].size
        self._overlay = None

    def compact(self) -> bool:
        """Fold the buffer into the base; returns whether anything changed."""
        if self._size == 0:
            return False
        t0 = time.perf_counter()
        self._obs.trigger_buffer_size.observe(self._size)
        self._base = self._fold(*self.buffer_columns())
        self._chunks.clear()
        self._size = 0
        self._overlay = None
        self._epoch += 1
        self._version += 1
        if self._wal is not None and not self._replaying:
            # Logged *after* the compaction completes: a crash in between
            # replays the buffered inserts over the old base instead — the
            # exact answers are identical, the compaction just re-runs later.
            self._wal.append_compaction(self._epoch)
        self._obs.compactions_total.inc()
        self._obs.compaction_seconds.observe(time.perf_counter() - t0)
        return True

    # ------------------------------------------------------------------ #
    # Dimension hooks
    # ------------------------------------------------------------------ #

    def _fold(self, *columns: np.ndarray):
        """New base over the current base plus the buffered ``columns``."""
        raise NotImplementedError

    def _delta_snapshot(self, *columns: np.ndarray):
        """Frozen exact view of the buffered ``columns`` for the overlay."""
        raise NotImplementedError

    def _log_chunk(self, chunk: tuple[np.ndarray, ...]) -> None:
        """Append one coerced chunk to the attached WAL."""
        raise NotImplementedError

    def _base_size(self) -> int:
        """Size of the base the compaction policy's fraction cap reads."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log, if any."""
        return self._wal

    def close(self) -> None:
        """Sync and close the attached WAL (idempotent; no-op without one)."""
        if self._wal is not None:
            self._wal.close()

    def metrics_families(self) -> list:
        """Compaction + WAL metric families, for registry registration."""
        fams = self._obs.families()
        if self._wal is not None:
            fams += self._wal.metrics.families()
        return fams

    def checkpoint(self, path: str | Path) -> Path:
        """Persist the full state atomically and seal the WAL position.

        The checkpoint file carries the WAL record counts it subsumes (in
        its codec meta), so a later :meth:`recover` replays only the suffix.
        Crash-safe in either half: the checkpoint write is atomic, and the
        seal is advisory — whichever checkpoint file survives describes its
        own log position exactly.
        """
        from ..index.codec import save_index

        path = Path(path)
        save_index(self, path)
        if self._wal is not None:
            self._wal.append_seal(epoch=self._epoch, buffer_size=self._size)
        return path

    @classmethod
    def recover(
        cls,
        checkpoint,
        wal_path: str | Path,
        *,
        policy: CompactionPolicy | None = None,
        wal_sync_every: int = 1,
        wal_opener=None,
        verify: bool = False,
    ):
        """Rebuild the pre-crash state: checkpoint (or base) + WAL replay.

        ``checkpoint`` is a codec file path, an already-loaded index of this
        class, or a bare static base index (no checkpoint — the whole log
        replays).  Opening the WAL truncates a torn tail at the last valid
        frame; mid-file corruption raises
        :class:`~repro.errors.SerializationError`.  The replayed state is
        bit-identical to the crashed process at its last durable record,
        and the returned index keeps appending to the same log.
        """
        if isinstance(checkpoint, (str, Path)):
            from ..index.codec import load_index

            # mmap=False: recovery must not keep serving off a file the
            # caller may rewrite with the next checkpoint.
            index = load_index(checkpoint, mmap=False, verify=verify)
        else:
            index = checkpoint
        if isinstance(index, cls._static_type):
            index = cls(index, policy=policy)
        if not isinstance(index, cls):
            raise SerializationError(
                f"cannot recover {cls.__name__} from {type(index).__name__}"
            )
        index._replay(WriteAheadLog(wal_path, sync_every=wal_sync_every, opener=wal_opener))
        return index

    def _replay(self, wal: WriteAheadLog) -> int:
        """Replay a scanned WAL, skipping checkpointed records.

        ``_restored_wal_counts`` (stamped by the codec when loading a
        checkpoint) says how many insert/compaction records the checkpoint
        already subsumes; everything after that prefix re-runs the same
        deterministic ``insert``/``compact`` code paths — with
        ``_replaying`` set so nothing is re-logged and auto-compaction stays
        quiet (compactions replay exactly where their durable markers are,
        not where the policy would fire mid-prefix).  Returns the number of
        records applied.
        """
        counts = self._restored_wal_counts or {}
        skip_inserts = int(counts.get("inserts", 0))
        skip_compactions = int(counts.get("compactions", 0))
        seen_inserts = seen_compactions = applied = 0
        self._replaying = True
        try:
            for record in wal.scanned_records:
                if record.kind == self._wal_insert_kind:
                    seen_inserts += 1
                    if seen_inserts <= skip_inserts:
                        continue
                    self.insert(*(record.keys, record.ys)[: self.dims], record.measures)
                    applied += 1
                elif record.kind == RT_COMPACT:
                    seen_compactions += 1
                    if seen_compactions <= skip_compactions:
                        continue
                    self.compact()
                    if self._epoch != record.epoch:
                        raise SerializationError(
                            f"WAL replay of {wal.path} diverged: compaction record "
                            f"says epoch {record.epoch}, replayed index is at "
                            f"epoch {self._epoch} — checkpoint and log disagree"
                        )
                    applied += 1
                elif record.kind == RT_SEAL:
                    continue  # advisory: fsck cross-checks seals, replay does not
                else:
                    raise SerializationError(
                        f"WAL {wal.path} holds a 1-D/2-D record mismatching the "
                        f"index being recovered (record type {record.kind})"
                    )
        finally:
            self._replaying = False
        if seen_inserts < skip_inserts or seen_compactions < skip_compactions:
            raise SerializationError(
                f"checkpoint subsumes {skip_inserts} inserts / "
                f"{skip_compactions} compactions but WAL {wal.path} holds only "
                f"{seen_inserts} / {seen_compactions} — wrong log for this checkpoint"
            )
        self._wal = wal
        self._restored_wal_counts = None
        wal.metrics.recoveries_total.inc()
        wal.metrics.replayed_records_total.inc(applied)
        return applied

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def snapshot(self) -> DirectoryOverlay:
        """Frozen overlay of the current epoch (cached until a mutation)."""
        if self._overlay is None:
            self._overlay = DirectoryOverlay(
                self._base, self._delta_snapshot(*self.buffer_columns()), epoch=self._epoch
            )
        return self._overlay


class UpdatablePolyFitIndex(MutableIndexCore):
    """PolyFit index with an insert path: delta buffer, epochs, compaction.

    Use :meth:`build` (records + guarantee/delta, like the static index) or
    :meth:`wrap` (adopt an already-built static index).
    """

    _static_type = PolyFitIndex
    _wal_insert_kind = RT_INSERT1D
    # Corridor state of the open last segment (degree-1 append fast path).
    _scanner: CorridorScanner | None = None
    _scanner_start = -1
    _scanned_until = -1

    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        measures: np.ndarray | None = None,
        aggregate: Aggregate = Aggregate.COUNT,
        *,
        delta: float | None = None,
        guarantee: Guarantee | None = None,
        config: IndexConfig | None = None,
        policy: CompactionPolicy | None = None,
        wal_path: str | Path | None = None,
        wal_sync_every: int = 1,
        wal_opener=None,
    ) -> "UpdatablePolyFitIndex":
        """Build the base index from records and make it updatable."""
        base = PolyFitIndex.build(
            keys,
            measures,
            aggregate=aggregate,
            delta=delta,
            guarantee=guarantee,
            config=config,
        )
        return cls(
            base, policy=policy, wal_path=wal_path,
            wal_sync_every=wal_sync_every, wal_opener=wal_opener,
        )

    @property
    def num_segments(self) -> int:
        """Segment count of the current base."""
        return self._base.num_segments

    @property
    def segments(self) -> list[Segment]:
        """Segments of the current base (read-only view)."""
        return self._base.segments

    @property
    def config(self) -> IndexConfig:
        """Configuration the base was built with (preserved by compaction)."""
        return self._base.config

    # ------------------------------------------------------------------ #
    # Dimension hooks
    # ------------------------------------------------------------------ #

    def _log_chunk(self, chunk: tuple[np.ndarray, ...]) -> None:
        keys, measures = chunk
        self._wal.append_insert(keys, None if self.aggregate is Aggregate.COUNT else measures)

    def _delta_snapshot(self, keys: np.ndarray, measures: np.ndarray) -> DeltaSnapshot:
        return DeltaSnapshot(keys, measures, self.aggregate)

    def _base_size(self) -> int:
        return int(self._function_arrays()[0].size)

    def _fold(self, add_keys: np.ndarray, add_measures: np.ndarray) -> PolyFitIndex:
        """Merge the buffer into the base function and re-segment the tail.

        The merged target function is re-accumulated only from the first
        affected key onward, and re-segmentation starts at the last base
        boundary whose closing witness precedes that key — so the resulting
        boundaries are exactly those of a from-scratch Greedy Segmentation
        over the merged function (see the module docstring for why).

        The merged function itself is bit-identical to rebuilding from all
        records for COUNT/MAX/MIN and for append-only SUM; out-of-order SUM
        inserts reconstruct the base's per-key sums from cumulative
        differences, which can differ from a raw rebuild by float ulps —
        far below any meaningful ``delta``, and the boundary invariant
        above always holds relative to the merged function.
        """
        base_keys, base_values = self._function_arrays()
        merged_keys, merged_values = self._merge_function(
            base_keys, base_values, add_keys, add_measures
        )
        old_n = base_keys.size
        # First merged sample that differs from the base function; everything
        # before it is bit-identical, so GS re-derives the same boundaries.
        same = (merged_keys[:old_n] == base_keys) & (merged_values[:old_n] == base_values)
        affected = int(old_n if bool(same.all()) else np.argmin(same))
        if affected == old_n and merged_keys.size == old_n:
            # Dominated duplicates (MAX/MIN) or zero-measure SUM inserts:
            # the merged function equals the base; nothing to re-fit.
            return self._base
        segments = self._resegment(merged_keys, merged_values, affected, old_n)
        return PolyFitIndex.from_segments(
            self.aggregate,
            self._base.delta,
            segments,
            merged_keys,
            merged_values,
            self._base.config,
        )

    # ------------------------------------------------------------------ #
    # Merge + re-segmentation internals
    # ------------------------------------------------------------------ #

    def _function_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self.aggregate.is_cumulative:
            function = self._base._cumulative  # noqa: SLF001 - stream is a friend module
            return function.keys, function.values
        function = self._base._key_measure  # noqa: SLF001
        return function.keys, function.measures

    def _merge_function(
        self,
        base_keys: np.ndarray,
        base_values: np.ndarray,
        add_keys: np.ndarray,
        add_measures: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merged target function; the prefix below the first inserted key is
        carried over verbatim so the affected-sample comparison is exact."""
        first = int(np.searchsorted(base_keys, add_keys.min(), side="left"))
        prefix_keys = base_keys[:first]
        prefix_values = base_values[:first]
        tail_keys = np.concatenate((base_keys[first:], add_keys))
        if self.aggregate.is_cumulative:
            # Per-key summed measures of the base suffix recover from the
            # cumulative values; re-accumulating them with the inserts keeps
            # CF a monotone function of the key.
            if first:
                base_sums = np.diff(base_values[first - 1:])
            else:
                base_sums = np.diff(base_values, prepend=0.0)
            tail_measures = np.concatenate((base_sums, add_measures))
            unique, inverse = np.unique(tail_keys, return_inverse=True)
            summed = np.zeros(unique.size, dtype=np.float64)
            np.add.at(summed, inverse, tail_measures)
            start_total = float(prefix_values[-1]) if first else 0.0
            # Seeding the running sum and letting cumsum continue reproduces
            # a from-scratch accumulation's exact floating-point association
            # (((total + s_f) + s_{f+1}) ...), so the merged CF is
            # bit-identical to rebuilding from all records.
            merged_values = np.cumsum(np.concatenate(([start_total], summed)))[1:]
        else:
            tail_measures = np.concatenate((base_values[first:], add_measures))
            unique, inverse = np.unique(tail_keys, return_inverse=True)
            if self.aggregate is Aggregate.MAX:
                merged_values = np.full(unique.size, -np.inf)
                np.maximum.at(merged_values, inverse, tail_measures)
            else:
                merged_values = np.full(unique.size, np.inf)
                np.minimum.at(merged_values, inverse, tail_measures)
        return (
            np.concatenate((prefix_keys, unique)),
            np.concatenate((prefix_values, merged_values)),
        )

    def _resegment(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        affected: int,
        old_n: int,
    ) -> list[Segment]:
        """Kept prefix segments plus a re-segmented suffix from the last
        unaffected boundary."""
        base_segments = self._base.segments
        stops = np.array([segment.stop for segment in base_segments], dtype=np.intp)
        # A base segment is re-derived verbatim by a from-scratch GS iff its
        # closing witness sample (index == stop) precedes the first affected
        # sample; the rest — including the open last segment, whose end was
        # "end of data", not a witness — must be re-examined.
        kept = int(np.searchsorted(stops, affected, side="left"))
        keep = base_segments[:kept]
        start = int(stops[kept - 1]) if kept else 0
        config = self._base.config
        degree = self._base.degree
        if (
            degree == 1
            and config.fit.solver in ("auto", "incremental")
            and affected == old_n
        ):
            # Pure append beyond the base key span: resume (or warm) the open
            # last segment's corridor and scan only the new samples.
            tail = self._scan_tail(keys, values, start, old_n)
        else:
            self._drop_scanner()
            budget = self._base.delta
            sub = greedy_segmentation(
                keys[start:],
                values[start:],
                delta=budget,
                degree=degree,
                use_exponential_search=config.segmentation.method != "greedy",
                solver=config.fit.solver,
                early_accept=config.segmentation.early_accept,
            )
            tail = [
                replace(segment, start=segment.start + start, stop=segment.stop + start)
                for segment in sub
            ]
        return keep + tail

    def _drop_scanner(self) -> None:
        self._scanner = None
        self._scanner_start = -1
        self._scanned_until = -1

    def _scan_tail(
        self, keys: np.ndarray, values: np.ndarray, start: int, old_n: int
    ) -> list[Segment]:
        """Degree-1 scanner pass over ``[start, n)``, resuming when possible.

        A retained scanner whose state covers exactly the open segment
        ``[start, old_n)`` continues over the appended samples only;
        otherwise a fresh scanner warms up over the open segment first
        (O(segment) — still bounded by one segment, never the whole prefix).
        The scanner left covering the new last segment is retained for the
        next epoch.
        """
        n = keys.size
        budget = self._base.delta
        if (
            self._scanner is not None
            and self._scanner.alive
            and self._scanner_start == start
            and self._scanned_until == old_n
        ):
            # The retained corridor already covers [start, old_n); scanning
            # resumes on the appended samples only, so only they need the
            # list conversion — not the (possibly huge) open segment.
            scanner = self._scanner
            list_base = old_n
        else:
            scanner = CorridorScanner(budget)
            list_base = start
        ks = keys[list_base:].tolist()
        vs = values[list_base:].tolist()
        limit = n - list_base
        segments: list[Segment] = []
        segment_start = start
        # Relative to list_base both branches start scanning at its first
        # element: the resumed corridor has consumed everything before it.
        position = 0
        while True:
            stop = scanner.extend(ks, vs, position, limit)
            if stop == limit:
                segments.append(self._emit(keys, values, segment_start, n))
                break
            segments.append(self._emit(keys, values, segment_start, list_base + stop))
            scanner = CorridorScanner(budget)
            segment_start = list_base + stop
            position = stop
        self._scanner = scanner
        self._scanner_start = segment_start
        self._scanned_until = n
        return segments

    def _emit(
        self, keys: np.ndarray, values: np.ndarray, start: int, stop: int
    ) -> Segment:
        """Closed-form hull refit on the accepted slice (mirrors GS's
        ``_linear_pass`` emission, so fits match a from-scratch build)."""
        fit = fit_incremental_polynomial(keys[start:stop], values[start:stop], 1)
        return Segment(
            key_low=float(keys[start]),
            key_high=float(keys[stop - 1]),
            start=start,
            stop=stop,
            polynomial=fit.polynomial,
            max_error=fit.max_error,
        )
