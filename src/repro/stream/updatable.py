"""The one-key updatable PolyFit index: delta buffer + tail re-segmentation.

:class:`UpdatablePolyFitIndex` is the system's first mutation lifecycle over
the otherwise build-once PolyFit structures.  It wraps an immutable base
:class:`~repro.index.polyfit1d.PolyFitIndex` with a sorted in-memory delta
buffer and serves queries through a :class:`~repro.index.overlay.
DirectoryOverlay`: the base directory's certified estimate plus the buffer's
*exact* contribution, so every error guarantee of the static index survives
a non-empty buffer unchanged.

Compaction folds the buffer into the base.  The invariant it maintains is
strong: **post-compaction segment boundaries are identical to a from-scratch
Greedy Segmentation of the merged target function** — for *any* workload,
not just append-only ones.  That follows from GS being a deterministic
left-to-right greedy (Theorem 1): a base segment whose closing witness
sample precedes the first merged sample that changed would be re-derived
verbatim by a from-scratch build, so only the suffix from the last
unaffected boundary needs re-segmentation:

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
from ..errors import GuaranteeNotSatisfiedError, SerializationError
from ..fitting.incremental import CorridorScanner, fit_incremental_polynomial
from ..fitting.segmentation import Segment, greedy_segmentation
from ..index.overlay import DirectoryOverlay
from ..index.polyfit1d import PolyFitIndex
from ..queries.types import BatchQueryResult, Guarantee, QueryResult, RangeQuery
from ..obs.metrics import SIZE_BUCKETS, counter_family, histogram_family
from .buffer import DeltaBuffer
from .policy import CompactionPolicy
from .wal import RT_COMPACT, RT_INSERT1D, RT_INSERT2D, RT_SEAL, WriteAheadLog

__all__ = ["IngestMetrics", "UpdatablePolyFitIndex"]


class IngestMetrics:
    """Compaction instruments shared by the 1-D and 2-D updatable indexes.

    Compaction is the ingest path's stop-the-world pause, so both its
    duration and the buffer fill that triggered it are histogram-tracked;
    a registry picks these up (plus the attached WAL's families) via the
    index's ``metrics_families()``.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.compactions_total = counter_family(
            "repro_compactions_total", "Completed compactions (buffer folds into base)", enabled=enabled
        )
        self.compaction_seconds = histogram_family(
            "repro_compaction_seconds", "Compaction pause duration in seconds", enabled=enabled
        )
        self.trigger_buffer_size = histogram_family(
            "repro_compaction_trigger_buffer_size",
            "Buffered records at the moment a compaction started",
            buckets=SIZE_BUCKETS,
            enabled=enabled,
        )

    def families(self) -> list:
        fams = [self.compactions_total, self.compaction_seconds, self.trigger_buffer_size]
        return [f for f in fams if getattr(f, "enabled", False)]


def _open_fresh_wal(wal_path, *, sync_every: int, opener) -> WriteAheadLog:
    """Attach a WAL to a *new* index: an existing non-empty log is refused.

    Constructing a fresh index over a log that already holds acknowledged
    records would silently fork history — those records exist durably but
    not in memory.  The reopen path is ``recover()``, which replays first.
    """
    wal = WriteAheadLog(wal_path, sync_every=sync_every, opener=opener)
    if wal.scanned_records:
        wal.close()
        raise SerializationError(
            f"WAL {wal_path} already holds {len(wal.scanned_records)} records; "
            "use recover() to replay them instead of attaching a fresh index"
        )
    return wal


def _replay_wal(index, wal: WriteAheadLog, *, two_dimensional: bool) -> int:
    """Replay a scanned WAL over ``index``, skipping checkpointed records.

    ``index._restored_wal_counts`` (stamped by the codec when loading a
    checkpoint) says how many insert/compaction records the checkpoint
    already subsumes; everything after that prefix re-runs the same
    deterministic ``insert``/``compact`` code paths — with
    ``index._replaying`` set so nothing is re-logged and auto-compaction
    stays quiet (compactions replay exactly where their durable markers
    are, not where the policy would fire mid-prefix).  Returns the number
    of records applied.
    """
    counts = getattr(index, "_restored_wal_counts", None) or {}
    skip_inserts = int(counts.get("inserts", 0))
    skip_compactions = int(counts.get("compactions", 0))
    insert_kinds = (RT_INSERT2D,) if two_dimensional else (RT_INSERT1D,)
    seen_inserts = seen_compactions = applied = 0
    index._replaying = True
    try:
        for record in wal.scanned_records:
            if record.kind in insert_kinds:
                seen_inserts += 1
                if seen_inserts <= skip_inserts:
                    continue
                if two_dimensional:
                    index.insert(record.keys, record.ys, record.measures)
                else:
                    index.insert(record.keys, record.measures)
                applied += 1
            elif record.kind == RT_COMPACT:
                seen_compactions += 1
                if seen_compactions <= skip_compactions:
                    continue
                index.compact()
                if index.epoch != record.epoch:
                    raise SerializationError(
                        f"WAL replay of {wal.path} diverged: compaction record "
                        f"says epoch {record.epoch}, replayed index is at "
                        f"epoch {index.epoch} — checkpoint and log disagree"
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
        index._replaying = False
    if seen_inserts < skip_inserts or seen_compactions < skip_compactions:
        raise SerializationError(
            f"checkpoint subsumes {skip_inserts} inserts / "
            f"{skip_compactions} compactions but WAL {wal.path} holds only "
            f"{seen_inserts} / {seen_compactions} — wrong log for this checkpoint"
        )
    index._wal = wal
    index._restored_wal_counts = None
    wal.metrics.recoveries_total.inc()
    wal.metrics.replayed_records_total.inc(applied)
    return applied


class UpdatablePolyFitIndex:
    """PolyFit index with an insert path: delta buffer, epochs, compaction.

    Use :meth:`build` (records + guarantee/delta, like the static index) or
    :meth:`wrap` (adopt an already-built static index).  Reads go through
    :meth:`snapshot` — a frozen overlay per flush epoch — so concurrent
    shard workers always serve one consistent epoch.
    """

    def __init__(
        self,
        base: PolyFitIndex,
        policy: CompactionPolicy | None = None,
        *,
        wal_path: str | Path | None = None,
        wal_sync_every: int = 1,
        wal_opener=None,
    ) -> None:
        self._base = base
        self._policy = policy or CompactionPolicy()
        self._buffer = DeltaBuffer(base.aggregate)
        self._epoch = 0
        self._version = 0
        self._overlay: DirectoryOverlay | None = None
        # Corridor state of the open last segment (degree-1 append fast path).
        self._scanner: CorridorScanner | None = None
        self._scanner_start = -1
        self._scanned_until = -1
        # Durability: acknowledged inserts/compactions go through the WAL
        # first; ``recover()`` replays them after a crash.
        self._wal: WriteAheadLog | None = None
        self._replaying = False
        self._restored_wal_counts: dict | None = None
        self._obs = IngestMetrics()
        if wal_path is not None:
            self._wal = _open_fresh_wal(
                wal_path, sync_every=wal_sync_every, opener=wal_opener
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

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

    @classmethod
    def wrap(
        cls,
        index: PolyFitIndex,
        policy: CompactionPolicy | None = None,
        *,
        wal_path: str | Path | None = None,
        wal_sync_every: int = 1,
        wal_opener=None,
    ) -> "UpdatablePolyFitIndex":
        """Adopt an already-built static index as the base."""
        return cls(
            index, policy=policy, wal_path=wal_path,
            wal_sync_every=wal_sync_every, wal_opener=wal_opener,
        )

    @classmethod
    def _restore(
        cls,
        base: PolyFitIndex,
        policy: CompactionPolicy,
        delta_keys: np.ndarray,
        delta_measures: np.ndarray,
        epoch: int,
    ) -> "UpdatablePolyFitIndex":
        """Codec entry point: rebuild with a persisted delta log and epoch.

        Bypasses auto-compaction so a loaded index reproduces the persisted
        snapshot byte for byte (same buffer, same epoch) — what mmap'd shard
        workers rely on for consistency.
        """
        index = cls(base, policy=policy)
        if np.asarray(delta_keys).size:
            index._buffer.insert(
                delta_keys,
                None if base.aggregate is Aggregate.COUNT else delta_measures,
            )
        index._epoch = int(epoch)
        return index

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def base(self) -> PolyFitIndex:
        """The current immutable base index (replaced by compaction)."""
        return self._base

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the index answers."""
        return self._base.aggregate

    @property
    def delta(self) -> float:
        """Per-segment fitting budget of the base."""
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
        return len(self._buffer)

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

    def size_in_bytes(self) -> int:
        """Base payload plus the raw buffered records.

        Deliberately avoids :meth:`snapshot`: introspection must not build
        the per-epoch sorted query payload as a side effect.  A snapshot's
        own ``size_in_bytes`` additionally counts its prefix/extreme arrays.
        """
        return self._base.size_in_bytes() + self._buffer.size_in_bytes()

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def insert(self, keys: np.ndarray, measures: np.ndarray | None = None) -> int:
        """Buffer a chunk of records; compacts when the policy says so.

        Returns the number of records inserted.  Keys may arrive in any
        order and may duplicate existing keys; only the compaction cost
        differs (append-only tails resume the corridor scanner, everything
        else takes the bounded merge-rebuild).

        With a WAL attached, the chunk is validated, logged, and only then
        applied — so every record the log holds replays cleanly, and an
        insert this method acknowledged survives a crash (modulo the
        group-commit window, see :class:`~repro.stream.wal.WriteAheadLog`).
        """
        if self._wal is not None and not self._replaying:
            keys, measures = self._buffer.coerce(keys, measures)
            if keys.size:
                self._wal.append_insert(
                    keys,
                    None if self.aggregate is Aggregate.COUNT else measures,
                )
        count = self._buffer.insert(keys, measures)
        if count:
            self._overlay = None
            self._version += 1
            if (
                not self._replaying
                and self._policy.auto
                and self._policy.should_compact(len(self._buffer), self._function_size())
            ):
                self.compact()
        return count

    def compact(self) -> bool:
        """Fold the buffer into the base; returns whether anything changed.

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
        if self._buffer.is_empty:
            return False
        t0 = time.perf_counter()
        self._obs.trigger_buffer_size.observe(len(self._buffer))
        base_keys, base_values = self._function_arrays()
        add_keys, add_measures = self._buffer.arrays()
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
            self._finish_epoch()
            self._obs.compactions_total.inc()
            self._obs.compaction_seconds.observe(time.perf_counter() - t0)
            return True
        segments = self._resegment(merged_keys, merged_values, affected, old_n)
        self._base = PolyFitIndex.from_segments(
            self.aggregate,
            self._base.delta,
            segments,
            merged_keys,
            merged_values,
            self._base.config,
        )
        self._finish_epoch()
        self._obs.compactions_total.inc()
        self._obs.compaction_seconds.observe(time.perf_counter() - t0)
        return True

    def _finish_epoch(self) -> None:
        self._buffer.clear()
        self._overlay = None
        self._epoch += 1
        self._version += 1
        if self._wal is not None and not self._replaying:
            # Logged *after* the compaction completes: a crash in between
            # replays the buffered inserts over the old base instead — the
            # exact answers are identical, the compaction just re-runs later.
            self._wal.append_compaction(self._epoch)

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log, if any."""
        return self._wal

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
            self._wal.append_seal(epoch=self._epoch, buffer_size=self.buffer_size)
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
    ) -> "UpdatablePolyFitIndex":
        """Rebuild the pre-crash state: checkpoint (or base) + WAL replay.

        ``checkpoint`` is a codec file path, an already-loaded
        :class:`UpdatablePolyFitIndex`, or a bare
        :class:`~repro.index.polyfit1d.PolyFitIndex` (no checkpoint — the
        whole log replays).  Opening the WAL truncates a torn tail at the
        last valid frame; mid-file corruption raises
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
        if isinstance(index, PolyFitIndex):
            index = cls(index, policy=policy)
        if not isinstance(index, cls):
            raise SerializationError(
                f"cannot recover a 1-D updatable index from {type(index).__name__}"
            )
        wal = WriteAheadLog(wal_path, sync_every=wal_sync_every, opener=wal_opener)
        _replay_wal(index, wal, two_dimensional=False)
        return index

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def snapshot(self) -> DirectoryOverlay:
        """Frozen overlay of the current epoch (cached until a mutation)."""
        if self._overlay is None:
            self._overlay = DirectoryOverlay(
                self._base, self._buffer.snapshot(), epoch=self._epoch
            )
        return self._overlay

    def estimate(self, query: RangeQuery) -> float:
        """Combined approximate answer for one range."""
        return self.snapshot().estimate(query)

    def exact(self, query: RangeQuery) -> float:
        """Combined exact answer (base fallback + exact buffer part)."""
        return self.snapshot().exact(query)

    def query(self, query: RangeQuery, guarantee: Guarantee | None = None) -> QueryResult:
        """Answer one query with the static index's guarantee semantics."""
        return self.snapshot().query(query, guarantee)

    def estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Combined approximate answers for N ranges."""
        return self.snapshot().estimate_batch(lows, highs)

    def exact_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Combined exact answers for N ranges."""
        return self.snapshot().exact_batch(lows, highs)

    def query_batch(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        guarantee: Guarantee | None = None,
    ) -> BatchQueryResult:
        """Answer N queries with certificates over the combined values."""
        return self.snapshot().query_batch(lows, highs, guarantee)

    # ------------------------------------------------------------------ #
    # Merge + re-segmentation internals
    # ------------------------------------------------------------------ #

    def _function_size(self) -> int:
        return int(self._function_arrays()[0].size)

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

    def require_guarantee(self, query: RangeQuery, guarantee: Guarantee) -> float:
        """Answer and raise if the guarantee cannot be certified."""
        result = self.query(query, guarantee)
        if not result.guaranteed:
            raise GuaranteeNotSatisfiedError(
                f"index certifies only +/-{self.certified_bound}, "
                f"requested {guarantee.kind.value} eps={guarantee.epsilon}"
            )
        return result.value
