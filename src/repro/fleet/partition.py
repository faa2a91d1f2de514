"""One key range of a partitioned fleet: its own index, buffer, and epoch.

A :class:`Partition` owns every record whose key falls in its ownership
range and answers queries for it through its own
:class:`~repro.stream.updatable.UpdatablePolyFitIndex` — its own delta
buffer, its own compaction policy, its own epoch counter.  That per-range
independence is the point of the fleet: compaction or a split stalls one
key range, never the whole domain.

A partition that has never seen a record has no index at all; its
:class:`EmptyPartitionView` answers the overlay algebra's identities
(zeros for COUNT/SUM, NaN for MAX/MIN) with a certified bound of ``0.0``,
so the router's merge absorbs it without special-casing.

:meth:`Partition.records` recovers the canonical (key, measure) records
from the index's target function — COUNT expands integer cumulative steps,
SUM differences the cumulative sums, MAX/MIN read the key-measure table —
plus whatever sits unflushed in the delta buffer.  Split/merge rebalancing
rebuilds neighbour partitions from exactly these records.
"""

from __future__ import annotations

import numpy as np

from ..config import Aggregate, IndexConfig
from ..errors import DataError
from ..index.overlay import DirectoryOverlay
from ..stream.policy import CompactionPolicy
from ..stream.updatable import UpdatablePolyFitIndex

__all__ = ["Partition", "EmptyPartitionView"]


class EmptyPartitionView:
    """Frozen read view of a partition with no records.

    Mirrors the :class:`~repro.index.overlay.DirectoryOverlay` batch surface
    with the merge identities of the overlay algebra: cumulative answers are
    ``0.0`` (adding nothing), extreme answers are ``NaN`` (``fmax``/``fmin``
    ignore NaN operands), and the certified bound is ``0.0`` (an empty range
    is answered exactly).
    """

    def __init__(self, aggregate: Aggregate) -> None:
        self._aggregate = aggregate
        self._fill = 0.0 if aggregate.is_cumulative else np.nan

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate this view answers."""
        return self._aggregate

    @property
    def certified_bound(self) -> float:
        """Empty answers are exact."""
        return 0.0

    @property
    def epoch(self) -> int:
        """An empty partition has never compacted."""
        return 0

    @property
    def version(self) -> int:
        """An empty partition has never mutated."""
        return 0

    def _answers(self, lows: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(lows).size, self._fill, dtype=np.float64)

    def estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Identity answers for N ranges (0.0 cumulative, NaN extreme)."""
        return self._answers(lows)

    def exact_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Exact answers equal the identities for an empty partition."""
        return self._answers(lows)


class Partition:
    """One fleet partition: an updatable index over one key range.

    Parameters
    ----------
    aggregate:
        Aggregate the partition answers (shared across the fleet).
    delta:
        Per-segment fitting budget used when (re)building the partition's
        index (shared across the fleet so per-partition certified bounds are
        uniform and the merged bound is ``delta``-proportional to the number
        of partitions a query straddles).
    config:
        Index configuration (degree, segmentation, fan-out).
    compaction:
        Delta-buffer compaction policy handed to the underlying
        :class:`~repro.stream.updatable.UpdatablePolyFitIndex`.

    The partition does not know its own key range — the fleet's
    :class:`~repro.fleet.map.PartitionMap` owns routing; the partition only
    stores and answers.
    """

    def __init__(
        self,
        aggregate: Aggregate,
        *,
        delta: float,
        config: IndexConfig | None = None,
        compaction: CompactionPolicy | None = None,
    ) -> None:
        self._aggregate = aggregate
        self._delta = float(delta)
        if self._delta <= 0:
            raise DataError(f"delta must be positive, got {self._delta}")
        self._config = config
        self._compaction = compaction or CompactionPolicy()
        self._index: UpdatablePolyFitIndex | None = None
        self._empty_view = EmptyPartitionView(aggregate)

    @classmethod
    def from_records(
        cls,
        keys: np.ndarray,
        measures: np.ndarray | None,
        aggregate: Aggregate,
        *,
        delta: float,
        config: IndexConfig | None = None,
        compaction: CompactionPolicy | None = None,
    ) -> "Partition":
        """Build a partition from raw records (empty arrays are fine)."""
        partition = cls(
            aggregate, delta=delta, config=config, compaction=compaction
        )
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size:
            partition._index = UpdatablePolyFitIndex.build(
                keys,
                measures,
                aggregate=aggregate,
                delta=delta,
                config=config,
                policy=compaction,
            )
        return partition

    @classmethod
    def adopt(
        cls,
        index: UpdatablePolyFitIndex,
        *,
        delta: float | None = None,
        config: IndexConfig | None = None,
    ) -> "Partition":
        """Wrap an already-built updatable index (codec load path)."""
        partition = cls(
            index.aggregate,
            delta=index.delta if delta is None else delta,
            config=config if config is not None else index.config,
            compaction=index.policy,
        )
        partition._index = index
        return partition

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the partition answers."""
        return self._aggregate

    @property
    def delta(self) -> float:
        """Per-segment fitting budget used for (re)builds."""
        return self._delta

    @property
    def config(self) -> IndexConfig | None:
        """Index configuration used for (re)builds."""
        return self._config

    @property
    def compaction(self) -> CompactionPolicy:
        """Delta-buffer policy of the underlying updatable index."""
        return self._compaction

    @property
    def index(self) -> UpdatablePolyFitIndex | None:
        """The underlying updatable index (``None`` while empty)."""
        return self._index

    @property
    def is_empty(self) -> bool:
        """Whether the partition has no records at all."""
        return self._index is None

    @property
    def num_keys(self) -> int:
        """Distinct base keys plus buffered records (the policy's size input)."""
        if self._index is None:
            return 0
        base_keys = self._index._function_arrays()[0]  # noqa: SLF001 - fleet is a friend module
        return int(base_keys.size) + int(self._index.buffer_size)

    @property
    def epoch(self) -> int:
        """Compaction epoch of the underlying index (0 while empty)."""
        return 0 if self._index is None else self._index.epoch

    @property
    def version(self) -> int:
        """Mutation counter of the underlying index (0 while empty)."""
        return 0 if self._index is None else self._index.version

    @property
    def buffer_size(self) -> int:
        """Records sitting in the delta buffer (0 while empty)."""
        return 0 if self._index is None else self._index.buffer_size

    @property
    def num_segments(self) -> int:
        """Segment count of the underlying base (0 while empty)."""
        return 0 if self._index is None else self._index.num_segments

    @property
    def certified_bound(self) -> float:
        """Certified absolute bound of this partition's answers."""
        return 0.0 if self._index is None else self._index.certified_bound

    def size_in_bytes(self) -> int:
        """Estimated in-memory footprint (the policy's byte input)."""
        return 0 if self._index is None else self._index.size_in_bytes()

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def insert(self, keys: np.ndarray, measures: np.ndarray | None = None) -> int:
        """Insert records (already routed here by key); returns the count.

        The first insert into an empty partition *builds* its index from the
        chunk; later inserts go through the index's delta buffer and its
        compaction policy.
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.float64))
        if keys.size == 0:
            return 0
        if self._index is None:
            self._index = UpdatablePolyFitIndex.build(
                keys,
                measures,
                aggregate=self._aggregate,
                delta=self._delta,
                config=self._config,
                policy=self._compaction,
            )
            return int(keys.size)
        return self._index.insert(keys, measures)

    def compact(self) -> bool:
        """Fold the delta buffer into the base; False when there is nothing."""
        return False if self._index is None else self._index.compact()

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def snapshot(self) -> DirectoryOverlay | EmptyPartitionView:
        """Frozen read view of the current epoch.

        A :class:`~repro.index.overlay.DirectoryOverlay` when the partition
        holds records, the merge-identity :class:`EmptyPartitionView`
        otherwise.  Frozen views are what the router fans out over, so a
        concurrent compaction or split never changes answers mid-batch.
        """
        if self._index is None:
            return self._empty_view
        return self._index.snapshot()

    # ------------------------------------------------------------------ #
    # Rebalancing support
    # ------------------------------------------------------------------ #

    def records(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Canonical (keys, measures) records held by this partition.

        Recovers records from the index's target function — COUNT repeats
        each key by its integer cumulative step, SUM differences the
        cumulative sums into per-key totals, MAX/MIN read the key-measure
        table directly — then appends the unflushed delta-buffer records.
        ``measures`` is ``None`` for COUNT (unit measures are implied).

        Rebuilding an index from these records reproduces the partition's
        target function exactly for COUNT/MAX/MIN; SUM per-key totals are
        recovered by floating-point differencing and can drift from the raw
        per-record sums by ulps — far below any meaningful ``delta``.
        """
        if self._index is None:
            empty = np.empty(0, dtype=np.float64)
            return empty, (None if self._aggregate is Aggregate.COUNT else empty.copy())
        base_keys, base_values = self._index._function_arrays()  # noqa: SLF001 - fleet is a friend module
        buffer_keys, buffer_measures = self._index.buffer_columns()
        if self._aggregate is Aggregate.COUNT:
            counts = np.diff(base_values, prepend=0.0)
            keys = np.concatenate(
                (np.repeat(base_keys, counts.astype(np.int64)), buffer_keys)
            )
            return keys, None
        if self._aggregate is Aggregate.SUM:
            base_measures = np.diff(base_values, prepend=0.0)
        else:
            base_measures = base_values
        return (
            np.concatenate((base_keys, buffer_keys)),
            np.concatenate((base_measures, buffer_measures)),
        )
