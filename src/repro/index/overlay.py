"""Read-only overlay view combining a base index with a frozen delta buffer.

The streaming write path (:mod:`repro.stream`) buffers inserted records in
memory between compactions.  Queries must keep their certified error bounds
while the buffer is non-empty, which works because the buffer's contribution
is *exact*:

* :class:`DeltaSnapshot` — an immutable, key-sorted view of buffered
  (key, measure) records for one flush epoch.  SUM/COUNT contributions are a
  prefix-sum array probed with one ``searchsorted`` per query side; MAX/MIN
  contributions go through a :class:`~repro.index.directory.RangeExtremeTable`
  over the sorted measures.  Both are O(1) NumPy calls for N queries.
* :class:`DirectoryOverlay` — the combined read view: the base index's
  certified estimate plus the snapshot's exact contribution.  The overlay is
  immutable, so shard threads handed an overlay all serve the *same* epoch
  even while the owning updatable index keeps absorbing writes.

Because the delta part is exact, the overlay's absolute error equals the
base index's (``|combined - truth| = |base_est - base_truth| <= bound`` for
cumulative aggregates, and the extreme merge is 1-Lipschitz per operand), so
the Lemma 2/3/4/5 guarantee machinery applies to the combined answer
unchanged.
"""

from __future__ import annotations

import numpy as np

from ..config import Aggregate
from ..errors import DataError, NotSupportedError
from ..queries.batch import resolve_batch_certificates, validate_bounds_batch
from ..queries.types import BatchQueryResult, Guarantee, QueryResult, RangeQuery
from .directory import RangeExtremeTable
from .polyfit1d import PolyFitIndex

__all__ = ["DeltaSnapshot", "DirectoryOverlay"]


class DeltaSnapshot:
    """Immutable key-sorted view of buffered records for one flush epoch.

    Construction sorts once; every query after that is O(log m) per bound
    via ``searchsorted`` against the sorted keys plus an O(1) gather from
    the per-epoch payload (prefix sums for SUM/COUNT, a range-extreme table
    for MAX/MIN).  Duplicate keys are kept — the contribution semantics are
    per *record*, matching how the cumulative function would absorb them at
    compaction.
    """

    def __init__(self, keys: np.ndarray, measures: np.ndarray, aggregate: Aggregate) -> None:
        keys = np.asarray(keys, dtype=np.float64)
        measures = np.asarray(measures, dtype=np.float64)
        if keys.ndim != 1 or keys.shape != measures.shape:
            raise DataError("delta keys and measures must be equal-length 1-D arrays")
        order = np.argsort(keys, kind="stable")
        self.keys = np.ascontiguousarray(keys[order])
        self.measures = np.ascontiguousarray(measures[order])
        self.aggregate = aggregate
        if aggregate.is_cumulative:
            self._prefix = np.concatenate(([0.0], np.cumsum(self.measures)))
            self._extremes = None
        else:
            self._prefix = None
            self._extremes = (
                RangeExtremeTable(self.measures, maximize=aggregate is Aggregate.MAX)
                if self.measures.size
                else None
            )

    def __len__(self) -> int:
        return int(self.keys.size)

    @property
    def is_empty(self) -> bool:
        """Whether the snapshot holds no buffered records."""
        return self.keys.size == 0

    def contribution_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Exact per-query contribution of the buffered records.

        SUM/COUNT: the summed measures of buffered records with key in
        ``[low, high]`` (both ends inclusive, matching
        :meth:`~repro.functions.cumulative.CumulativeFunction.range_sum`).
        MAX/MIN: the extreme buffered measure in range, NaN when no buffered
        record falls inside (matching the empty-range convention).
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if self.aggregate.is_cumulative:
            if self._prefix is None or self.keys.size == 0:
                return np.zeros(lows.shape, dtype=np.float64)
            upper = self._prefix[np.searchsorted(self.keys, highs, side="right")]
            lower = self._prefix[np.searchsorted(self.keys, lows, side="left")]
            return upper - lower
        out = np.full(lows.shape, np.nan, dtype=np.float64)
        if self._extremes is None:
            return out
        lo = np.searchsorted(self.keys, lows, side="left")
        hi = np.searchsorted(self.keys, highs, side="right") - 1
        non_empty = hi >= lo
        if np.any(non_empty):
            out[non_empty] = self._extremes.query(lo[non_empty], hi[non_empty])
        return out

    def size_in_bytes(self) -> int:
        """Footprint of the snapshot arrays (payload included)."""
        total = int(self.keys.nbytes + self.measures.nbytes)
        if self._prefix is not None:
            total += int(self._prefix.nbytes)
        if self._extremes is not None:
            total += self._extremes.size_in_bytes()
        return total


def _combine(base: np.ndarray, delta: np.ndarray, aggregate: Aggregate) -> np.ndarray:
    """Merge the base estimate with the exact delta contribution."""
    if aggregate.is_cumulative:
        return base + delta
    # fmax/fmin ignore a NaN in one operand (empty base range or empty
    # buffered window) and propagate NaN only when both sides are empty,
    # matching the scalar empty-range convention.
    merge = np.fmax if aggregate is Aggregate.MAX else np.fmin
    return merge(base, delta)


class DirectoryOverlay:
    """Frozen combined read view: base index estimate + exact delta part.

    Exposes the same batch interface as the wrapped index
    (``estimate_batch`` / ``exact_batch`` / ``query_batch`` plus the scalar
    ``query`` / ``estimate`` / ``exact``), so :class:`~repro.queries.engine.
    QueryEngine` and :class:`~repro.queries.sharding.ShardedQueryEngine`
    consume it unchanged.  Instances are snapshots: inserts or compactions
    on the owning updatable index never mutate an existing overlay.
    """

    def __init__(self, base: PolyFitIndex, delta: DeltaSnapshot, epoch: int = 0) -> None:
        if delta.aggregate is not base.aggregate:
            raise NotSupportedError(
                f"delta snapshot aggregates {delta.aggregate.value}, "
                f"base index {base.aggregate.value}"
            )
        self._base = base
        self._delta = delta
        self._epoch = int(epoch)

    @property
    def base(self) -> PolyFitIndex:
        """The wrapped immutable base index."""
        return self._base

    @property
    def delta(self) -> DeltaSnapshot:
        """The frozen delta snapshot this overlay serves."""
        return self._delta

    @property
    def epoch(self) -> int:
        """Flush epoch of the owning updatable index when snapshotted."""
        return self._epoch

    @property
    def version(self) -> int:
        """Cache-key version: the frozen epoch (the view never mutates)."""
        return self._epoch

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the overlay answers."""
        return self._base.aggregate

    @property
    def certified_bound(self) -> float:
        """Certified absolute bound — the base's, since the delta is exact."""
        return self._base.certified_bound

    # ------------------------------------------------------------------ #
    # Batch interface
    # ------------------------------------------------------------------ #

    def estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Combined approximate answers for N ranges."""
        lows, highs = validate_bounds_batch(lows, highs)
        base = self._base.estimate_batch(lows, highs)
        if self._delta.is_empty:
            return base
        return _combine(base, self._delta.contribution_batch(lows, highs), self.aggregate)

    def exact_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Combined exact answers for N ranges."""
        lows, highs = validate_bounds_batch(lows, highs)
        base = self._base.exact_batch(lows, highs)
        if self._delta.is_empty:
            return base
        return _combine(base, self._delta.contribution_batch(lows, highs), self.aggregate)

    def query_batch(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        guarantee: Guarantee | None = None,
    ) -> BatchQueryResult:
        """Answer N queries with the same guarantee semantics as the base.

        The certified bound is unchanged by the exact delta part, so the
        Lemma 3/5 relative certificate applies to the combined value; failing
        queries take the combined exact fallback.
        """
        lows, highs = validate_bounds_batch(lows, highs)
        approx = self.estimate_batch(lows, highs)
        return resolve_batch_certificates(
            approx,
            error_bound=self.certified_bound,
            guarantee=guarantee,
            exact_for_mask=lambda mask: self.exact_batch(lows[mask], highs[mask]),
            absolute_fallback=False,
        )

    # ------------------------------------------------------------------ #
    # Scalar interface (QueryEngine compatibility)
    # ------------------------------------------------------------------ #

    def _require_aggregate(self, query: RangeQuery) -> None:
        if query.aggregate is not self.aggregate:
            raise NotSupportedError(
                f"overlay answers {self.aggregate.value} queries, "
                f"got {query.aggregate.value}"
            )

    def estimate(self, query: RangeQuery) -> float:
        """Combined approximate answer for one range."""
        self._require_aggregate(query)
        return float(self.estimate_batch([query.low], [query.high])[0])

    def exact(self, query: RangeQuery) -> float:
        """Combined exact answer for one range."""
        self._require_aggregate(query)
        return float(self.exact_batch([query.low], [query.high])[0])

    def query(self, query: RangeQuery, guarantee: Guarantee | None = None) -> QueryResult:
        """Answer one query with guarantee handling (via the batch path)."""
        self._require_aggregate(query)
        return self.query_batch([query.low], [query.high], guarantee).to_results()[0]

    def size_in_bytes(self) -> int:
        """Base payload plus the snapshot arrays."""
        return self._base.size_in_bytes() + self._delta.size_in_bytes()
