"""The one overlay: a base index plus a frozen, exactly answered delta buffer.

The streaming write path (:mod:`repro.stream`) buffers inserted records in
memory between compactions.  Queries must keep their certified error bounds
while the buffer is non-empty, which works because the buffer's contribution
is *exact*:

* :class:`DeltaSnapshot` — an immutable, key-sorted view of buffered 1-D
  (key, measure) records for one flush epoch.  SUM/COUNT contributions are
  a prefix-sum array probed with one ``searchsorted`` per query side;
  MAX/MIN contributions go through a
  :class:`~repro.index.directory.RangeExtremeTable` over the sorted
  measures.  Both are O(1) NumPy calls for N queries.
* :class:`DeltaSnapshot2D` — the same for buffered 2-D points: an exact
  :class:`~repro.functions.cumulative2d.Cumulative2D` over them answers the
  rectangle contributions.
* :class:`DirectoryOverlay` — the combined read view for either dimension:
  the base index's certified estimate plus the snapshot's exact
  contribution, behind the one ``contribution_batch(*bounds)`` call.  The
  overlay is immutable, so shard threads handed an overlay all serve the
  *same* epoch even while the owning updatable index keeps absorbing
  writes.

Because the delta part is exact, the overlay's absolute error equals the
base index's (``|combined - truth| = |base_est - base_truth| <= bound`` for
cumulative aggregates, and the extreme merge is 1-Lipschitz per operand), so
the Lemma 2-7 guarantee machinery applies to the combined answer unchanged.
"""

from __future__ import annotations

import numpy as np

from ..config import Aggregate
from ..errors import DataError, NotSupportedError
from ..functions.cumulative2d import build_cumulative_2d
from ..queries.batch import CertifiedView
from .directory import RangeExtremeTable
from .polyfit1d import PolyFitIndex
from .polyfit2d import PolyFit2DIndex

__all__ = ["DeltaSnapshot", "DeltaSnapshot2D", "DirectoryOverlay"]


class DeltaSnapshot:
    """Immutable key-sorted view of buffered records for one flush epoch.

    Construction sorts once; every query after that is O(log m) per bound
    via ``searchsorted`` against the sorted keys plus an O(1) gather from
    the per-epoch payload (prefix sums for SUM/COUNT, a range-extreme table
    for MAX/MIN).  Duplicate keys are kept — the contribution semantics are
    per *record*, matching how the cumulative function would absorb them at
    compaction.
    """

    dims = 1

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


class DeltaSnapshot2D:
    """Immutable view of buffered 2-D points for one flush epoch.

    The contribution of the buffered points to a rectangle COUNT/SUM is
    answered exactly by a :class:`~repro.functions.cumulative2d.Cumulative2D`
    built once over them (``weights`` are the SUM measures, ``None`` for
    COUNT).
    """

    dims = 2

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        weights: np.ndarray | None,
        aggregate: Aggregate,
    ) -> None:
        self.aggregate = aggregate
        self._points = (
            build_cumulative_2d(xs, ys, weights=weights) if np.size(xs) else None
        )

    @property
    def is_empty(self) -> bool:
        """Whether the snapshot holds no buffered points."""
        return self._points is None

    def contribution_batch(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> np.ndarray:
        """Exact per-rectangle count (or measure sum) of the buffered points."""
        if self._points is None:
            return np.zeros(np.shape(x_lows), dtype=np.float64)
        return self._points.range_count_batch(x_lows, x_highs, y_lows, y_highs)

    def size_in_bytes(self) -> int:
        """Footprint of the buffered coordinates and measures."""
        return 0 if self._points is None else 24 * int(self._points.size)


def _combine(base: np.ndarray, delta: np.ndarray, aggregate: Aggregate) -> np.ndarray:
    """Merge the base estimate with the exact delta contribution."""
    if aggregate.is_cumulative:
        return base + delta
    # fmax/fmin ignore a NaN in one operand (empty base range or empty
    # buffered window) and propagate NaN only when both sides are empty,
    # matching the scalar empty-range convention.
    merge = np.fmax if aggregate is Aggregate.MAX else np.fmin
    return merge(base, delta)


class DirectoryOverlay(CertifiedView):
    """Frozen combined read view: base index estimate + exact delta part.

    Serves a 1-D :class:`~repro.index.polyfit1d.PolyFitIndex` with a
    :class:`DeltaSnapshot`, or a 2-D
    :class:`~repro.index.polyfit2d.PolyFit2DIndex` with a
    :class:`DeltaSnapshot2D`, through the shared
    :class:`~repro.queries.batch.CertifiedView` surface, so
    :class:`~repro.queries.engine.QueryEngine` and
    :class:`~repro.queries.sharding.ShardedQueryEngine` consume it like the
    base.  Instances are snapshots: inserts or compactions on the owning
    updatable index never mutate an existing overlay.
    """

    def __init__(
        self,
        base: PolyFitIndex | PolyFit2DIndex,
        delta: DeltaSnapshot | DeltaSnapshot2D,
        epoch: int = 0,
    ) -> None:
        if delta.aggregate is not base.aggregate:
            raise NotSupportedError(
                f"delta snapshot aggregates {delta.aggregate.value}, "
                f"base index {base.aggregate.value}"
            )
        if delta.dims != base.dims:
            raise NotSupportedError(
                f"{delta.dims}-D delta snapshot over a {base.dims}-D base index"
            )
        self._base = base
        self._delta = delta
        self._epoch = int(epoch)

    @property
    def base(self) -> PolyFitIndex | PolyFit2DIndex:
        """The wrapped immutable base index."""
        return self._base

    @property
    def delta(self) -> DeltaSnapshot | DeltaSnapshot2D:
        """The frozen delta snapshot this overlay serves."""
        return self._delta

    @property
    def dims(self) -> int:
        """Key dimensions of the base index (1 or 2)."""
        return self._base.dims

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

    def _approx(self, *bounds: np.ndarray) -> tuple[np.ndarray, float]:
        """Base estimate combined with the exact delta contribution.

        The certified bound is the base's: the exact delta part adds no
        error, so the Lemma 3/5/7 certificate applies to the combined value.
        """
        values, bound = self._base._approx(*bounds)  # noqa: SLF001 - validated once here
        if self._delta.is_empty:
            return values, bound
        return _combine(values, self._delta.contribution_batch(*bounds), self.aggregate), bound

    def _exact(self, *bounds: np.ndarray) -> np.ndarray:
        """Base exact answers combined with the exact delta contribution."""
        values = self._base._exact(*bounds)  # noqa: SLF001 - validated once here
        if self._delta.is_empty:
            return values
        return _combine(values, self._delta.contribution_batch(*bounds), self.aggregate)

    def size_in_bytes(self) -> int:
        """Base payload plus the snapshot arrays."""
        return self._base.size_in_bytes() + self._delta.size_in_bytes()
