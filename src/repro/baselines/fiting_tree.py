"""FITing-tree baseline: error-bounded piecewise-linear segmentation.

Galakatos et al.'s FITing-tree partitions sorted keys into segments, each
represented by a line whose prediction error is bounded by a user-chosen
budget; the segments are indexed by a small tree.  The classic construction
is the *shrinking cone* algorithm: keep a feasible slope cone while appending
points and close the segment when the cone becomes empty.

Following the paper's appendix, we adapt the tree to range aggregates by
fitting the lines to the target function ``CFsum(k)`` (or ``DFmax``), so the
segment error budget plays exactly the role of PolyFit's delta and the
Lemma 2/3 guarantee machinery carries over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Aggregate, GuaranteeKind
from ..errors import DataError, NotSupportedError
from ..functions.cumulative import CumulativeFunction, build_cumulative_function
from ..queries.batch import CertifiedView
from ..queries.types import Guarantee, QueryResult, RangeQuery

__all__ = ["LinearSegment", "FITingTree"]


@dataclass(frozen=True)
class LinearSegment:
    """One linear segment of the FITing-tree.

    The segment predicts ``value = slope * (key - key_low) + intercept`` for
    keys in ``[key_low, key_high]`` with absolute error at most the tree's
    budget.
    """

    key_low: float
    key_high: float
    slope: float
    intercept: float
    max_error: float

    def predict(self, key: float) -> float:
        """Evaluate the segment's line at ``key``."""
        return self.slope * (key - self.key_low) + self.intercept

    @property
    def num_parameters(self) -> int:
        """Stored floats: bounds, slope, intercept."""
        return 4


def shrinking_cone_segmentation(
    keys: np.ndarray, values: np.ndarray, error_budget: float
) -> list[LinearSegment]:
    """Greedy shrinking-cone segmentation with max error ``error_budget``.

    Starting from the segment origin, maintain the interval of slopes that
    keep every seen point within ``error_budget`` of the line through the
    origin; close the segment when that interval becomes empty.  This is the
    standard FITing-tree construction and runs in a single pass.
    """
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if keys.size == 0:
        raise DataError("cannot segment an empty point set")
    if keys.size != values.size:
        raise DataError("keys and values must have equal length")
    if np.any(np.diff(keys) < 0):
        raise DataError("keys must be sorted ascending")
    if error_budget < 0:
        raise DataError("error_budget must be non-negative")

    segments: list[LinearSegment] = []
    start = 0
    n = keys.size
    while start < n:
        origin_key = keys[start]
        origin_value = values[start]
        slope_low = -np.inf
        slope_high = np.inf
        stop = start + 1
        while stop < n:
            dx = keys[stop] - origin_key
            dy = values[stop] - origin_value
            if dx <= 0:
                # Duplicate key: acceptable only if within budget vertically.
                if abs(dy) > error_budget:
                    break
                stop += 1
                continue
            candidate_low = (dy - error_budget) / dx
            candidate_high = (dy + error_budget) / dx
            new_low = max(slope_low, candidate_low)
            new_high = min(slope_high, candidate_high)
            if new_low > new_high:
                break
            slope_low, slope_high = new_low, new_high
            stop += 1
        if stop == start + 1:
            slope = 0.0
        else:
            slope = (
                (slope_low + slope_high) / 2.0
                if np.isfinite(slope_low) and np.isfinite(slope_high)
                else 0.0
            )
        segment_keys = keys[start:stop]
        segment_values = values[start:stop]
        predictions = slope * (segment_keys - origin_key) + origin_value
        achieved = float(np.max(np.abs(predictions - segment_values)))
        segments.append(
            LinearSegment(
                key_low=float(origin_key),
                key_high=float(keys[stop - 1]),
                slope=float(slope),
                intercept=float(origin_value),
                max_error=achieved,
            )
        )
        start = stop
    return segments


class FITingTree(CertifiedView):
    """FITing-tree adapted to approximate range aggregate queries.

    Only COUNT and SUM are supported (Table IV of the paper: FITing-tree has
    no MAX or two-key support).  The batch surface comes from
    :class:`~repro.queries.batch.CertifiedView` with
    ``absolute_fallback = True``: like the scalar :meth:`query`, an
    unmeetable absolute guarantee answers exactly (unlike PolyFit).
    """

    absolute_fallback = True

    def __init__(self, segments: list[LinearSegment], cumulative: CumulativeFunction, error_budget: float) -> None:
        self._segments = segments
        self._cumulative = cumulative
        self._error_budget = float(error_budget)
        self._segment_lows = np.array([s.key_low for s in segments], dtype=np.float64)
        # Flat per-segment parameter arrays for the vectorized batch path.
        self._segment_highs = np.array([s.key_high for s in segments], dtype=np.float64)
        self._slopes = np.array([s.slope for s in segments], dtype=np.float64)
        self._intercepts = np.array([s.intercept for s in segments], dtype=np.float64)

    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        measures: np.ndarray | None = None,
        aggregate: Aggregate = Aggregate.COUNT,
        *,
        error_budget: float = 50.0,
    ) -> "FITingTree":
        """Build the tree over the cumulative function with the given budget."""
        if aggregate not in (Aggregate.COUNT, Aggregate.SUM):
            raise NotSupportedError("FITing-tree supports only COUNT and SUM aggregates")
        cumulative = build_cumulative_function(keys, measures, aggregate)
        segments = shrinking_cone_segmentation(cumulative.keys, cumulative.values, error_budget)
        return cls(segments=segments, cumulative=cumulative, error_budget=error_budget)

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the tree answers (used by the engine's batch checks)."""
        return self._cumulative.aggregate

    @property
    def num_segments(self) -> int:
        """Number of linear segments."""
        return len(self._segments)

    @property
    def error_budget(self) -> float:
        """The per-segment error budget (the delta analogue)."""
        return self._error_budget

    @property
    def segments(self) -> list[LinearSegment]:
        """The linear segments (read-only view)."""
        return list(self._segments)

    def size_in_bytes(self) -> int:
        """Footprint of the stored segments (8 bytes per float)."""
        return 8 * sum(segment.num_parameters for segment in self._segments)

    def _locate(self, key: float) -> LinearSegment:
        position = int(np.searchsorted(self._segment_lows, key, side="right")) - 1
        position = int(np.clip(position, 0, len(self._segments) - 1))
        return self._segments[position]

    def predict_cumulative(self, key: float) -> float:
        """Approximate ``CF(key)`` with the covering segment's line."""
        segment = self._locate(key)
        clamped = float(np.clip(key, segment.key_low, segment.key_high))
        return segment.predict(clamped)

    def estimate(self, query: RangeQuery) -> float:
        """Approximate range aggregate ``CF(high) - CF(low)``."""
        if query.aggregate is not self._cumulative.aggregate:
            raise NotSupportedError("aggregate mismatch")
        lower = 0.0 if query.low < self._segments[0].key_low else self.predict_cumulative(query.low)
        return self.predict_cumulative(query.high) - lower

    def predict_cumulative_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`predict_cumulative`: segments are flat arrays, so
        locating and evaluating N keys is one ``searchsorted`` plus a fused
        multiply-add."""
        keys = np.asarray(keys, dtype=np.float64)
        position = np.clip(
            np.searchsorted(self._segment_lows, keys, side="right") - 1,
            0,
            len(self._segments) - 1,
        )
        clamped = np.clip(keys, self._segment_lows[position], self._segment_highs[position])
        return self._slopes[position] * (clamped - self._segment_lows[position]) + self._intercepts[
            position
        ]

    def _approx(self, lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, float]:
        """Vectorized :meth:`estimate` over N ranges, with bound ``2 * budget``."""
        lower = np.where(
            lows < self._segments[0].key_low, 0.0, self.predict_cumulative_batch(lows)
        )
        return self.predict_cumulative_batch(highs) - lower, 2.0 * self._error_budget

    def _exact(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Exact answers from the underlying cumulative function."""
        return self._cumulative.range_sum_batch(lows, highs)

    def query(self, query: RangeQuery, guarantee: Guarantee | None = None) -> QueryResult:
        """Answer with PolyFit-style guarantee semantics (Lemmas 2-3)."""
        approx = self.estimate(query)
        delta = self._error_budget
        bound = 2.0 * delta
        if guarantee is None:
            return QueryResult(value=approx, guaranteed=True, error_bound=bound)
        if guarantee.kind is GuaranteeKind.ABSOLUTE:
            if bound <= guarantee.epsilon + 1e-12:
                return QueryResult(value=approx, guaranteed=True, error_bound=bound)
            exact = self.exact(query)
            return QueryResult(value=exact, guaranteed=True, exact_fallback=True, error_bound=0.0)
        threshold = 2.0 * delta * (1.0 + 1.0 / guarantee.epsilon)
        if approx >= threshold:
            return QueryResult(value=approx, guaranteed=True, error_bound=bound)
        exact = self.exact(query)
        return QueryResult(value=exact, guaranteed=True, exact_fallback=True, error_bound=0.0)

    def exact(self, query: RangeQuery) -> float:
        """Exact answer from the underlying cumulative function."""
        return self._cumulative.range_sum(query.low, query.high)
