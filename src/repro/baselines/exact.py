"""Exact baselines (Section III-B of the paper).

* :class:`KeyCumulativeArray` — the key-cumulative array (KCA, Figure 3):
  prefix sums over sorted keys, evaluated by binary search, answering SUM and
  COUNT exactly in ``O(log n)``.
* :class:`BruteForceAggregator` — linear scans; the ground truth oracle used
  in tests and accuracy measurements for every aggregate.
* :class:`PrefixSumGrid2D` — the classic 2-D prefix-sum array over a fixed
  grid; exact for queries aligned to the grid and a useful comparison point
  for the two-key experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Aggregate
from ..errors import DataError, QueryError
from ..functions.cumulative import prefix_at

__all__ = ["KeyCumulativeArray", "BruteForceAggregator", "PrefixSumGrid2D"]


@dataclass
class KeyCumulativeArray:
    """Prefix-sum array over sorted keys with binary-search evaluation.

    Unlike the classic prefix-sum array the search key may be any float, not
    just a stored key (the paper's remark in Section III-B1).
    """

    keys: np.ndarray
    cumulative: np.ndarray
    aggregate: Aggregate = Aggregate.SUM

    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        measures: np.ndarray | None = None,
        aggregate: Aggregate = Aggregate.SUM,
    ) -> "KeyCumulativeArray":
        """Build from raw records (sorting and accumulating)."""
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size == 0:
            raise DataError("dataset is empty")
        if measures is None or aggregate is Aggregate.COUNT:
            measures = np.ones_like(keys)
        measures = np.asarray(measures, dtype=np.float64)
        if keys.size != measures.size:
            raise DataError("keys and measures must have equal length")
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        measures = measures[order]
        return cls(keys=keys, cumulative=np.cumsum(measures), aggregate=aggregate)

    @classmethod
    def from_cumulative(cls, cumulative_function) -> "KeyCumulativeArray":
        """Wrap an existing :class:`repro.functions.CumulativeFunction`."""
        return cls(
            keys=cumulative_function.keys,
            cumulative=cumulative_function.values,
            aggregate=cumulative_function.aggregate,
        )

    @property
    def size(self) -> int:
        """Number of stored keys."""
        return int(self.keys.size)

    def evaluate(self, key: float) -> float:
        """``CFsum(key)`` by binary search (O(log n))."""
        idx = int(np.searchsorted(self.keys, key, side="right"))
        if idx == 0:
            return 0.0
        return float(self.cumulative[idx - 1])

    def range_aggregate(self, low: float, high: float) -> float:
        """Exact SUM/COUNT over keys in the closed range ``[low, high]``."""
        if high < low:
            raise QueryError(f"invalid range [{low}, {high}]")
        hi = int(np.searchsorted(self.keys, high, side="right"))
        lo = int(np.searchsorted(self.keys, low, side="left"))
        if hi <= lo:
            return 0.0
        upper = float(self.cumulative[hi - 1])
        lower = float(self.cumulative[lo - 1]) if lo > 0 else 0.0
        return upper - lower

    def evaluate_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`evaluate` (one ``searchsorted`` for all keys)."""
        idx = np.searchsorted(self.keys, np.asarray(keys, dtype=np.float64), side="right")
        return prefix_at(self.cumulative, idx)

    def range_aggregate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`range_aggregate` over N ranges in O(1) NumPy calls."""
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.shape != highs.shape:
            raise QueryError("lows and highs must have matching shapes")
        if np.any(highs < lows):
            raise QueryError("invalid range: high < low")
        # Empty ranges have identical insertion points on both sides, so the
        # difference is exactly 0 — no special-casing needed.
        upper = prefix_at(self.cumulative, np.searchsorted(self.keys, highs, side="right"))
        lower = prefix_at(self.cumulative, np.searchsorted(self.keys, lows, side="left"))
        return upper - lower

    def size_in_bytes(self) -> int:
        """Footprint of the stored arrays (8 bytes per float)."""
        return 8 * (self.keys.size + self.cumulative.size)


class BruteForceAggregator:
    """Linear-scan ground truth for every aggregate (1 and 2 keys)."""

    def __init__(
        self,
        keys: np.ndarray,
        measures: np.ndarray | None = None,
        second_keys: np.ndarray | None = None,
    ) -> None:
        self._keys = np.asarray(keys, dtype=np.float64)
        if self._keys.size == 0:
            raise DataError("dataset is empty")
        if measures is None:
            measures = np.ones_like(self._keys)
        self._measures = np.asarray(measures, dtype=np.float64)
        if self._keys.size != self._measures.size:
            raise DataError("keys and measures must have equal length")
        self._second_keys = (
            np.asarray(second_keys, dtype=np.float64) if second_keys is not None else None
        )
        if self._second_keys is not None and self._second_keys.size != self._keys.size:
            raise DataError("second_keys must have the same length as keys")

    def range_aggregate(self, low: float, high: float, aggregate: Aggregate) -> float:
        """Exact one-key range aggregate by scanning every record."""
        if high < low:
            raise QueryError(f"invalid range [{low}, {high}]")
        mask = (self._keys >= low) & (self._keys <= high)
        selected = self._measures[mask]
        if aggregate is Aggregate.COUNT:
            return float(np.count_nonzero(mask))
        if selected.size == 0:
            return 0.0 if aggregate is Aggregate.SUM else float("nan")
        if aggregate is Aggregate.SUM:
            return float(selected.sum())
        if aggregate is Aggregate.MAX:
            return float(selected.max())
        if aggregate is Aggregate.MIN:
            return float(selected.min())
        raise QueryError(f"unsupported aggregate {aggregate}")

    def range_aggregate_batch(
        self, lows: np.ndarray, highs: np.ndarray, aggregate: Aggregate
    ) -> np.ndarray:
        """Batch of exact one-key aggregates.

        A brute-force scan has no sublinear batch form; each query scans the
        records, so this exists for API parity (and as the batch oracle in
        tests), not for speed.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.shape != highs.shape:
            raise QueryError("lows and highs must have matching shapes")
        return np.array(
            [self.range_aggregate(lows[i], highs[i], aggregate) for i in range(lows.size)],
            dtype=np.float64,
        )

    def rectangle_aggregate(
        self,
        x_low: float,
        x_high: float,
        y_low: float,
        y_high: float,
        aggregate: Aggregate = Aggregate.COUNT,
    ) -> float:
        """Exact two-key rectangle aggregate by scanning every record."""
        if self._second_keys is None:
            raise QueryError("two-key query on a one-key aggregator")
        if x_high < x_low or y_high < y_low:
            raise QueryError("invalid rectangle bounds")
        mask = (
            (self._keys >= x_low)
            & (self._keys <= x_high)
            & (self._second_keys >= y_low)
            & (self._second_keys <= y_high)
        )
        selected = self._measures[mask]
        if aggregate is Aggregate.COUNT:
            return float(np.count_nonzero(mask))
        if selected.size == 0:
            return 0.0 if aggregate is Aggregate.SUM else float("nan")
        if aggregate is Aggregate.SUM:
            return float(selected.sum())
        if aggregate is Aggregate.MAX:
            return float(selected.max())
        return float(selected.min())


class PrefixSumGrid2D:
    """Dense 2-D prefix-sum grid for rectangle COUNT/SUM estimation.

    Counts are exact when query edges align with grid lines; otherwise the
    grid answers with the cells fully covered plus a fractional estimate of
    boundary cells, so the error is bounded by the mass of the boundary
    cells.  This is the classic data-cube prefix-sum structure [Ho et al.].
    """

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        measures: np.ndarray | None = None,
        resolution: int = 128,
    ) -> None:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.size == 0 or xs.size != ys.size:
            raise DataError("xs and ys must be equal-length non-empty arrays")
        if resolution < 2:
            raise DataError("resolution must be >= 2")
        if measures is None:
            measures = np.ones_like(xs)
        measures = np.asarray(measures, dtype=np.float64)
        self._x_edges = np.linspace(xs.min(), xs.max(), resolution + 1)
        self._y_edges = np.linspace(ys.min(), ys.max(), resolution + 1)
        histogram, _, _ = np.histogram2d(
            xs, ys, bins=[self._x_edges, self._y_edges], weights=measures
        )
        # prefix[i, j] = total mass of cells with index < i and < j
        self._prefix = np.zeros((resolution + 1, resolution + 1))
        self._prefix[1:, 1:] = np.cumsum(np.cumsum(histogram, axis=0), axis=1)
        self._resolution = resolution

    @property
    def resolution(self) -> int:
        """Number of grid cells along each axis."""
        return self._resolution

    def _cell_fraction(self, value: float, edges: np.ndarray) -> float:
        """Continuous cell coordinate of ``value`` within the grid."""
        clipped = float(np.clip(value, edges[0], edges[-1]))
        idx = int(np.searchsorted(edges, clipped, side="right")) - 1
        idx = min(max(idx, 0), edges.size - 2)
        width = edges[idx + 1] - edges[idx]
        frac = 0.0 if width == 0 else (clipped - edges[idx]) / width
        return idx + frac

    def _prefix_at(self, x: float, y: float) -> float:
        """Bilinear interpolation of the prefix-sum at an arbitrary point."""
        cx = self._cell_fraction(x, self._x_edges)
        cy = self._cell_fraction(y, self._y_edges)
        ix, iy = int(np.floor(cx)), int(np.floor(cy))
        fx, fy = cx - ix, cy - iy
        p = self._prefix
        v00 = p[ix, iy]
        v10 = p[min(ix + 1, self._resolution), iy]
        v01 = p[ix, min(iy + 1, self._resolution)]
        v11 = p[min(ix + 1, self._resolution), min(iy + 1, self._resolution)]
        return float(
            v00 * (1 - fx) * (1 - fy)
            + v10 * fx * (1 - fy)
            + v01 * (1 - fx) * fy
            + v11 * fx * fy
        )

    def rectangle_estimate(self, x_low: float, x_high: float, y_low: float, y_high: float) -> float:
        """Estimate the rectangle aggregate by 4-corner inclusion-exclusion."""
        if x_high < x_low or y_high < y_low:
            raise QueryError("invalid rectangle bounds")
        return (
            self._prefix_at(x_high, y_high)
            - self._prefix_at(x_low, y_high)
            - self._prefix_at(x_high, y_low)
            + self._prefix_at(x_low, y_low)
        )

    def size_in_bytes(self) -> int:
        """Footprint of the prefix matrix."""
        return int(self._prefix.nbytes)
