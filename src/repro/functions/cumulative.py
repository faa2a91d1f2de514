"""Key-cumulative function ``CFsum`` (Equation 4 of the paper).

``CFsum(k) = Rsum(D, [-inf, k])`` — the running sum of measures over all
records with key at most ``k``.  With unit measures it becomes the cumulative
count function used for COUNT queries.  The paper represents it discretely as
the key-cumulative array (KCA, Figure 3) and evaluates it by binary search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Aggregate
from ..errors import DataError, QueryError

__all__ = ["CumulativeFunction", "build_cumulative_function", "prefix_at"]


def prefix_at(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``values[idx - 1]``, or 0.0 where ``idx == 0`` (the empty prefix).

    Reads a prefix-sum array at ``searchsorted`` insertion points without
    materializing a zero-padded copy of it on every call.
    """
    return np.where(idx > 0, values[idx - 1], 0.0)


def _validate_key_measure(keys: np.ndarray, measures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys = np.asarray(keys, dtype=np.float64)
    measures = np.asarray(measures, dtype=np.float64)
    if keys.ndim != 1 or measures.ndim != 1:
        raise DataError("keys and measures must be 1-D arrays")
    if keys.size == 0:
        raise DataError("dataset is empty")
    if keys.size != measures.size:
        raise DataError(
            f"keys and measures must have equal length, got {keys.size} and {measures.size}"
        )
    if not np.all(np.isfinite(keys)):
        raise DataError("keys contain NaN or infinite values")
    if not np.all(np.isfinite(measures)):
        raise DataError("measures contain NaN or infinite values")
    return keys, measures


@dataclass(frozen=True)
class CumulativeFunction:
    """A sampled key-cumulative function (the paper's KCA).

    Attributes
    ----------
    keys:
        Sorted, strictly increasing keys of the dataset.
    values:
        ``values[i] = sum of measures of records with key <= keys[i]``.
    aggregate:
        Either :attr:`Aggregate.SUM` or :attr:`Aggregate.COUNT` depending on
        whether the original measures or unit measures were accumulated.
    """

    keys: np.ndarray
    values: np.ndarray
    aggregate: Aggregate

    def __post_init__(self) -> None:
        if self.keys.shape != self.values.shape:
            raise DataError("keys and values must have identical shapes")

    @property
    def size(self) -> int:
        """Number of sampled points."""
        return int(self.keys.size)

    @property
    def total(self) -> float:
        """Total aggregate over the entire dataset."""
        return float(self.values[-1])

    def evaluate(self, k: float | np.ndarray) -> np.ndarray | float:
        """Exact evaluation ``CFsum(k)`` by binary search.

        Keys strictly below the smallest data key map to 0; keys at or above
        the largest data key map to the total.  Works on scalars and arrays.
        """
        k_arr = np.asarray(k, dtype=np.float64)
        idx = np.searchsorted(self.keys, k_arr, side="right")
        result = prefix_at(self.values, idx)
        if np.isscalar(k) or k_arr.ndim == 0:
            return float(result)
        return result

    def range_sum(self, low: float, high: float) -> float:
        """Exact range aggregate over ``[low, high]`` (Equation 5).

        The range is closed on both ends; following the paper we compute
        ``CFsum(high) - CFsum(low)`` where the lower term excludes the record
        at ``low`` itself only if ``low`` is strictly between keys.  To match
        the relational-algebra semantics (``k in [lq, uq]`` inclusive) we
        subtract the cumulative value just *below* ``low``.
        """
        if high < low:
            raise QueryError(f"invalid range [{low}, {high}]")
        upper = self.evaluate(high)
        lower_idx = int(np.searchsorted(self.keys, low, side="left"))
        lower = 0.0 if lower_idx == 0 else float(self.values[lower_idx - 1])
        return float(upper) - lower

    def range_sum_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`range_sum` over N ranges in O(1) NumPy calls."""
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.shape != highs.shape:
            raise QueryError("lows and highs must have matching shapes")
        if np.any(highs < lows):
            raise QueryError("invalid range: high < low")
        upper = prefix_at(self.values, np.searchsorted(self.keys, highs, side="right"))
        lower = prefix_at(self.values, np.searchsorted(self.keys, lows, side="left"))
        return upper - lower

    def slice_points(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the (keys, values) points with indices in ``[start, stop)``."""
        if not 0 <= start <= stop <= self.size:
            raise QueryError(f"bad slice [{start}, {stop}) for size {self.size}")
        return self.keys[start:stop], self.values[start:stop]


def build_cumulative_function(
    keys: np.ndarray,
    measures: np.ndarray | None = None,
    aggregate: Aggregate = Aggregate.SUM,
    *,
    presorted: bool = False,
) -> CumulativeFunction:
    """Build the key-cumulative function from a (key, measure) dataset.

    Parameters
    ----------
    keys:
        Record keys (any order unless ``presorted``).
    measures:
        Record measures.  Ignored for COUNT (unit measures are used); required
        for SUM.
    aggregate:
        :attr:`Aggregate.SUM` or :attr:`Aggregate.COUNT`.
    presorted:
        Set when ``keys`` are already sorted ascending to skip the sort.

    Returns
    -------
    CumulativeFunction
        The sampled cumulative function.

    Raises
    ------
    DataError
        If the input arrays are malformed, contain non-finite values, or SUM
        is requested with negative measures (the paper assumes non-negative
        measures so that CFsum is monotone).
    """
    if aggregate not in (Aggregate.SUM, Aggregate.COUNT):
        raise DataError(f"cumulative function only supports SUM/COUNT, got {aggregate}")
    keys = np.asarray(keys, dtype=np.float64)
    if measures is None:
        measures = np.ones_like(keys)
    keys, measures = _validate_key_measure(keys, measures)

    if aggregate is Aggregate.COUNT:
        measures = np.ones_like(keys)
    elif np.any(measures < 0):
        raise DataError("SUM cumulative function requires non-negative measures")

    if not presorted:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        measures = measures[order]
    elif np.any(np.diff(keys) < 0):
        raise DataError("presorted=True but keys are not sorted ascending")

    # Collapse duplicate keys: their measures accumulate onto a single sample,
    # which keeps the cumulative array a function of the key.
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    if unique_keys.size != keys.size:
        summed = np.zeros(unique_keys.size, dtype=np.float64)
        np.add.at(summed, inverse, measures)
        keys, measures = unique_keys, summed

    values = np.cumsum(measures)
    return CumulativeFunction(keys=keys, values=values, aggregate=aggregate)
