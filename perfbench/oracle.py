"""Independent NumPy oracles and the correctness gate.

The oracles share no code with the library: COUNT and SUM come from
``searchsorted`` plus prefix sums, MAX from a sparse table, and 2-D COUNT
from brute force over the points.  :func:`check_answers` holds served
answers to the promises the server made about them.
"""

from __future__ import annotations

import numpy as np


class PrefixOracle:
    """Exact range COUNT and SUM over sorted keys (inclusive ranges)."""

    def __init__(self, keys: np.ndarray, measures: np.ndarray | None = None) -> None:
        order = np.argsort(keys, kind="stable")
        self.keys = np.asarray(keys, dtype=np.float64)[order]
        weights = np.ones(self.keys.size) if measures is None else np.asarray(measures)[order]
        self.prefix = np.concatenate([[0.0], np.cumsum(weights, dtype=np.float64)])

    def __call__(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        start = np.searchsorted(self.keys, lows, side="left")
        stop = np.searchsorted(self.keys, highs, side="right")
        return self.prefix[stop] - self.prefix[start]


class SparseMaxOracle:
    """Exact range MAX over strictly increasing keys via a sparse table."""

    def __init__(self, keys: np.ndarray, measures: np.ndarray) -> None:
        self.keys = np.asarray(keys, dtype=np.float64)
        table = [np.asarray(measures, dtype=np.float64)]
        width = 1
        while 2 * width <= self.keys.size:
            previous = table[-1]
            table.append(np.maximum(previous[:-width], previous[width:]))
            width *= 2
        self.table = table

    def __call__(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        start = np.searchsorted(self.keys, lows, side="left")
        stop = np.searchsorted(self.keys, highs, side="right")  # exclusive
        out = np.full(start.size, np.nan)
        length = stop - start
        nonempty = length > 0
        level = np.zeros(start.size, dtype=np.intp)
        level[nonempty] = np.floor(np.log2(length[nonempty])).astype(np.intp)
        for k in np.unique(level[nonempty]):
            rows = nonempty & (level == k)
            row = self.table[k]
            out[rows] = np.maximum(row[start[rows]], row[stop[rows] - (1 << k)])
        return out


def brute_force_count_2d(xs: np.ndarray, ys: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """Exact rectangle COUNT by scanning every point, for ``(q, 4)`` rects."""
    out = np.empty(len(rects))
    for i, (x_low, x_high, y_low, y_high) in enumerate(rects):
        out[i] = np.count_nonzero(
            (xs >= x_low) & (xs <= x_high) & (ys >= y_low) & (ys <= y_high)
        )
    return out


def check_answers(
    values: np.ndarray,
    bounds: np.ndarray,
    fallback: np.ndarray,
    exact: np.ndarray,
    relative_eps: np.ndarray,
    *,
    tolerance: float = 0.0,
) -> tuple[int, np.ndarray]:
    """Failures and per-query relative errors of served answers.

    Every answer must lie within the certified bound it was served with;
    an exact-fallback answer must equal the oracle; an answer certified
    under a relative guarantee (``relative_eps > 0``) must be within that
    share of the exact value.  ``tolerance`` is a relative slack for
    aggregates whose exact value is a float sum (summation order differs
    between a partitioned index and a global prefix sum).
    """
    values = np.asarray(values, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    error = np.abs(values - exact)
    slack = tolerance * np.maximum(np.abs(exact), 1.0)
    bounds = np.where(np.isnan(bounds), 0.0, bounds)
    bad = ~(error <= bounds + slack)
    bad |= fallback & ~(error <= slack)
    relative = relative_eps > 0
    bad |= relative & ~(error <= relative_eps * np.abs(exact) + slack)
    return int(bad.sum()), error / np.maximum(np.abs(exact), 1.0)
