"""Shared vectorized guarantee resolution for the batch query APIs.

PolyFit (1D/2D), the RMI and the FITing-tree all answer batches with the
same shape of logic: an absolute guarantee is a construction-time constant
check, the relative-error certificate (Lemmas 3/5/7) is one array comparison
``approx >= bound * (1 + 1/eps)``, and only the failing subset takes the
masked exact pass.  Centralizing it here keeps the four implementations in
lock-step with their scalar oracles — a certificate fix lands everywhere at
once.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..config import GuaranteeKind
from ..errors import QueryError
from .types import BatchQueryResult, Guarantee

__all__ = [
    "DEFAULT_TILE_SIZE",
    "iter_tiles",
    "validate_bounds_batch",
    "resolve_batch_certificates",
]

#: Default number of queries per tile for batch paths that materialize
#: per-query transient arrays (e.g. the 2-D 4-corner gather).  131072 queries
#: keep every transient under a few tens of MiB while leaving the workload
#: large enough that the per-call NumPy dispatch overhead stays amortized.
DEFAULT_TILE_SIZE = 131_072


def iter_tiles(total: int, tile_size: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` pairs covering ``range(total)`` in bounded tiles.

    The batch engines use this to bound peak transient memory on very large
    workloads: the tile loop runs ``ceil(total / tile_size)`` times, never
    once per query.  Yields nothing for an empty workload.  A bad
    ``tile_size`` is rejected eagerly at call time, not at first iteration.
    """
    if tile_size < 1:
        raise QueryError(f"tile_size must be >= 1, got {tile_size}")

    def tiles() -> Iterator[tuple[int, int]]:
        for start in range(0, total, tile_size):
            yield start, min(start + tile_size, total)

    return tiles()


def validate_bounds_batch(
    lows: np.ndarray, highs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coerce and validate batch range bounds (same checks as the scalar path)."""
    lows = np.atleast_1d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_1d(np.asarray(highs, dtype=np.float64))
    if lows.ndim != 1 or lows.shape != highs.shape:
        raise QueryError("lows and highs must be equal-length 1-D arrays")
    if np.any(highs < lows):
        raise QueryError("invalid range: high < low")
    return lows, highs


def resolve_batch_certificates(
    approx: np.ndarray,
    *,
    error_bound: float | np.ndarray,
    guarantee: Guarantee | None,
    exact_for_mask: Callable[[np.ndarray], np.ndarray],
    absolute_fallback: bool,
) -> BatchQueryResult:
    """Apply guarantee semantics to a batch of approximate answers.

    Parameters
    ----------
    approx:
        The ``(N,)`` approximate answers.
    error_bound:
        The certified absolute bound ``c * delta`` of the answering
        structure: a scalar when the bound is a construction-time constant
        (one index), or an ``(N,)`` array when it varies per query (e.g. a
        partitioned fleet, where a query's bound is the sum of the certified
        bounds of the partitions it straddles).
    guarantee:
        The requested guarantee, or ``None`` for best-effort answers.
    exact_for_mask:
        Callable mapping a boolean mask to the exact answers of the selected
        queries; invoked only for queries that need the exact fallback.
    absolute_fallback:
        What to do when an absolute guarantee cannot be met from the built
        structure: ``True`` answers exactly (RMI/FITing-tree semantics),
        ``False`` returns the approximation flagged un-guaranteed (PolyFit
        semantics — the index was built with a looser budget than requested).
        With per-query bounds the decision is per query: only the queries
        whose own bound exceeds the budget fall back / lose the flag.

    NaN approximations (empty MAX/MIN ranges) fail the relative certificate
    comparison and take the exact path, matching the scalar implementations.
    """
    approx = np.asarray(approx, dtype=np.float64)
    n = approx.size
    bounds = np.empty(n, dtype=np.float64)
    bounds[:] = error_bound  # broadcasts a scalar, copies an (N,) array
    no_fallback = np.zeros(n, dtype=bool)

    if guarantee is None:
        return BatchQueryResult(approx, np.ones(n, dtype=bool), no_fallback, bounds)

    if guarantee.kind is GuaranteeKind.ABSOLUTE:
        met = bounds <= guarantee.epsilon + 1e-12
        if met.all():
            return BatchQueryResult(approx, np.ones(n, dtype=bool), no_fallback, bounds)
        if not absolute_fallback:
            return BatchQueryResult(approx, met, no_fallback, bounds)
        fallback = ~met
        values = approx.copy()
        values[fallback] = exact_for_mask(fallback)
        bounds[fallback] = 0.0
        return BatchQueryResult(values, np.ones(n, dtype=bool), fallback, bounds)

    threshold = bounds * (1.0 + 1.0 / guarantee.epsilon)
    with np.errstate(invalid="ignore"):
        certified = approx >= threshold
    fallback = ~certified
    values = approx.copy()
    if np.any(fallback):
        values[fallback] = exact_for_mask(fallback)
        bounds[fallback] = 0.0
    return BatchQueryResult(values, np.ones(n, dtype=bool), fallback, bounds)
