"""The certified read surface every PolyFit view shares.

The paper certifies every answer with one rule, whatever structure produced
the approximation: an absolute guarantee compares the certified bound
``c * delta`` with the budget, and the relative-error certificate
(Lemmas 3/5/7) is one array comparison ``approx >= bound * (1 + 1/eps)``
with the exact method answering the failing subset.  This module holds that
rule once:

* :func:`validate_bounds_batch` — the one validation point of every batch
  read path (shape, ``low <= high``, no NaN).
* :func:`resolve_batch_certificates` — the vectorized certificate.
* :class:`CertifiedView` — the protocol: a view declares ``dims`` and
  ``absolute_fallback`` and implements ``_approx`` / ``_exact`` over
  validated arrays; ``estimate_batch`` / ``exact_batch`` / ``query_batch``
  and the batch-of-one scalar helpers come from here.
* :class:`SnapshotReads` — the read surface of a mutable index, forwarded
  to one frozen ``snapshot()`` per call.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..config import GuaranteeKind
from ..errors import NotSupportedError, QueryError
from .types import BatchQueryResult, Guarantee, QueryResult

__all__ = [
    "DEFAULT_TILE_SIZE",
    "CertifiedView",
    "SnapshotReads",
    "iter_tiles",
    "split_guarantee",
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


def validate_bounds_batch(*bounds, dims: int | None = None) -> list[np.ndarray]:
    """Coerce and validate batch range bounds (same checks as the scalar path).

    ``bounds`` are ``(low, high)`` pairs of equal-length 1-D arrays:
    ``(lows, highs)`` for one key, ``(x_lows, x_highs, y_lows, y_highs)``
    for two.  ``dims``, when given, fixes the expected number of pairs.
    Every pair must satisfy ``low <= high``; a NaN bound fails that
    comparison and is rejected with its own :class:`QueryError` rather than
    answered.  ``-inf`` / ``+inf`` are accepted and mean "unbounded on that
    side": every view snaps them to its first / last key (or its bounding
    box in 2-D), so they answer exactly like the outermost finite bound.
    """
    count = len(bounds)
    if dims is not None and count != 2 * dims:
        raise QueryError(f"expected {2 * dims} bound arrays, got {count}")
    if count == 0 or count % 2:
        raise QueryError("bounds must be (low, high) array pairs")
    # A plain loop, not np.atleast_1d or generator expressions: this runs
    # once per request on the batch-of-one serving path.
    arrays = []
    for bound in bounds:
        array = np.asarray(bound, dtype=np.float64)
        arrays.append(array.reshape(1) if array.ndim == 0 else array)
    shape = arrays[0].shape
    for array in arrays:
        if array.ndim != 1 or array.shape != shape:
            raise QueryError("bound arrays must be equal-length 1-D arrays")
    for pair in range(0, count, 2):
        lows, highs = arrays[pair], arrays[pair + 1]
        if not (lows <= highs).all():
            if np.isnan(lows).any() or np.isnan(highs).any():
                raise QueryError("query bounds must not be NaN (use +/-inf for an open side)")
            raise QueryError("invalid range: high < low")
    return arrays


def split_guarantee(
    args: tuple, guarantee: Guarantee | None
) -> tuple[tuple, Guarantee | None]:
    """Separate a trailing positional guarantee from the bound arrays.

    Bounds come in ``(low, high)`` pairs, so an odd argument count means
    the last argument is the guarantee (``None`` included).
    """
    if len(args) % 2 == 0:
        return args, guarantee
    if guarantee is not None:
        raise QueryError("guarantee passed both positionally and by keyword")
    if args[-1] is not None and not isinstance(args[-1], Guarantee):
        raise QueryError("bounds must be (low, high) array pairs")
    return args[:-1], args[-1]


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


class CertifiedView:
    """The certified read surface of one PolyFit-family view.

    A view declares ``dims`` (1 or 2 keys) and ``absolute_fallback`` (see
    :func:`resolve_batch_certificates`) and implements two methods over
    already-validated float64 arrays:

    * ``_approx(*bounds)`` returns ``(values, error_bound)``, the bound a
      scalar or one value per query;
    * ``_exact(*bounds)`` returns the exact answers.

    Everything callers use is built on those two here: ``estimate_batch``,
    ``exact_batch``, ``query_batch`` (the guarantee positional or by
    keyword) and the batch-of-one scalar ``estimate`` / ``exact`` /
    ``query``.  The uncertified subset of a relative guarantee takes the
    view's public ``exact_batch``.
    """

    dims = 1
    absolute_fallback = False

    def _approx(self, *bounds: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
        raise NotImplementedError

    def _exact(self, *bounds: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def estimate_batch(self, *bounds) -> np.ndarray:
        """Approximate answers for N queries, without certification."""
        return self._approx(*validate_bounds_batch(*bounds, dims=self.dims))[0]

    def exact_batch(self, *bounds) -> np.ndarray:
        """Exact answers for N queries."""
        return self._exact(*validate_bounds_batch(*bounds, dims=self.dims))

    def query_batch(self, *bounds, guarantee: Guarantee | None = None) -> BatchQueryResult:
        """Answer N queries under ``guarantee`` (positional or keyword).

        Absolute guarantees compare the certified bound with the budget;
        relative guarantees apply the Lemma 3/5/7 certificate per query and
        answer the uncertified subset through :meth:`exact_batch`.
        """
        if len(bounds) % 2:
            bounds, guarantee = split_guarantee(bounds, guarantee)
        bounds = validate_bounds_batch(*bounds, dims=self.dims)
        values, error_bound = self._approx(*bounds)
        return resolve_batch_certificates(
            values,
            error_bound=error_bound,
            guarantee=guarantee,
            exact_for_mask=lambda mask: self.exact_batch(*(bound[mask] for bound in bounds)),
            absolute_fallback=self.absolute_fallback,
        )

    def _query_bounds(self, query) -> tuple[list[float], ...]:
        """One scalar query as a batch of one, after the aggregate check."""
        if query.aggregate is not self.aggregate:
            raise NotSupportedError(
                f"view answers {self.aggregate.value} queries, got {query.aggregate.value}"
            )
        if self.dims == 2:
            return [query.x_low], [query.x_high], [query.y_low], [query.y_high]
        return [query.low], [query.high]

    def estimate(self, query) -> float:
        """Approximate answer for one query (a batch of one)."""
        return float(self.estimate_batch(*self._query_bounds(query))[0])

    def exact(self, query) -> float:
        """Exact answer for one query (a batch of one)."""
        return float(self.exact_batch(*self._query_bounds(query))[0])

    def query(self, query, guarantee: Guarantee | None = None) -> QueryResult:
        """Answer one query with guarantee handling (a batch of one)."""
        return self.query_batch(*self._query_bounds(query), guarantee=guarantee).to_results()[0]


class SnapshotReads:
    """Read surface of a mutable index: every call answers from one snapshot.

    The owner implements ``snapshot()`` (a frozen :class:`CertifiedView` of
    its current state) and sets ``dims``.  Each call resolves ``snapshot()``
    once, so a query's approximation and its exact fallback see the same
    epoch even while writes land.
    """

    dims = 1

    def snapshot(self) -> CertifiedView:
        raise NotImplementedError

    def estimate_batch(self, *bounds) -> np.ndarray:
        """Approximate answers for N queries from the current snapshot."""
        return self.snapshot().estimate_batch(*bounds)

    def exact_batch(self, *bounds) -> np.ndarray:
        """Exact answers for N queries from the current snapshot."""
        return self.snapshot().exact_batch(*bounds)

    def query_batch(self, *bounds, guarantee: Guarantee | None = None) -> BatchQueryResult:
        """Answer N queries with certificates from the current snapshot."""
        return self.snapshot().query_batch(*bounds, guarantee=guarantee)

    def estimate(self, query) -> float:
        """Approximate answer for one query from the current snapshot."""
        return self.snapshot().estimate(query)

    def exact(self, query) -> float:
        """Exact answer for one query from the current snapshot."""
        return self.snapshot().exact(query)

    def query(self, query, guarantee: Guarantee | None = None) -> QueryResult:
        """Answer one query with guarantee handling from the current snapshot."""
        return self.snapshot().query(query, guarantee)
