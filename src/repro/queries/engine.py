"""Query evaluation engine and accuracy helpers.

:class:`QueryEngine` wires together an approximate method and an exact oracle
so experiments can run a workload once and collect both the approximate
answers and their true errors.  When the method exposes a batch interface
(``query_batch`` / ``exact_batch``, or explicit batch callables), the engine
answers the whole workload through the vectorized path and falls back to the
per-query loop otherwise — the scalar loop remains the correctness oracle.
:func:`evaluate_accuracy` summarizes the per-query errors (mean/median/max
absolute and relative error, guarantee violation count), which is what the
accuracy-oriented figures report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..config import Aggregate
from ..errors import NotSupportedError, QueryError
from .cache import CacheInfo, ResultCache
from .types import BatchQueryResult, Guarantee, QueryResult, RangeQuery, RangeQuery2D

__all__ = [
    "QueryEngine",
    "AccuracyReport",
    "evaluate_accuracy",
    "queries_to_bounds",
]


def queries_to_bounds(
    queries: Sequence[RangeQuery | RangeQuery2D],
) -> tuple[np.ndarray, ...]:
    """Transpose a workload into flat bound arrays for the batch APIs.

    One-key workloads become ``(lows, highs)``; two-key workloads become
    ``(x_lows, x_highs, y_lows, y_highs)``.  Mixed workloads are rejected.
    """
    if not queries:
        raise QueryError("empty workload")
    if all(isinstance(query, RangeQuery) for query in queries):
        lows = np.fromiter((query.low for query in queries), dtype=np.float64, count=len(queries))
        highs = np.fromiter((query.high for query in queries), dtype=np.float64, count=len(queries))
        return lows, highs
    if all(isinstance(query, RangeQuery2D) for query in queries):
        n = len(queries)
        return (
            np.fromiter((query.x_low for query in queries), dtype=np.float64, count=n),
            np.fromiter((query.x_high for query in queries), dtype=np.float64, count=n),
            np.fromiter((query.y_low for query in queries), dtype=np.float64, count=n),
            np.fromiter((query.y_high for query in queries), dtype=np.float64, count=n),
        )
    raise QueryError("workload mixes one-key and two-key queries")


@dataclass(frozen=True)
class AccuracyReport:
    """Aggregate error statistics over a workload.

    Attributes
    ----------
    num_queries:
        Number of evaluated queries.
    mean_absolute_error, max_absolute_error:
        Statistics of ``|approx - exact|``.
    mean_relative_error, median_relative_error, max_relative_error:
        Statistics of ``|approx - exact| / exact`` over queries with a
        non-zero exact answer; NaN when no query has one (relative error is
        undefined there, and reporting 0.0 would overstate accuracy).
    guarantee_violations:
        Number of queries whose result violated the requested guarantee
        (always 0 for correctly implemented guaranteed methods).
    fallback_rate:
        Fraction of queries answered by the exact fallback.
    """

    num_queries: int
    mean_absolute_error: float
    max_absolute_error: float
    mean_relative_error: float
    median_relative_error: float
    max_relative_error: float
    guarantee_violations: int
    fallback_rate: float


class QueryEngine:
    """Pairs an approximate method with an exact oracle for experiments.

    Parameters
    ----------
    approximate:
        Callable mapping a query (and optional guarantee) to a
        :class:`QueryResult` or a plain float.
    exact:
        Callable mapping a query to the exact answer.
    name:
        Label used in reports.
    approximate_batch:
        Optional vectorized method: called with the flat bound arrays of the
        whole workload (plus the guarantee when one is requested) and
        returning a :class:`BatchQueryResult` or a plain ndarray of values.
    exact_batch:
        Optional vectorized oracle: called with the flat bound arrays and
        returning an ndarray of exact answers.
    expected_aggregate:
        Aggregate the batch callables answer.  Batch calls drop the
        per-query ``aggregate`` field (bounds only), so without this the
        engine cannot reproduce the scalar path's aggregate-mismatch check;
        :meth:`for_index` fills it from ``index.aggregate`` automatically.
    cache_size:
        When > 0, memoize up to that many batch answers in an LRU keyed on
        ``(index version, guarantee, bounds)``.  Hits skip the method
        entirely; a write to an updatable index bumps its version so stale
        answers can never be served.  0 (the default) disables caching.
    version_provider:
        Zero-argument callable returning the index's current write version
        for the cache key.  ``None`` keys every entry on version 0, which is
        correct for immutable indexes only; :meth:`for_index` wires the
        live index's ``version`` counter automatically.
    """

    def __init__(
        self,
        approximate: Callable[..., QueryResult | float],
        exact: Callable[[RangeQuery | RangeQuery2D], float],
        name: str = "method",
        *,
        approximate_batch: Callable[..., BatchQueryResult | np.ndarray] | None = None,
        exact_batch: Callable[..., np.ndarray] | None = None,
        expected_aggregate: Aggregate | None = None,
        cache_size: int = 0,
        version_provider: Callable[[], int] | None = None,
    ) -> None:
        self._approximate = approximate
        self._exact = exact
        self._approximate_batch = approximate_batch
        self._exact_batch = exact_batch
        self._expected_aggregate = expected_aggregate
        self._sharded = None
        self._cache = ResultCache(cache_size) if cache_size > 0 else None
        self._version_provider = version_provider
        self.name = name

    @classmethod
    def for_index(
        cls,
        index: object,
        name: str = "method",
        *,
        num_shards: int = 1,
        cache_size: int = 0,
    ) -> "QueryEngine":
        """Wire an engine from an index object, auto-detecting batch support.

        Uses ``index.query`` / ``index.exact`` and, when present,
        ``index.query_batch`` / ``index.exact_batch`` (the interface exposed
        by :class:`~repro.index.PolyFitIndex`, :class:`PolyFit2DIndex`, the
        RMI and the FITing-tree).

        With ``num_shards > 1`` the batch callables are routed through a
        :class:`~repro.queries.sharding.ShardedQueryEngine`, which splits
        large workloads into ``num_shards`` chunks fanned out over a
        thread pool and merged in input order; results stay bit-identical
        to the serial path.  Call :meth:`close` to release the worker pool,
        or use the engine as a context manager.

        Updatable indexes (anything exposing ``snapshot()``, e.g.
        :class:`~repro.stream.updatable.UpdatablePolyFitIndex`) already
        route their batch path through a frozen per-epoch overlay; the
        sharded path additionally pins the overlay of the epoch current at
        engine construction — for *every* callable, scalar included, so the
        batch/scalar oracle equivalence holds and every worker serves one
        consistent snapshot even while the index keeps absorbing writes.

        ``cache_size`` > 0 enables the epoch-keyed LRU result cache (see
        :class:`~repro.queries.cache.ResultCache`); the cache key uses the
        *live* index's write version, captured before any snapshot pinning,
        so inserts and compactions invalidate cached answers even when the
        batch path serves a frozen overlay.
        """
        # Capture the version source before any snapshot rebinding below:
        # the cache must observe the live index's writes, not the frozen
        # overlay's constant epoch.
        version_provider = None
        if cache_size > 0 and hasattr(index, "version"):
            version_source = index
            version_provider = lambda: version_source.version  # noqa: E731
        approximate_batch = getattr(index, "query_batch", None)
        exact_batch = getattr(index, "exact_batch", None)
        sharded = None
        if num_shards > 1 and approximate_batch is not None:
            from .sharding import ShardedQueryEngine

            snapshot = getattr(index, "snapshot", None)
            if callable(snapshot):
                # Pin one epoch for scalar and batch alike: a live scalar
                # path next to a frozen batch path would let the two
                # diverge after an insert.
                index = snapshot()
                exact_batch = getattr(index, "exact_batch", None)
            sharded = ShardedQueryEngine(index, num_shards=num_shards)
            approximate_batch = sharded.query_batch
            if exact_batch is not None:
                exact_batch = sharded.exact_batch
        engine = cls(
            approximate=index.query,  # type: ignore[attr-defined]
            exact=index.exact,  # type: ignore[attr-defined]
            name=name,
            approximate_batch=approximate_batch,
            exact_batch=exact_batch,
            expected_aggregate=getattr(index, "aggregate", None),
            cache_size=cache_size,
            version_provider=version_provider,
        )
        engine._sharded = sharded
        return engine

    def close(self) -> None:
        """Release the sharded worker pool, if one was wired in (idempotent)."""
        if self._sharded is not None:
            self._sharded.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def supports_batch(self) -> bool:
        """Whether a vectorized method callable is wired in."""
        return self._approximate_batch is not None

    def cache_info(self) -> CacheInfo | None:
        """Hit/miss counters and occupancy of the result cache (None if off)."""
        return None if self._cache is None else self._cache.info()

    def cache_clear(self) -> None:
        """Drop cached batch answers and reset the counters (no-op if off)."""
        if self._cache is not None:
            self._cache.clear()

    def _call_batch(
        self,
        bounds: tuple[np.ndarray, ...],
        guarantee: Guarantee | None,
    ) -> BatchQueryResult | np.ndarray:
        """Invoke the batch method through the result cache, when enabled."""
        assert self._approximate_batch is not None
        if self._cache is None:
            if guarantee is None:
                return self._approximate_batch(*bounds)
            return self._approximate_batch(*bounds, guarantee)
        version = 0 if self._version_provider is None else self._version_provider()
        key = ResultCache.make_key(version, guarantee, bounds)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if guarantee is None:
            answer = self._approximate_batch(*bounds)
        else:
            answer = self._approximate_batch(*bounds, guarantee)
        self._cache.put(key, answer)
        return answer

    def run(
        self,
        queries: Sequence[RangeQuery | RangeQuery2D],
        guarantee: Guarantee | None = None,
        *,
        prefer_batch: bool = True,
    ) -> list[tuple[QueryResult, float]]:
        """Evaluate all queries, returning (approximate result, exact answer) pairs.

        The batch path is used when available (and ``prefer_batch`` is kept);
        pass ``prefer_batch=False`` to force the per-query loop, e.g. when
        using the scalar path as the correctness oracle for the batch one.
        """
        if not queries:
            raise QueryError("empty workload")
        if prefer_batch and self._approximate_batch is not None:
            return self._run_batch(queries, guarantee)
        return self._run_scalar(queries, guarantee)

    def _run_scalar(
        self,
        queries: Sequence[RangeQuery | RangeQuery2D],
        guarantee: Guarantee | None,
    ) -> list[tuple[QueryResult, float]]:
        results: list[tuple[QueryResult, float]] = []
        for query in queries:
            if guarantee is None:
                raw = self._approximate(query)
            else:
                raw = self._approximate(query, guarantee)
            if not isinstance(raw, QueryResult):
                raw = QueryResult(value=float(raw), guaranteed=False)
            results.append((raw, float(self._exact(query))))
        return results

    def _run_batch(
        self,
        queries: Sequence[RangeQuery | RangeQuery2D],
        guarantee: Guarantee | None,
    ) -> list[tuple[QueryResult, float]]:
        # Batch calls carry only the bounds, so the per-query aggregate check
        # the scalar path performs must happen here.
        aggregates = {query.aggregate for query in queries}
        if self._expected_aggregate is not None:
            mismatched = aggregates - {self._expected_aggregate}
            if mismatched:
                raise NotSupportedError(
                    f"method {self.name!r} answers {self._expected_aggregate.value} "
                    f"queries, workload contains {sorted(a.value for a in mismatched)}"
                )
        elif len(aggregates) > 1:
            # Unknown method aggregate and a heterogeneous workload: only the
            # scalar path preserves each query's aggregate.
            return self._run_scalar(queries, guarantee)
        bounds = queries_to_bounds(queries)
        raw = self._call_batch(bounds, guarantee)
        if isinstance(raw, BatchQueryResult):
            results = raw.to_results()
        else:
            values = np.asarray(raw, dtype=np.float64)
            results = [QueryResult(value=float(v), guaranteed=False) for v in values]
        if len(results) != len(queries):
            raise QueryError("batch method returned a mismatched number of answers")
        if self._exact_batch is not None:
            exacts = np.asarray(self._exact_batch(*bounds), dtype=np.float64)
        else:
            exacts = np.array([float(self._exact(query)) for query in queries])
        return list(zip(results, exacts.tolist()))

    def run_batch_raw(
        self,
        queries: Sequence[RangeQuery | RangeQuery2D],
        guarantee: Guarantee | None = None,
    ) -> BatchQueryResult | np.ndarray:
        """The raw columnar batch answer, without per-query materialization.

        This is the zero-overhead entry point the throughput benchmarks time;
        :meth:`run` converts the same answer into (result, exact) pairs.
        """
        if self._approximate_batch is None:
            raise QueryError(f"method {self.name!r} has no batch interface")
        return self._call_batch(queries_to_bounds(queries), guarantee)

    def accuracy(
        self,
        queries: Sequence[RangeQuery | RangeQuery2D],
        guarantee: Guarantee | None = None,
    ) -> AccuracyReport:
        """Evaluate all queries and summarize the errors."""
        return evaluate_accuracy(self.run(queries, guarantee), guarantee)


def evaluate_accuracy(
    pairs: Sequence[tuple[QueryResult, float]],
    guarantee: Guarantee | None = None,
) -> AccuracyReport:
    """Summarize (result, exact) pairs into an :class:`AccuracyReport`."""
    if not pairs:
        raise QueryError("no results to evaluate")
    absolute_errors = []
    relative_errors = []
    violations = 0
    fallbacks = 0
    for result, exact in pairs:
        if np.isnan(result.value) and np.isnan(exact):
            absolute_errors.append(0.0)
            continue
        error = abs(result.value - exact)
        absolute_errors.append(error)
        if exact != 0 and not np.isnan(exact):
            relative_errors.append(error / abs(exact))
        if result.exact_fallback:
            fallbacks += 1
        if guarantee is not None and result.guaranteed and not guarantee.satisfied_by(
            result.value, exact
        ):
            violations += 1
    absolute = np.asarray(absolute_errors, dtype=np.float64)
    if relative_errors:
        relative = np.asarray(relative_errors, dtype=np.float64)
        mean_relative = float(relative.mean())
        median_relative = float(np.median(relative))
        max_relative = float(relative.max())
    else:
        # No query has a non-zero exact answer: relative error is undefined,
        # and a 0.0 placeholder would read as "perfect accuracy".
        mean_relative = median_relative = max_relative = float("nan")
    return AccuracyReport(
        num_queries=len(pairs),
        mean_absolute_error=float(absolute.mean()),
        max_absolute_error=float(absolute.max()),
        mean_relative_error=mean_relative,
        median_relative_error=median_relative,
        max_relative_error=max_relative,
        guarantee_violations=violations,
        fallback_rate=fallbacks / len(pairs),
    )
