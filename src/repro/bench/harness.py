"""Timing harness.

The paper reports per-query response time in nanoseconds averaged over 1000
queries.  :func:`time_per_query_ns` reproduces that protocol: run the whole
workload ``repeats`` times with ``time.perf_counter_ns`` and report the best
average per query (best-of-repeats suppresses warm-up and GC noise, which is
the standard micro-benchmark convention).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import QueryError

__all__ = [
    "MethodTiming",
    "time_per_query_ns",
    "time_batch_per_query_ns",
    "time_callable_ns",
    "sweep_shard_counts",
]


@dataclass(frozen=True)
class MethodTiming:
    """Per-query timing for one method on one workload.

    Attributes
    ----------
    method:
        Method label (e.g. ``"PolyFit-2"``).
    per_query_ns:
        Average nanoseconds per query of the best repeat.
    total_queries:
        Number of queries in the workload.
    repeats:
        Number of measured repeats.
    p50_ns, p95_ns, p99_ns:
        Percentiles of the per-query latency across the measured repeats
        (each repeat contributes one ``elapsed / total_queries`` sample, so
        the spread reflects run-to-run jitter, not per-query variance).
        NaN when the producing helper does not record them.
    """

    method: str
    per_query_ns: float
    total_queries: int
    repeats: int
    p50_ns: float = float("nan")
    p95_ns: float = float("nan")
    p99_ns: float = float("nan")


def time_per_query_ns(
    run_query: Callable[[object], object],
    queries: Sequence[object],
    *,
    repeats: int = 3,
    method: str = "method",
    warmup: bool = True,
) -> MethodTiming:
    """Measure the average per-query latency of ``run_query`` over a workload.

    Parameters
    ----------
    run_query:
        Callable invoked once per query; its return value is ignored.
    queries:
        The workload.
    repeats:
        Number of timed passes; the fastest pass is reported.
    method:
        Label stored in the result.
    warmup:
        Run one untimed pass first to populate caches.
    """
    if not queries:
        raise QueryError("empty workload")
    if repeats < 1:
        raise QueryError("repeats must be >= 1")
    if warmup:
        for query in queries:
            run_query(query)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for query in queries:
            run_query(query)
        samples.append((time.perf_counter_ns() - start) / len(queries))
    return MethodTiming(
        method=method,
        per_query_ns=min(samples),
        total_queries=len(queries),
        repeats=repeats,
        p50_ns=float(np.percentile(samples, 50)),
        p95_ns=float(np.percentile(samples, 95)),
        p99_ns=float(np.percentile(samples, 99)),
    )


def time_batch_per_query_ns(
    run_batch: Callable[[], object],
    num_queries: int,
    *,
    repeats: int = 3,
    method: str = "method",
    warmup: bool = True,
) -> MethodTiming:
    """Per-query latency of a method that answers a whole workload at once.

    ``run_batch`` is a zero-argument callable answering all ``num_queries``
    queries in one call (e.g. a closure over ``index.query_batch`` and the
    prepared bound arrays).  The fastest of ``repeats`` passes is divided by
    the workload size, making the result directly comparable with
    :func:`time_per_query_ns` of the scalar loop.
    """
    if num_queries < 1:
        raise QueryError("num_queries must be >= 1")
    if repeats < 1:
        raise QueryError("repeats must be >= 1")
    if warmup:
        run_batch()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        run_batch()
        samples.append((time.perf_counter_ns() - start) / num_queries)
    return MethodTiming(
        method=method,
        per_query_ns=min(samples),
        total_queries=num_queries,
        repeats=repeats,
        p50_ns=float(np.percentile(samples, 50)),
        p95_ns=float(np.percentile(samples, 95)),
        p99_ns=float(np.percentile(samples, 99)),
    )


def sweep_shard_counts(
    index: object,
    *,
    bounds: Sequence[object],
    shard_counts: Sequence[int],
    method: str = "estimate_batch",
    repeats: int = 3,
    min_queries_per_shard: int = 1,
) -> dict[int, MethodTiming]:
    """Time one batch method across shard counts — the ``num_shards`` knob.

    For every entry of ``shard_counts`` a fresh
    :class:`~repro.queries.sharding.ShardedQueryEngine` is built over
    ``index``, the chosen ``method`` is timed on the full ``bounds`` workload with
    :func:`time_batch_per_query_ns`, and the engine's pool is torn down
    before the next count runs.  ``min_queries_per_shard`` defaults to 1 so
    the sweep always exercises the parallel path being measured.
    """
    from ..queries.sharding import ShardedQueryEngine

    num_queries = len(bounds[0])
    timings: dict[int, MethodTiming] = {}
    for count in shard_counts:
        with ShardedQueryEngine(
            index,
            num_shards=count,
            min_queries_per_shard=min_queries_per_shard,
        ) as engine:
            run_batch = getattr(engine, method)
            timings[count] = time_batch_per_query_ns(
                lambda: run_batch(*bounds),
                num_queries,
                repeats=repeats,
                method=f"{method}[shards={count}]",
            )
    return timings


def time_callable_ns(function: Callable[[], object], *, repeats: int = 1) -> float:
    """Wall-clock nanoseconds of the fastest of ``repeats`` calls to ``function``."""
    if repeats < 1:
        raise QueryError("repeats must be >= 1")
    best = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        function()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    return float(best)
