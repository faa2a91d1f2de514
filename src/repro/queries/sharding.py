"""Sharded parallel execution of batch range-aggregate workloads.

The batch query path answers a workload with O(1) NumPy calls over the flat
cell directory — a static, read-only structure, which makes the workload
embarrassingly parallel: split the bound arrays into contiguous chunks, fan
the chunks out across a :class:`~concurrent.futures.ThreadPoolExecutor`
sharing the in-process index, and concatenate the per-chunk answers back in
input order.  NumPy releases the GIL inside the large vectorized kernels, so
threads scale on multi-core machines without any copying at all.
:class:`ShardedQueryEngine` implements exactly that on top of any index
exposing the batch interface (``estimate_batch`` / ``exact_batch`` /
``query_batch``).

Workloads smaller than ``num_shards * min_queries_per_shard`` skip the pool
and run serially: chunking overhead would dominate, and the serial path is
always bit-identical anyway (every batch kernel is element-independent, so
evaluating a chunk equals slicing the full evaluation).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from ..errors import QueryError
from ..obs.metrics import histogram_family
from .batch import split_guarantee, validate_bounds_batch
from .types import BatchQueryResult, Guarantee

__all__ = [
    "ShardedQueryEngine",
    "ShardMetrics",
    "shard_slices",
    "DEFAULT_MIN_QUERIES_PER_SHARD",
]

#: Below ``num_shards * DEFAULT_MIN_QUERIES_PER_SHARD`` queries the engine
#: answers serially: pool dispatch costs more than the chunks save.
DEFAULT_MIN_QUERIES_PER_SHARD = 8192

#: Batch methods the engine knows how to shard.  ``query_batch`` returns a
#: columnar :class:`BatchQueryResult` (merged field-wise); the others return
#: plain value arrays.
_BATCH_METHODS = ("estimate_batch", "exact_batch", "query_batch")


def shard_slices(total: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``(start, stop)`` chunks covering ``range(total)``.

    At most ``num_shards`` chunks are produced; workloads smaller than the
    shard count get one single-query chunk per query.  Chunk sizes differ by
    at most one, and concatenating the chunks reproduces the input order.
    """
    if num_shards < 1:
        raise QueryError(f"num_shards must be >= 1, got {num_shards}")
    num_chunks = min(num_shards, total)
    base, extra = divmod(total, max(num_chunks, 1))
    slices: list[tuple[int, int]] = []
    start = 0
    for chunk in range(num_chunks):
        stop = start + base + (1 if chunk < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


def _dispatch(
    index: object,
    method: str,
    bounds: tuple[np.ndarray, ...],
    guarantee: Guarantee | None,
):
    target = getattr(index, method)
    if guarantee is None:
        return target(*bounds)
    return target(*bounds, guarantee)


class ShardMetrics:
    """Per-shard execution instruments, owned by whoever outlives the engine.

    Sharded engines are rebuilt on every epoch swap (see
    ``EngineHost._sharded_for``), so the long-lived owner creates one bundle
    and passes it into each successive engine — counts accumulate across
    swaps.
    """

    def __init__(self) -> None:
        self.exec_seconds = histogram_family(
            "repro_shard_exec_seconds",
            "Per-shard chunk execution time in seconds",
            ("shard",),
        )

    def families(self) -> list:
        return [self.exec_seconds]


def _merge(parts: list):
    if isinstance(parts[0], BatchQueryResult):
        return BatchQueryResult(
            values=np.concatenate([part.values for part in parts]),
            guaranteed=np.concatenate([part.guaranteed for part in parts]),
            exact_fallback=np.concatenate([part.exact_fallback for part in parts]),
            error_bounds=np.concatenate([part.error_bounds for part in parts]),
        )
    return np.concatenate(parts)


class ShardedQueryEngine:
    """Fan a batch workload out across a thread pool, in input order.

    Parameters
    ----------
    index:
        A built index exposing the batch interface.
    num_shards:
        Number of chunks / pool threads.  Defaults to the CPU count.
    min_queries_per_shard:
        Serial-fallback threshold: workloads with fewer than
        ``num_shards * min_queries_per_shard`` queries skip the pool.

    The engine owns its pool: it is created lazily on the first parallel
    call and released by :meth:`close` (or a ``with`` block).  Results are
    bit-identical to the serial path — chunk evaluation is
    element-independent in all batch kernels.
    """

    def __init__(
        self,
        index: object,
        *,
        num_shards: int | None = None,
        min_queries_per_shard: int = DEFAULT_MIN_QUERIES_PER_SHARD,
        metrics: ShardMetrics | None = None,
    ) -> None:
        if num_shards is None:
            num_shards = os.cpu_count() or 1
        if num_shards < 1:
            raise QueryError(f"num_shards must be >= 1, got {num_shards}")
        if min_queries_per_shard < 1:
            raise QueryError(
                f"min_queries_per_shard must be >= 1, got {min_queries_per_shard}"
            )
        self._index = index
        self._num_shards = int(num_shards)
        self._min_queries_per_shard = int(min_queries_per_shard)
        self._metrics = metrics
        self._pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        """Number of chunks the workload is split into."""
        return self._num_shards

    # ------------------------------------------------------------------ #
    # Batch interface (mirrors the index's own)
    # ------------------------------------------------------------------ #

    def estimate_batch(self, *bounds: np.ndarray) -> np.ndarray:
        """Sharded counterpart of the index's ``estimate_batch``."""
        return self._run("estimate_batch", bounds, None)

    def exact_batch(self, *bounds: np.ndarray) -> np.ndarray:
        """Sharded counterpart of the index's ``exact_batch``."""
        return self._run("exact_batch", bounds, None)

    #: Callers may pass a ``trace=`` through ``query_batch`` (duck-typed
    #: capability check used by the serving host).
    supports_trace = True

    def query_batch(
        self, *bounds: np.ndarray, guarantee: Guarantee | None = None, trace=None
    ) -> BatchQueryResult:
        """Sharded counterpart of the index's ``query_batch``.

        Accepts the guarantee either as a keyword or as a trailing
        positional, like every view's ``query_batch``.
        """
        bounds, guarantee = split_guarantee(bounds, guarantee)
        return self._run("query_batch", bounds, guarantee, trace=trace)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run(
        self,
        method: str,
        bounds: Sequence[np.ndarray],
        guarantee: Guarantee | None,
        trace=None,
    ):
        if method not in _BATCH_METHODS:
            raise QueryError(f"unknown batch method {method!r}")
        bounds = validate_bounds_batch(*bounds)
        total = bounds[0].size
        slices = shard_slices(total, self._num_shards)
        hist = self._metrics.exec_seconds if self._metrics is not None else None
        clock = trace.now if trace is not None else time.perf_counter

        def observe(shard: int, t0: float, t1: float) -> None:
            if hist is not None:
                hist.labels(shard=str(shard)).observe(t1 - t0)
            if trace is not None:
                trace.add_span("shard_exec", t0, t1, shard=shard)

        if len(slices) <= 1 or total < self._num_shards * self._min_queries_per_shard:
            if hist is None and trace is None:
                return _dispatch(self._index, method, bounds, guarantee)
            t0 = clock()
            out = _dispatch(self._index, method, bounds, guarantee)
            observe(0, t0, clock())
            return out

        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._num_shards, thread_name_prefix="repro-shard"
            )
        chunks = [
            tuple(bound[start:stop] for bound in bounds) for start, stop in slices
        ]
        index = self._index
        if hist is None and trace is None:
            futures = [
                self._pool.submit(_dispatch, index, method, chunk, guarantee)
                for chunk in chunks
            ]
        else:

            def run_chunk(shard: int, chunk):
                t0 = clock()
                out = _dispatch(index, method, chunk, guarantee)
                observe(shard, t0, clock())
                return out

            futures = [
                self._pool.submit(run_chunk, i, chunk) for i, chunk in enumerate(chunks)
            ]
        return _merge([future.result() for future in futures])

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ShardedQueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
