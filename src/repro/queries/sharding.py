"""Sharded parallel execution of batch range-aggregate workloads.

The batch query path answers a workload with O(1) NumPy calls over the flat
cell directory — a static, read-only structure, which makes the workload
embarrassingly parallel: split the bound arrays into contiguous chunks, fan
the chunks out across workers, and concatenate the per-chunk answers back in
input order.  :class:`ShardedQueryEngine` implements exactly that on top of
any index exposing the batch interface (``estimate_batch`` /
``exact_batch`` / ``query_batch``):

* ``executor="thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`
  sharing the in-process index.  NumPy releases the GIL inside the large
  vectorized kernels, so threads scale on multi-core machines without any
  copying at all.
* ``executor="process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  for workloads where Python-level work (e.g. the per-query exact 2-D
  fallback) would serialize on the GIL.  Workers obtain the index either by
  memory-mapping a :mod:`repro.index.codec` file (``index_path`` — every
  worker maps the *same* pages, so the directory is shared, not copied) or,
  on fork platforms, by copy-on-write inheritance of the parent's index.
* ``executor="serial"`` — no pool; identical code path to calling the index
  directly (useful as the oracle in tests and benches).

Workloads smaller than ``num_shards * min_queries_per_shard`` skip the pool
and run serially: chunking overhead would dominate, and the serial path is
always bit-identical anyway (every batch kernel is element-independent, so
evaluating a chunk equals slicing the full evaluation).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import QueryError
from ..obs.metrics import histogram_family
from .batch import validate_bounds_batch
from .types import BatchQueryResult, Guarantee

__all__ = [
    "ShardedQueryEngine",
    "ShardMetrics",
    "shard_slices",
    "DEFAULT_MIN_QUERIES_PER_SHARD",
]

_EXECUTORS = ("serial", "thread", "process")

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


# --------------------------------------------------------------------- #
# Process-pool worker plumbing (module level: must be picklable by spawn)
# --------------------------------------------------------------------- #

_WORKER_INDEX = None


def _worker_init_from_path(index_path: str, mmap: bool) -> None:
    """Load the shared index inside a worker process (mmap → shared pages)."""
    global _WORKER_INDEX
    from ..index.codec import load_index_binary

    _WORKER_INDEX = load_index_binary(index_path, mmap=mmap)


def _worker_init_inherit(index: object) -> None:
    """Adopt the parent's index (fork start method: copy-on-write, no pickle)."""
    global _WORKER_INDEX
    _WORKER_INDEX = index


def _worker_run(
    method: str, bounds: tuple[np.ndarray, ...], guarantee: Guarantee | None
):
    """Answer one chunk in a worker; columnar results travel as plain tuples."""
    return _normalize(_dispatch(_WORKER_INDEX, method, bounds, guarantee))


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


def _normalize(result):
    if isinstance(result, BatchQueryResult):
        return (
            result.values,
            result.guaranteed,
            result.exact_fallback,
            result.error_bounds,
        )
    return np.asarray(result)


class ShardMetrics:
    """Per-shard execution instruments, owned by whoever outlives the engine.

    Sharded engines are rebuilt on every epoch swap (see
    ``EngineHost._sharded_for``), so the long-lived owner creates one bundle
    and passes it into each successive engine — counts accumulate across
    swaps.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.exec_seconds = histogram_family(
            "repro_shard_exec_seconds",
            "Per-shard chunk execution time in seconds",
            ("shard",),
            enabled=enabled,
        )

    def families(self) -> list:
        return [self.exec_seconds] if getattr(self.exec_seconds, "enabled", False) else []


def _merge(parts: list):
    if isinstance(parts[0], tuple):
        return BatchQueryResult(
            values=np.concatenate([part[0] for part in parts]),
            guaranteed=np.concatenate([part[1] for part in parts]),
            exact_fallback=np.concatenate([part[2] for part in parts]),
            error_bounds=np.concatenate([part[3] for part in parts]),
        )
    return np.concatenate(parts)


class ShardedQueryEngine:
    """Fan a batch workload out across threads or processes, in input order.

    Parameters
    ----------
    index:
        A built index exposing the batch interface.  Optional when
        ``index_path`` is given (it is then lazily mmap-loaded for the
        serial fallback).
    index_path:
        Path to a :mod:`repro.index.codec` binary file.  Required for the
        process executor on non-fork platforms; with it, every worker maps
        the same read-only pages instead of receiving a pickled copy.
    num_shards:
        Number of chunks / pool workers.  Defaults to the CPU count.
    executor:
        ``"thread"`` (default), ``"process"`` or ``"serial"``.
    min_queries_per_shard:
        Serial-fallback threshold: workloads with fewer than
        ``num_shards * min_queries_per_shard`` queries skip the pool.
    mmap:
        Whether path-loaded indexes are memory-mapped (kept for benchmarks
        that compare against eager loading).

    The engine owns its pool: it is created lazily on the first parallel
    call and released by :meth:`close` (or a ``with`` block).  Results are
    bit-identical to the serial path for every executor — chunk evaluation
    is element-independent in all batch kernels.
    """

    def __init__(
        self,
        index: object | None = None,
        *,
        index_path: str | Path | None = None,
        num_shards: int | None = None,
        executor: str = "thread",
        min_queries_per_shard: int = DEFAULT_MIN_QUERIES_PER_SHARD,
        mmap: bool = True,
        metrics: ShardMetrics | None = None,
    ) -> None:
        if executor not in _EXECUTORS:
            raise QueryError(
                f"unknown executor {executor!r}; choose one of {_EXECUTORS}"
            )
        if index is None and index_path is None:
            raise QueryError("provide an index, an index_path, or both")
        if num_shards is None:
            num_shards = os.cpu_count() or 1
        if num_shards < 1:
            raise QueryError(f"num_shards must be >= 1, got {num_shards}")
        if min_queries_per_shard < 1:
            raise QueryError(
                f"min_queries_per_shard must be >= 1, got {min_queries_per_shard}"
            )
        self._index = index
        self._index_path = None if index_path is None else str(index_path)
        self._num_shards = int(num_shards)
        self._executor = executor
        self._min_queries_per_shard = int(min_queries_per_shard)
        self._mmap = bool(mmap)
        self._metrics = metrics
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def for_index(cls, index: object, **kwargs) -> "ShardedQueryEngine":
        """Shard an in-memory index (thread executor by default)."""
        return cls(index=index, **kwargs)

    @classmethod
    def from_path(cls, index_path: str | Path, **kwargs) -> "ShardedQueryEngine":
        """Shard a persisted binary index; workers mmap the same file."""
        return cls(index_path=index_path, **kwargs)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        """Number of chunks the workload is split into."""
        return self._num_shards

    @property
    def executor(self) -> str:
        """The configured executor kind."""
        return self._executor

    @property
    def index(self) -> object:
        """The local index (lazily mmap-loaded from ``index_path`` if needed)."""
        if self._index is None:
            from ..index.codec import load_index_binary

            self._index = load_index_binary(self._index_path, mmap=self._mmap)
        return self._index

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
        positional (the calling convention :class:`QueryEngine` uses).
        """
        if bounds and isinstance(bounds[-1], Guarantee):
            if guarantee is not None:
                raise QueryError("guarantee passed both positionally and by keyword")
            guarantee = bounds[-1]
            bounds = bounds[:-1]
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
        # Both bound conventions — (lows, highs) and (x_lows, x_highs,
        # y_lows, y_highs) — are sequences of (low, high) pairs, so the
        # canonical pairwise validation applies to each.
        if not bounds or len(bounds) % 2:
            raise QueryError("bounds must be (low, high) array pairs")
        bounds = tuple(
            validated
            for pair in range(0, len(bounds), 2)
            for validated in validate_bounds_batch(bounds[pair], bounds[pair + 1])
        )
        if any(bound.shape != bounds[0].shape for bound in bounds):
            raise QueryError("bound arrays must be equal-length 1-D arrays")
        total = bounds[0].size
        slices = shard_slices(total, self._num_shards)
        hist = self._metrics.exec_seconds if self._metrics is not None else None
        clock = trace.now if trace is not None else time.perf_counter

        def observe(shard: int, t0: float, t1: float) -> None:
            if hist is not None:
                hist.labels(shard=str(shard)).observe(t1 - t0)
            if trace is not None:
                trace.add_span("shard_exec", t0, t1, shard=shard)

        if (
            self._executor == "serial"
            or len(slices) <= 1
            or total < self._num_shards * self._min_queries_per_shard
        ):
            if hist is None and trace is None:
                return _dispatch(self.index, method, bounds, guarantee)
            t0 = clock()
            out = _dispatch(self.index, method, bounds, guarantee)
            observe(0, t0, clock())
            return out

        pool = self._ensure_pool()
        chunks = [
            tuple(bound[start:stop] for bound in bounds) for start, stop in slices
        ]
        if self._executor == "process":
            # Workers run in other processes: per-shard time is measured as
            # scatter-to-completion wall time in the parent (an upper bound
            # that includes pool queueing).
            t0 = clock()
            futures = [
                pool.submit(_worker_run, method, chunk, guarantee) for chunk in chunks
            ]
            parts = []
            for i, future in enumerate(futures):
                parts.append(future.result())
                observe(i, t0, clock())
            return _merge(parts)

        index = self.index
        if hist is None and trace is None:
            futures = [
                pool.submit(
                    lambda c: _normalize(_dispatch(index, method, c, guarantee)), chunk
                )
                for chunk in chunks
            ]
        else:

            def run_chunk(shard: int, chunk):
                t0 = clock()
                out = _normalize(_dispatch(index, method, chunk, guarantee))
                observe(shard, t0, clock())
                return out

            futures = [
                pool.submit(run_chunk, i, chunk) for i, chunk in enumerate(chunks)
            ]
        return _merge([future.result() for future in futures])

    def _ensure_pool(self):
        if self._pool is not None:
            return self._pool
        if self._executor == "thread":
            self._pool = ThreadPoolExecutor(
                max_workers=self._num_shards, thread_name_prefix="repro-shard"
            )
        elif self._index_path is not None:
            # Path-backed workers: each initializer mmaps the same binary
            # file, so all shards serve from one set of physical pages.
            self._pool = ProcessPoolExecutor(
                max_workers=self._num_shards,
                initializer=_worker_init_from_path,
                initargs=(self._index_path, self._mmap),
            )
        else:
            # In-memory index: only fork can share it without pickling —
            # the initargs tuple is inherited copy-on-write at fork time.
            if "fork" not in multiprocessing.get_all_start_methods():
                raise QueryError(
                    "process executor needs an index_path on platforms without "
                    "fork; save the index with save_index_binary() first"
                )
            self._pool = ProcessPoolExecutor(
                max_workers=self._num_shards,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_worker_init_inherit,
                initargs=(self.index,),
            )
        return self._pool

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
