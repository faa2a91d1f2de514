"""Engine hosting for the serving layer: published views, one writer, knobs.

:class:`EngineHost` owns one index on behalf of the server.  It is the
bridge between the asyncio front-end and the NumPy engines, which run on
worker threads:

* **Published view** — an updatable index is mutated only through its
  host.  After every write the host builds the index's frozen serving view
  (its per-epoch :meth:`snapshot` overlay, or a fleet's router) and stores
  it, with the epoch, write version and sizes it belongs to, as one
  immutable :class:`PinnedView` in a single attribute.  :meth:`pin` reads
  that attribute and nothing else of the index, so a coalesced batch is
  evaluated against exactly one published state: the state before a whole
  write (insert plus any auto-compaction it triggered) or after it, never
  a state in between.  Writes landing mid-evaluation publish a *new* view
  for the next pin and never mutate a pinned one, so epoch swaps
  (compactions) never drop or tear in-flight requests.
* **One writer** — each updatable host owns a single-thread executor.
  :meth:`submit_write` runs ``/insert`` and ``/compact`` there in arrival
  order — WAL append and fsync, the apply, auto-compaction and the publish
  — so the event loop keeps answering reads while a write or a compaction
  runs.  The awaited result carries the view the write itself published,
  so an acknowledgement follows its fsync and its publish (read your
  writes).  Queued writes are bounded by the caller's ``max_queued``.
* **Knob wiring** — ``cache_size`` enables the version-keyed
  :class:`~repro.queries.cache.ResultCache` (keyed on the write version of
  the pinned view, so inserts and compactions invalidate cached answers),
  and ``num_shards`` fans large batches out over a thread pool through
  :class:`~repro.queries.sharding.ShardedQueryEngine`.

Thread-safety contract: :meth:`pin`, :meth:`submit_write` and
:meth:`drain_writes` run on the event-loop thread; the sharded wrappers
are created and retired there.  :meth:`insert` and :meth:`compact` may be
called from any thread: they serialize with queued writes on the host's
write lock and publish before they return.  :meth:`execute` is safe on
worker threads because it only touches the frozen view and the
(internally locked) result cache.  :meth:`info` and :meth:`health_info`
read an updatable index's identity from the published view, never from
the index the writer is mutating.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from ..errors import NotSupportedError, QueryError, ServerOverloadedError
from ..obs.metrics import counter_family, gauge_family
from ..obs.tracing import Trace
from ..queries.cache import CacheInfo, ResultCache
from ..queries.types import BatchQueryResult, Guarantee

__all__ = ["EngineHost", "HostMetrics", "PinnedView"]


class HostMetrics:
    """Per-host instrument bundle: pin traffic and epoch identity.

    The families are label-less; the server registers them with an
    ``{"index": name}`` label so multiple hosts stay distinct series.
    """

    def __init__(self) -> None:
        self._fam_pins = counter_family(
            "repro_host_pins_total",
            "Serving views pinned (one per coalesced flush).",
        )
        self._fam_swaps = counter_family(
            "repro_host_epoch_swaps_total",
            "Epoch changes observed at pin time (compaction publications).",
        )
        self._fam_epoch = gauge_family(
            "repro_host_epoch",
            "Flush epoch of the most recently pinned view.",
        )
        self._fam_version = gauge_family(
            "repro_host_write_version",
            "Write version of the most recently pinned (published) view.",
        )
        self.pins = self._fam_pins.labels()
        self.epoch_swaps = self._fam_swaps.labels()
        self.epoch = self._fam_epoch.labels()
        self.version = self._fam_version.labels()

    def families(self) -> list:
        return [self._fam_pins, self._fam_swaps, self._fam_epoch, self._fam_version]


@dataclass(frozen=True)
class PinnedView:
    """One immutable serving view: the pinned engine plus its identity.

    ``serving`` exposes ``query_batch``; ``version`` is the owning index's
    write counter when the view was published (the cache key) and
    ``epoch`` its flush epoch (what responses report).  ``sizes`` holds
    the published state's ``buffer_size`` and, where the index has them,
    ``num_segments`` and ``num_partitions``.  For static indexes the
    counters are 0 and ``sizes`` is empty.
    """

    serving: Any
    epoch: int
    version: int
    sizes: Mapping[str, int] = field(default_factory=dict)


class EngineHost:
    """Hosts one index for the server: pinning, the writer, caching, knobs.

    Parameters
    ----------
    index:
        Any index exposing ``query_batch`` (static or updatable, 1-D or
        2-D); its ``dims`` attribute (1 when absent) fixes the bounds
        arity.  Updatable indexes (anything with a callable ``snapshot``)
        additionally get the published-view read path, a writer thread and
        the write endpoints; once hosted, such an index is mutated only
        through this host.
    name:
        Label used in stats and error messages.
    cache_size:
        When > 0, memoize whole-batch answers in a version-keyed LRU.
    num_shards:
        When ``num_shards > 1``, batches are fanned out through a
        :class:`~repro.queries.sharding.ShardedQueryEngine` over the pinned
        view.  For updatable indexes the sharded wrapper is rebuilt when the
        pinned view changes (construction is cheap — pools spin up lazily
        and only for workloads above the serial cutoff); the previous
        wrapper is retired one swap later so an in-flight flush can finish
        on it.
    """

    def __init__(
        self,
        index: object,
        *,
        name: str = "default",
        cache_size: int = 0,
        num_shards: int = 1,
    ) -> None:
        if not callable(getattr(index, "query_batch", None)):
            raise QueryError(
                f"index {name!r} has no query_batch interface; "
                "the serving layer only fronts batch-capable indexes"
            )
        if num_shards < 1:
            raise QueryError(f"num_shards must be >= 1, got {num_shards}")
        self._index = index
        self.name = name
        self._num_shards = int(num_shards)
        self._updatable = callable(getattr(index, "snapshot", None))
        self._dims = int(getattr(index, "dims", 1))
        self._cache = ResultCache(cache_size) if cache_size > 0 else None
        self._obs = HostMetrics()
        # Shard timing persists across epoch swaps: the bundle outlives the
        # per-epoch ShardedQueryEngine wrappers it is handed to.
        from ..queries.sharding import ShardMetrics

        self._shard_metrics = ShardMetrics() if self._num_shards > 1 else None
        self._last_epoch: int | None = None
        # (pinned base object -> sharded wrapper); at most two generations
        # are kept alive so a flush evaluating on the old view can finish.
        self._sharded: list[tuple[object, Any]] = []
        # The single writer: one thread runs queued writes in arrival
        # order; the lock also orders direct insert()/compact() calls.
        self._write_lock = threading.Lock()
        self._writer: ThreadPoolExecutor | None = None
        self._queued_writes = 0
        self._accepting_writes = self._updatable
        if self._updatable:
            self._writer = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"repro-writer-{name}"
            )
            self._publish()
        else:
            serving = self._sharded_for(index) if self._num_shards > 1 else index
            self._published = PinnedView(serving=serving, epoch=0, version=0)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def index(self) -> object:
        """The hosted (live) index."""
        return self._index

    @property
    def dims(self) -> int:
        """Number of key dimensions (1 or 2); fixes the bounds arity."""
        return self._dims

    @property
    def updatable(self) -> bool:
        """Whether the hosted index accepts inserts."""
        return self._updatable

    @property
    def aggregate(self):
        """Aggregate the hosted index answers."""
        return getattr(self._index, "aggregate", None)

    def cache_info(self) -> CacheInfo | None:
        """Result-cache counters (None when caching is off)."""
        return None if self._cache is None else self._cache.info()

    def cache_clear(self) -> None:
        """Drop cached batch answers (no-op when caching is off)."""
        if self._cache is not None:
            self._cache.clear()

    def _identity(self) -> dict:
        """Epoch, version and sizes: published for an updatable index,
        read off a static one (which never changes)."""
        if self._updatable:
            view = self._published
            return {"epoch": view.epoch, "version": view.version, **view.sizes}
        index = self._index
        return {
            "epoch": int(getattr(index, "epoch", 0)),
            "version": int(getattr(index, "version", 0)),
            **_shape(index),
        }

    def info(self) -> dict:
        """JSON-friendly description for the server's ``/stats`` endpoint."""
        aggregate = self.aggregate
        return {
            "name": self.name,
            "aggregate": getattr(aggregate, "value", None),
            "dims": self._dims,
            "updatable": self._updatable,
            "num_shards": self._num_shards,
            "cache": None if self._cache is None else self._cache.info().as_dict(),
            **self._identity(),
        }

    def health_info(self) -> dict:
        """Liveness-relevant identity for the server's ``/healthz`` endpoint.

        Cheaper than :meth:`info`: identity integers only, no cache or
        knob introspection.  ``wal_lag`` is the number of insert records
        appended since the last checkpoint seal — what a restart would
        replay right now.
        """
        identity = self._identity()
        payload: dict = {"epoch": identity["epoch"], "version": identity["version"]}
        if "buffer_size" in identity:
            payload["buffer_size"] = identity["buffer_size"]
        wal = getattr(self._index, "wal", None)
        lag = getattr(wal, "records_since_seal", None)
        if lag is not None:
            payload["wal_lag"] = int(lag)
        return payload

    def metrics_families(self) -> list:
        """Every metric family this host can vouch for, for registration.

        Includes the host's own bundle, the result cache's, the shard
        wrapper's, and — when the hosted index exposes
        ``metrics_families`` (updatable indexes, fleets) — the index's.
        Entries may be ``(family, labels)`` tuples (fleet partitions).
        """
        families: list = list(self._obs.families())
        if self._shard_metrics is not None:
            families.extend(self._shard_metrics.families())
        if self._cache is not None:
            families.extend(self._cache.metrics_families())
        index_families = getattr(self._index, "metrics_families", None)
        if callable(index_families):
            families.extend(index_families())
        return families

    # ------------------------------------------------------------------ #
    # Read path (pin on the loop, execute on a worker)
    # ------------------------------------------------------------------ #

    def pin(self) -> PinnedView:
        """The most recently published serving view (loop thread).

        One attribute read: every batch evaluated against the returned
        view sees exactly one published state.
        """
        self._obs.pins.inc()
        view = self._published
        if not self._updatable:
            return view
        if view.epoch != self._last_epoch:
            if self._last_epoch is not None:
                self._obs.epoch_swaps.inc()
            self._last_epoch = view.epoch
        self._obs.epoch.set(view.epoch)
        self._obs.version.set(view.version)
        if self._num_shards > 1:
            return replace(view, serving=self._sharded_for(view.serving))
        return view

    def execute(
        self,
        view: PinnedView,
        bounds: tuple[np.ndarray, ...],
        guarantee: Guarantee | None = None,
        trace: Trace | None = None,
    ) -> BatchQueryResult:
        """Evaluate one batch against a pinned view, through the cache.

        Worker-thread safe: the view is frozen and the cache locks
        internally.  Answers are bit-identical to calling the pinned
        engine's ``query_batch`` directly (a cache hit replays exactly such
        an answer for the same version and bounds).

        When ``trace`` is given it records a ``cache_probe`` span here and
        is forwarded into engines that advertise ``supports_trace``
        (sharded wrappers, fleet routers) for fan-out detail; other
        engines get a single ``engine_exec`` span.  Tracing never changes
        the computation, only observes its timeline.
        """
        if len(bounds) != 2 * self._dims:
            raise QueryError(
                f"index {self.name!r} expects {2 * self._dims} bound arrays, "
                f"got {len(bounds)}"
            )
        serving = view.serving
        if self._cache is None:
            return self._run_engine(serving, bounds, guarantee, trace)
        key = ResultCache.make_key(view.version, guarantee, bounds)
        if trace is not None:
            probe_start = trace.now()
            cached = self._cache.get(key)
            trace.add_span("cache_probe", probe_start, trace.now(), hit=cached is not None)
        else:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        answer = self._run_engine(serving, bounds, guarantee, trace)
        self._cache.put(key, answer)
        return answer

    @staticmethod
    def _run_engine(
        serving: Any,
        bounds: tuple[np.ndarray, ...],
        guarantee: Guarantee | None,
        trace: Trace | None,
    ) -> BatchQueryResult:
        if trace is None:
            return serving.query_batch(*bounds, guarantee=guarantee)
        if getattr(serving, "supports_trace", False):
            return serving.query_batch(*bounds, guarantee=guarantee, trace=trace)
        with trace.span("engine_exec"):
            return serving.query_batch(*bounds, guarantee=guarantee)

    # ------------------------------------------------------------------ #
    # Write path (the single writer)
    # ------------------------------------------------------------------ #

    def insert(self, *columns: np.ndarray, measures: np.ndarray | None = None) -> int:
        """Insert records into an updatable index and publish the result.

        ``columns`` are the index's coordinate columns: ``keys`` for a 1-D
        host, ``xs, ys`` for a 2-D one.  Runs on the calling thread,
        serialized with queued writes; the server uses :meth:`submit_write`.
        """
        self._require_updatable("insert")
        return self._apply("insert", columns, measures)[0]

    def compact(self) -> bool:
        """Fold the delta buffer into the base and publish the new epoch.

        Views pinned before the compaction keep serving their frozen
        overlay; the next :meth:`pin` picks up the new epoch.
        """
        self._require_updatable("compact")
        return self._apply("compact")[0]

    async def submit_write(
        self,
        op: str,
        *columns: np.ndarray,
        measures: np.ndarray | None = None,
        max_queued: int | None = None,
    ) -> tuple[Any, PinnedView]:
        """Run one ``"insert"`` or ``"compact"`` on the writer thread.

        Returns the write's result (records inserted, or whether the
        compaction changed anything) and the view it published.  Writes run
        in submission order, each inside a copy of the submitter's context
        (tracing stays parented to the request).  With ``max_queued`` set, a
        write that would find that many already queued fails fast with
        :class:`~repro.errors.ServerOverloadedError`, as does any write
        after :meth:`drain_writes`.
        """
        if op not in ("insert", "compact"):
            raise QueryError(f"unknown write {op!r}; expected 'insert' or 'compact'")
        self._require_updatable(op)
        if not self._accepting_writes:
            raise ServerOverloadedError(f"index {self.name!r} is shutting down")
        if max_queued is not None and self._queued_writes >= max_queued:
            raise ServerOverloadedError(
                f"admission control: {self._queued_writes} writes already queued "
                f"on index {self.name!r} (max_pending={max_queued})"
            )
        loop = asyncio.get_running_loop()
        context = contextvars.copy_context()
        self._queued_writes += 1
        try:
            return await loop.run_in_executor(
                self._writer, context.run, self._apply, op, columns, measures
            )
        finally:
            self._queued_writes -= 1

    async def drain_writes(self) -> None:
        """Refuse new writes, then wait until every queued one has published."""
        self._accepting_writes = False
        if self._writer is not None:
            # A barrier: it runs after every write queued before it.
            await asyncio.get_running_loop().run_in_executor(self._writer, lambda: None)

    def _apply(
        self,
        op: str,
        columns: tuple = (),
        measures: np.ndarray | None = None,
    ) -> tuple[Any, PinnedView]:
        """Mutate the index, then publish; returns (result, published view)."""
        index: Any = self._index
        with self._write_lock:
            try:
                if op == "insert":
                    result = int(index.insert(*columns, measures=measures))
                else:
                    result = bool(index.compact())
            finally:
                # Publish even when the write failed part-way (say, an
                # auto-compaction after the insert applied): the view must
                # match the index.
                view = self._publish()
        return result, view

    def _publish(self) -> PinnedView:
        """Build the serving view of the index as it is now and store it."""
        index: Any = self._index
        serving = index.snapshot()
        view = PinnedView(
            serving=serving,
            epoch=int(getattr(serving, "epoch", getattr(index, "epoch", 0))),
            version=int(getattr(index, "version", 0)),
            sizes={"buffer_size": int(getattr(index, "buffer_size", 0)), **_shape(index)},
        )
        self._published = view
        return view

    def _require_updatable(self, op: str) -> None:
        if not self._updatable:
            raise NotSupportedError(
                f"index {self.name!r} is immutable; {op} requires an updatable index"
            )

    # ------------------------------------------------------------------ #
    # Sharded wrapper lifecycle
    # ------------------------------------------------------------------ #

    def _sharded_for(self, pinned: object):
        """Sharded wrapper for one pinned base, with keep-2 retirement."""
        for base, engine in self._sharded:
            if base is pinned:
                return engine
        from ..queries.sharding import ShardedQueryEngine

        engine = ShardedQueryEngine(
            index=pinned,
            num_shards=self._num_shards,
            metrics=self._shard_metrics,
        )
        self._sharded.append((pinned, engine))
        while len(self._sharded) > 2:
            _, retired = self._sharded.pop(0)
            retired.close()
        return engine

    def close(self) -> None:
        """Finish queued writes, release any sharded worker pools and close
        the hosted index (an updatable index syncs and closes its WAL);
        idempotent."""
        self._accepting_writes = False
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.shutdown(wait=True)
        while self._sharded:
            _, engine = self._sharded.pop()
            engine.close()
        close_index = getattr(self._index, "close", None)
        if callable(close_index):
            close_index()

    def __enter__(self) -> "EngineHost":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _shape(index: object) -> dict:
    """The index's ``num_segments`` and ``num_partitions``, where it has them."""
    shape = {}
    for name in ("num_segments", "num_partitions"):
        value = getattr(index, name, None)
        if value is not None:
            shape[name] = int(value)
    return shape
