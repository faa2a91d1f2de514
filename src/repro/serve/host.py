"""Engine hosting for the serving layer: epoch pinning and knob wiring.

:class:`EngineHost` owns one index on behalf of the server.  It is the
bridge between the asyncio front-end (single-threaded, mutation-ordering
authority) and the NumPy batch engines (executed on worker threads):

* **Epoch pinning** — :meth:`pin` captures an immutable serving view of the
  index *at one instant*: updatable indexes are pinned through their frozen
  per-epoch :meth:`snapshot` overlay, static indexes serve themselves.  A
  coalesced batch is evaluated entirely against the view pinned at flush
  time, so every answer in it is consistent with exactly one epoch — writes
  landing mid-evaluation produce a *new* overlay for the next flush and
  never mutate a pinned one.  Epoch swaps (compactions) therefore never drop
  or tear in-flight requests.
* **Knob wiring** — ``cache_size`` enables the version-keyed
  :class:`~repro.queries.cache.ResultCache` (keyed on the *live* write
  version captured at pin time, so inserts and compactions invalidate
  cached answers), and ``num_shards`` fans large batches out over a thread
  pool through :class:`~repro.queries.sharding.ShardedQueryEngine`.

Thread-safety contract: :meth:`pin`, :meth:`insert` and :meth:`compact` must
be called from the event-loop thread (they observe/advance the mutation
order); :meth:`execute` is safe to call from worker threads because it only
touches the frozen view and the (internally locked) result cache.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import NotSupportedError, QueryError
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

    def __init__(self, *, enabled: bool = True) -> None:
        self._fam_pins = counter_family(
            "repro_host_pins_total",
            "Serving views pinned (one per coalesced flush).",
            enabled=enabled,
        )
        self._fam_swaps = counter_family(
            "repro_host_epoch_swaps_total",
            "Epoch changes observed at pin time (compaction publications).",
            enabled=enabled,
        )
        self._fam_epoch = gauge_family(
            "repro_host_epoch",
            "Flush epoch of the most recently pinned view.",
            enabled=enabled,
        )
        self._fam_version = gauge_family(
            "repro_host_write_version",
            "Live write version captured at the most recent pin.",
            enabled=enabled,
        )
        self.pins = self._fam_pins.labels()
        self.epoch_swaps = self._fam_swaps.labels()
        self.epoch = self._fam_epoch.labels()
        self.version = self._fam_version.labels()

    def families(self) -> list:
        return [
            family
            for family in (
                self._fam_pins,
                self._fam_swaps,
                self._fam_epoch,
                self._fam_version,
            )
            if getattr(family, "enabled", False)
        ]


@dataclass(frozen=True)
class PinnedView:
    """One immutable serving view: the pinned engine plus its identity.

    ``serving`` exposes ``query_batch``; ``version`` is the owning index's
    live write counter at pin time (the cache key) and ``epoch`` its flush
    epoch (what responses report).  For static indexes both are 0.
    """

    serving: Any
    epoch: int
    version: int


class EngineHost:
    """Hosts one index for the server: pinning, caching, knob wiring.

    Parameters
    ----------
    index:
        Any index exposing ``query_batch`` (static or updatable, 1-D or
        2-D).  Updatable indexes (anything with a callable ``snapshot``)
        additionally get the epoch-pinned read path and the write
        endpoints.
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
    instrument:
        When False, disables every instrument this host owns (its own
        bundle, the result cache's, the shard wrapper's) for overhead A/B
        runs.  Index-level instruments (WAL, compaction) belong to the
        index and are unaffected.
    """

    def __init__(
        self,
        index: object,
        *,
        name: str = "default",
        cache_size: int = 0,
        num_shards: int = 1,
        instrument: bool = True,
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
        self._dims = _query_dims(index)
        self._cache = (
            ResultCache(cache_size, instrument=instrument) if cache_size > 0 else None
        )
        self._obs = HostMetrics(enabled=instrument)
        # Shard timing persists across epoch swaps: the bundle outlives the
        # per-epoch ShardedQueryEngine wrappers it is handed to.
        from ..queries.sharding import ShardMetrics

        self._shard_metrics = (
            ShardMetrics() if instrument and self._num_shards > 1 else None
        )
        self._last_epoch: int | None = None
        # (pinned base object -> sharded wrapper); at most two generations
        # are kept alive so a flush evaluating on the old view can finish.
        self._sharded: list[tuple[object, Any]] = []
        if not self._updatable and self._num_shards > 1:
            self._sharded_for(index)

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

    def info(self) -> dict:
        """JSON-friendly description for the server's ``/stats`` endpoint."""
        index = self._index
        aggregate = self.aggregate
        payload = {
            "name": self.name,
            "aggregate": getattr(aggregate, "value", None),
            "dims": self._dims,
            "updatable": self._updatable,
            "epoch": int(getattr(index, "epoch", 0)),
            "version": int(getattr(index, "version", 0)),
            "num_shards": self._num_shards,
            "cache": None if self._cache is None else self._cache.info().as_dict(),
        }
        if self._updatable:
            payload["buffer_size"] = int(getattr(index, "buffer_size", 0))
        num_segments = getattr(index, "num_segments", None)
        if num_segments is not None:
            payload["num_segments"] = int(num_segments)
        num_partitions = getattr(index, "num_partitions", None)
        if num_partitions is not None:
            payload["num_partitions"] = int(num_partitions)
        return payload

    def health_info(self) -> dict:
        """Liveness-relevant identity for the server's ``/healthz`` endpoint.

        Cheaper than :meth:`info`: identity integers only, no cache or
        knob introspection.  ``wal_lag`` is the number of insert records
        appended since the last checkpoint seal — what a restart would
        replay right now.
        """
        index = self._index
        payload: dict = {
            "epoch": int(getattr(index, "epoch", 0)),
            "version": int(getattr(index, "version", 0)),
        }
        if self._updatable:
            payload["buffer_size"] = int(getattr(index, "buffer_size", 0))
        wal = getattr(index, "wal", None)
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
        """Capture the current epoch as an immutable serving view.

        Loop-thread only: capturing ``(snapshot, version)`` here, between
        mutations, is what makes every coalesced batch single-epoch.
        """
        self._obs.pins.inc()
        if not self._updatable:
            serving = self._sharded[-1][1] if self._sharded else self._index
            return PinnedView(serving=serving, epoch=0, version=0)
        overlay = self._index.snapshot()  # type: ignore[attr-defined]
        version = int(getattr(self._index, "version", 0))
        epoch = int(getattr(overlay, "epoch", getattr(self._index, "epoch", 0)))
        if epoch != self._last_epoch:
            if self._last_epoch is not None:
                self._obs.epoch_swaps.inc()
            self._last_epoch = epoch
        self._obs.epoch.set(epoch)
        self._obs.version.set(version)
        serving: Any = overlay
        if self._num_shards > 1:
            serving = self._sharded_for(overlay)
        return PinnedView(serving=serving, epoch=epoch, version=version)

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
        (sharded wrappers, fleet snapshots) for fan-out detail; other
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
    # Write path (loop thread)
    # ------------------------------------------------------------------ #

    def insert(self, keys: np.ndarray, measures: np.ndarray | None = None) -> int:
        """Insert records into an updatable index (loop-thread only)."""
        self._require_updatable("insert")
        return int(self._index.insert(keys, measures))  # type: ignore[attr-defined]

    def compact(self) -> bool:
        """Fold the delta buffer into the base (loop-thread only).

        The swap is publication-only from the readers' perspective: views
        pinned before the compaction keep serving their frozen overlay, the
        next :meth:`pin` picks up the new epoch.
        """
        self._require_updatable("compact")
        return bool(self._index.compact())  # type: ignore[attr-defined]

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
        """Release any sharded worker pools (idempotent)."""
        while self._sharded:
            _, engine = self._sharded.pop()
            engine.close()

    def __enter__(self) -> "EngineHost":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _query_dims(index: object) -> int:
    """Key dimensionality from the ``query_batch`` signature (2 or 4 bounds)."""
    try:
        parameters = inspect.signature(index.query_batch).parameters  # type: ignore[attr-defined]
    except (TypeError, ValueError):
        return 1
    positional = [
        p
        for p in parameters.values()
        if p.name != "guarantee"
        and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    return 2 if len(positional) >= 4 else 1
