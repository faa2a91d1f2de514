"""The fleet facade: partitioned ownership, routed reads, rebalanced writes.

:class:`IndexFleet` composes the fleet pieces into one index-shaped object:

* a :class:`~repro.fleet.map.PartitionMap` owns routing,
* one :class:`~repro.fleet.partition.Partition` per range owns storage
  (its own updatable index, buffer, compaction policy and epoch),
* a :class:`~repro.fleet.router.FleetRouter` over a consistent set of
  frozen partition views answers batches with the scatter-gather merge,
* a :class:`~repro.fleet.policy.FleetPolicy` decides when :meth:`split` /
  :meth:`merge` rebalance by size.

Reads never pause for writes: :meth:`snapshot` returns a frozen
:class:`~repro.fleet.router.FleetRouter` (map + views, all immutable,
stamped with the fleet's epoch and version), and a compaction, split or
merge only swaps what the *next* snapshot sees.  The facade exposes the
same surface as a single updatable index (the
:class:`~repro.queries.batch.SnapshotReads` read calls, ``insert`` /
``compact``, ``snapshot`` / ``epoch`` / ``version``), so
:class:`~repro.serve.host.EngineHost` hosts a fleet without knowing it is
one.

:class:`Fleet2D` is the static two-key variant: x-axis partitions of
:class:`~repro.index.polyfit2d.PolyFit2DIndex`, rectangle clipping on the
x side only, cumulative merge (2-D PolyFit answers COUNT/SUM).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..config import Aggregate, IndexConfig
from ..errors import DataError, QueryError
from ..index.guarantees import delta_for_absolute
from ..index.polyfit2d import PolyFit2DIndex
from ..queries.batch import CertifiedView, SnapshotReads, validate_bounds_batch
from ..queries.types import Guarantee
from ..config import GuaranteeKind
from .map import PartitionMap
from .partition import Partition
from .policy import FleetPolicy
from .router import FleetMetrics, FleetRouter

__all__ = ["IndexFleet", "Fleet2D"]


class IndexFleet(SnapshotReads):
    """Horizontally partitioned updatable index with scatter-gather routing.

    Build with :meth:`build` (records plus either explicit ``splits`` or a
    ``num_partitions`` count that picks balanced distinct-key quantiles).
    The fleet then behaves like one big updatable index — queries merge
    partial answers under certified bounds, writes route by key, and
    oversize partitions split (undersize neighbours merge) under the
    :class:`~repro.fleet.policy.FleetPolicy` without pausing reads.
    """

    def __init__(
        self,
        partition_map: PartitionMap,
        partitions: list[Partition],
        aggregate: Aggregate,
        *,
        delta: float,
        config: IndexConfig | None = None,
        policy: FleetPolicy | None = None,
        num_shards: int = 1,
        failure_policy: str = "fail_fast",
    ) -> None:
        if len(partitions) != partition_map.num_partitions:
            raise DataError(
                f"partition map expects {partition_map.num_partitions} "
                f"partitions, got {len(partitions)}"
            )
        self._map = partition_map
        self._partitions = list(partitions)
        self._aggregate = aggregate
        self._delta = float(delta)
        self._config = config
        self._policy = policy or FleetPolicy()
        self._num_shards = int(num_shards)
        if failure_policy not in ("fail_fast", "degrade"):
            raise DataError(
                f"failure_policy must be 'fail_fast' or 'degrade', "
                f"got {failure_policy!r}"
            )
        self._failure_policy = failure_policy
        self._epoch = 0
        self._version = 0
        # One bundle for the fleet's lifetime: routers are rebuilt per
        # snapshot but share these instruments, so fan-out latency and
        # degrade counters accumulate across snapshot swaps.
        self._metrics = FleetMetrics()
        # Current snapshot plus one retired generation, so a reader pinned
        # on the previous snapshot can finish while the next one serves.
        self._snapshots: list[FleetRouter] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        measures: np.ndarray | None = None,
        aggregate: Aggregate = Aggregate.COUNT,
        *,
        delta: float | None = None,
        guarantee: Guarantee | None = None,
        config: IndexConfig | None = None,
        policy: FleetPolicy | None = None,
        splits: np.ndarray | list[float] | None = None,
        num_partitions: int = 4,
        num_shards: int = 1,
        failure_policy: str = "fail_fast",
    ) -> "IndexFleet":
        """Build a fleet from raw records.

        Parameters
        ----------
        keys, measures:
            The dataset (``measures`` optional for COUNT).
        aggregate:
            COUNT, SUM, MAX or MIN — all partitions answer the same one.
        delta, guarantee:
            Per-segment fitting budget, directly or derived from an
            *absolute* guarantee (Lemmas 2/4), exactly like
            :meth:`~repro.index.polyfit1d.PolyFitIndex.build`.  The budget
            is shared by every partition.
        config:
            Index configuration shared by every partition.
        policy:
            Split/merge/compaction policy (manual-only by default).
        splits:
            Explicit split keys; overrides ``num_partitions``.
        num_partitions:
            When ``splits`` is omitted, partition boundaries are placed at
            balanced quantiles of the *distinct* keys (duplicate-heavy data
            cannot force empty partitions).
        num_shards:
            Query-parallelism applied under the fan-out (each partition
            view wrapped in a :class:`~repro.queries.sharding.
            ShardedQueryEngine` when ``num_shards > 1``).
        """
        if delta is None:
            if guarantee is None:
                raise QueryError("provide either delta or an absolute guarantee")
            if guarantee.kind is not GuaranteeKind.ABSOLUTE:
                raise QueryError(
                    "only absolute guarantees determine delta at build time; "
                    "pass delta explicitly for relative-error workloads"
                )
            delta = delta_for_absolute(guarantee.epsilon, aggregate, num_keys=1)
        keys = np.atleast_1d(np.asarray(keys, dtype=np.float64))
        if keys.size == 0:
            raise DataError("cannot build a fleet from an empty dataset")
        if not np.all(np.isfinite(keys)):
            raise DataError("keys contain NaN or infinite values")
        measures_arr = None
        if measures is not None:
            measures_arr = np.atleast_1d(np.asarray(measures, dtype=np.float64))
            if measures_arr.shape != keys.shape:
                raise DataError("keys and measures must have equal length")
        if splits is None:
            splits = _quantile_splits(keys, num_partitions)
        partition_map = PartitionMap(splits)
        policy = policy or FleetPolicy()
        pids = partition_map.locate(keys)
        partitions = []
        for pid in range(partition_map.num_partitions):
            mask = pids == pid
            partitions.append(
                Partition.from_records(
                    keys[mask],
                    None if measures_arr is None else measures_arr[mask],
                    aggregate,
                    delta=delta,
                    config=config,
                    compaction=policy.compaction,
                )
            )
        return cls(
            partition_map,
            partitions,
            aggregate,
            delta=delta,
            config=config,
            policy=policy,
            num_shards=num_shards,
            failure_policy=failure_policy,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the fleet answers."""
        return self._aggregate

    @property
    def delta(self) -> float:
        """Shared per-segment fitting budget."""
        return self._delta

    @property
    def config(self) -> IndexConfig | None:
        """Shared index configuration."""
        return self._config

    @property
    def policy(self) -> FleetPolicy:
        """The split/merge/compaction policy."""
        return self._policy

    @property
    def failure_policy(self) -> str:
        """Partition failure policy routers are built with (see FleetRouter)."""
        return self._failure_policy

    @property
    def partition_map(self) -> PartitionMap:
        """Current routing state."""
        return self._map

    @property
    def partitions(self) -> tuple[Partition, ...]:
        """Current partitions, in key order (read-only view)."""
        return tuple(self._partitions)

    @property
    def num_partitions(self) -> int:
        """Number of partitions."""
        return len(self._partitions)

    @property
    def epoch(self) -> int:
        """Structural epoch: bumped by splits, merges and compactions."""
        return self._epoch

    @property
    def version(self) -> int:
        """Monotone write counter: bumped by every visible mutation."""
        return self._version

    @property
    def buffer_size(self) -> int:
        """Total records sitting in partition delta buffers."""
        return sum(partition.buffer_size for partition in self._partitions)

    @property
    def num_segments(self) -> int:
        """Total base segments across partitions."""
        return sum(partition.num_segments for partition in self._partitions)

    @property
    def num_keys(self) -> int:
        """Total distinct base keys plus buffered records."""
        return sum(partition.num_keys for partition in self._partitions)

    def size_in_bytes(self) -> int:
        """Estimated total in-memory footprint of all partitions."""
        return sum(partition.size_in_bytes() for partition in self._partitions)

    def stats(self) -> dict[str, Any]:
        """JSON-friendly fleet description (``fleet-stats`` / ``/stats``)."""
        return {
            "aggregate": self._aggregate.value,
            "delta": self._delta,
            "num_partitions": self.num_partitions,
            "splits": self._map.to_payload(),
            "epoch": self._epoch,
            "version": self._version,
            "num_keys": self.num_keys,
            "num_segments": self.num_segments,
            "buffer_size": self.buffer_size,
            "size_in_bytes": self.size_in_bytes(),
            "policy": self._policy.to_payload(),
            "partitions": [
                {
                    "pid": pid,
                    "lower_bound": self._map.lower_bound(pid),
                    "upper_bound": self._map.upper_bound(pid),
                    "empty": partition.is_empty,
                    "num_keys": partition.num_keys,
                    "num_segments": partition.num_segments,
                    "buffer_size": partition.buffer_size,
                    "epoch": partition.epoch,
                    "version": partition.version,
                    "size_in_bytes": partition.size_in_bytes(),
                }
                for pid, partition in enumerate(self._partitions)
            ],
        }

    def metrics_families(self) -> list:
        """Fleet + per-partition metric families for registry registration.

        Partition-level families (compaction, WAL) are tagged with the
        partition id they held at registration time; indexes created by a
        later split/merge pick up fresh families that a re-registration
        would cover, so long-lived servers should scrape the fleet-level
        families for rebalance-proof series.
        """
        fams: list = list(self._metrics.families())
        for pid, partition in enumerate(self._partitions):
            per_index = getattr(partition.index, "metrics_families", None)
            if callable(per_index):
                fams.extend((fam, {"partition": str(pid)}) for fam in per_index())
        return fams

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def snapshot(self) -> FleetRouter:
        """Frozen serving view of the current state (cached until a mutation).

        The router is stamped with the fleet's epoch and version.  The
        previous one is retired one generation later (its sharded pools
        closed), mirroring :class:`~repro.serve.host.EngineHost`'s keep-2
        discipline, so an in-flight batch pinned on it can finish.
        """
        if self._snapshots and self._snapshots[-1].version == self._version:
            return self._snapshots[-1]
        router = FleetRouter(
            self._map,
            [partition.snapshot() for partition in self._partitions],
            self._aggregate,
            num_shards=self._num_shards,
            failure_policy=self._failure_policy,
            metrics=self._metrics,
            epoch=self._epoch,
            version=self._version,
        )
        self._snapshots.append(router)
        while len(self._snapshots) > 2:
            self._snapshots.pop(0).close()
        return router

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def insert(self, keys: np.ndarray, measures: np.ndarray | None = None) -> int:
        """Insert records, routed by key to their owning partitions.

        Returns the number of records inserted.  With ``policy.auto`` the
        fleet rebalances afterwards (oversize partitions split at their
        median distinct key).  Keys are validated up front so a bad chunk
        is rejected whole, never partially applied.
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.float64))
        if keys.size == 0:
            return 0
        if not np.all(np.isfinite(keys)):
            raise DataError("inserted keys contain NaN or infinite values")
        measures_arr = None
        if measures is not None:
            measures_arr = np.atleast_1d(np.asarray(measures, dtype=np.float64))
            if measures_arr.shape != keys.shape:
                raise DataError("inserted keys and measures must have equal length")
        pids = self._map.locate(keys)
        total = 0
        for pid in np.unique(pids):
            mask = pids == pid
            total += self._partitions[int(pid)].insert(
                keys[mask], None if measures_arr is None else measures_arr[mask]
            )
        if total:
            self._version += 1
            if self._policy.auto:
                self.rebalance()
        return total

    def compact(self) -> bool:
        """Compact every partition with a non-empty buffer; True if any did."""
        changed = [partition.compact() for partition in self._partitions]
        if any(changed):
            self._epoch += 1
            self._version += 1
            return True
        return False

    # ------------------------------------------------------------------ #
    # Rebalancing
    # ------------------------------------------------------------------ #

    def split(self, pid: int, key: float | None = None) -> float:
        """Split partition ``pid`` at ``key`` (default: median distinct key).

        Rebuilds the two halves from the partition's canonical records and
        returns the split key used.  Only this partition's key range is
        touched; readers pinned on an earlier snapshot are unaffected.
        """
        partition = self._partitions[self._map._check_pid(pid)]  # noqa: SLF001 - shared validation
        keys, measures = partition.records()
        if key is None:
            distinct = np.unique(keys)
            if distinct.size < 2:
                raise DataError(
                    f"partition {pid} has fewer than 2 distinct keys; cannot split"
                )
            key = float(distinct[distinct.size // 2])
        new_map = self._map.with_split(pid, key)  # validates key's range
        left_mask = keys < key
        halves = [
            Partition.from_records(
                keys[mask],
                None if measures is None else measures[mask],
                self._aggregate,
                delta=self._delta,
                config=self._config,
                compaction=self._policy.compaction,
            )
            for mask in (left_mask, ~left_mask)
        ]
        self._partitions[pid : pid + 1] = halves
        self._map = new_map
        self._epoch += 1
        self._version += 1
        return float(key)

    def merge(self, pid: int) -> None:
        """Merge partitions ``pid`` and ``pid + 1`` into one.

        Rebuilds the union from both partitions' canonical records and
        drops the split key between them.
        """
        new_map = self._map.with_merge(pid)  # validates pid has a neighbour
        left, right = self._partitions[pid], self._partitions[pid + 1]
        left_keys, left_measures = left.records()
        right_keys, right_measures = right.records()
        keys = np.concatenate((left_keys, right_keys))
        measures = (
            None
            if left_measures is None
            else np.concatenate((left_measures, right_measures))
        )
        merged = Partition.from_records(
            keys,
            measures,
            self._aggregate,
            delta=self._delta,
            config=self._config,
            compaction=self._policy.compaction,
        )
        self._partitions[pid : pid + 2] = [merged]
        self._map = new_map
        self._epoch += 1
        self._version += 1

    def rebalance(self) -> int:
        """Apply the policy until stable; returns the number of operations.

        Splits run first (each strictly reduces a partition's distinct-key
        count, so the loop terminates), then adjacent merges.  The policy
        constructor guarantees ``merge_keys < max_keys``, so a merge never
        produces an immediately re-splittable partition.
        """
        operations = 0
        pid = 0
        while pid < self.num_partitions:
            partition = self._partitions[pid]
            if self._policy.should_split(
                partition.num_keys, partition.size_in_bytes()
            ):
                try:
                    self.split(pid)
                except DataError:
                    pid += 1  # a single distinct key cannot split further
                    continue
                operations += 1
                continue  # re-examine the left half at the same pid
            pid += 1
        pid = 0
        while pid < self.num_partitions - 1:
            combined = (
                self._partitions[pid].num_keys + self._partitions[pid + 1].num_keys
            )
            if self._policy.should_merge(combined):
                self.merge(pid)
                operations += 1
                continue  # the merged partition may absorb the next neighbour
            pid += 1
        return operations

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release all snapshot pools (idempotent)."""
        while self._snapshots:
            self._snapshots.pop().close()

    def __enter__(self) -> "IndexFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _quantile_splits(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Balanced split keys at distinct-key quantiles.

    Working on distinct keys (not raw records) guarantees strictly
    increasing splits; heavy duplication skews partition *record* counts,
    which the size policy then corrects at runtime.  Fewer distinct keys
    than partitions yields as many splits as the data supports.
    """
    if num_partitions < 1:
        raise DataError(f"num_partitions must be >= 1, got {num_partitions}")
    distinct = np.unique(keys)
    if num_partitions == 1 or distinct.size < 2:
        return np.empty(0, dtype=np.float64)
    positions = np.unique(
        (np.arange(1, num_partitions) * distinct.size) // num_partitions
    )
    positions = positions[positions > 0]
    return np.unique(distinct[positions])


class Fleet2D(CertifiedView):
    """Static x-partitioned fleet of two-key PolyFit indexes (COUNT/SUM).

    Partitions the plane into vertical slabs by the first key: each slab
    owns its own :class:`~repro.index.polyfit2d.PolyFit2DIndex`, a query
    rectangle is clipped against the slabs it straddles on the x side
    (the y side is never split), and partial answers add — the cumulative
    merge algebra, with per-query bounds summing across straddled slabs.
    """

    dims = 2

    def __init__(
        self,
        partition_map: PartitionMap,
        indexes: list[PolyFit2DIndex | None],
        aggregate: Aggregate,
        *,
        delta: float,
    ) -> None:
        if len(indexes) != partition_map.num_partitions:
            raise DataError(
                f"partition map expects {partition_map.num_partitions} indexes, "
                f"got {len(indexes)}"
            )
        self._map = partition_map
        self._indexes = list(indexes)
        self._aggregate = aggregate
        self._delta = float(delta)

    @classmethod
    def build(
        cls,
        xs: np.ndarray,
        ys: np.ndarray,
        measures: np.ndarray | None = None,
        *,
        aggregate: Aggregate = Aggregate.COUNT,
        delta: float | None = None,
        guarantee: Guarantee | None = None,
        splits: np.ndarray | list[float] | None = None,
        num_partitions: int = 2,
        **build_kwargs: Any,
    ) -> "Fleet2D":
        """Build x-axis slabs from point records.

        ``splits``/``num_partitions`` behave as in :meth:`IndexFleet.build`
        but partition the *x* coordinate; remaining keyword arguments are
        forwarded to :meth:`~repro.index.polyfit2d.PolyFit2DIndex.build`.
        Slabs holding no points stay index-less and answer zeros.
        """
        if delta is None:
            if guarantee is None:
                raise QueryError("provide either delta or an absolute guarantee")
            if guarantee.kind is not GuaranteeKind.ABSOLUTE:
                raise QueryError(
                    "only absolute guarantees determine delta at build time; "
                    "pass delta explicitly for relative-error workloads"
                )
            delta = delta_for_absolute(guarantee.epsilon, aggregate, num_keys=2)
        xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        ys = np.atleast_1d(np.asarray(ys, dtype=np.float64))
        if xs.shape != ys.shape:
            raise DataError("xs and ys must have equal length")
        if xs.size == 0:
            raise DataError("cannot build a fleet from an empty dataset")
        measures_arr = None
        if measures is not None:
            measures_arr = np.atleast_1d(np.asarray(measures, dtype=np.float64))
            if measures_arr.shape != xs.shape:
                raise DataError("points and measures must have equal length")
        if splits is None:
            splits = _quantile_splits(xs, num_partitions)
        partition_map = PartitionMap(splits)
        pids = partition_map.locate(xs)
        indexes: list[PolyFit2DIndex | None] = []
        for pid in range(partition_map.num_partitions):
            mask = pids == pid
            if not mask.any():
                indexes.append(None)
                continue
            indexes.append(
                PolyFit2DIndex.build(
                    xs[mask],
                    ys[mask],
                    None if measures_arr is None else measures_arr[mask],
                    delta=delta,
                    aggregate=aggregate,
                    **build_kwargs,
                )
            )
        return cls(partition_map, indexes, aggregate, delta=delta)

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the fleet answers (COUNT or SUM)."""
        return self._aggregate

    @property
    def partition_map(self) -> PartitionMap:
        """The x-axis routing state."""
        return self._map

    @property
    def num_partitions(self) -> int:
        """Number of vertical slabs."""
        return len(self._indexes)

    def _plan(self, x_lows: np.ndarray, x_highs: np.ndarray):
        first = self._map.locate(x_lows)
        last = self._map.locate(x_highs)
        plans = []
        for pid in range(self._map.num_partitions):
            if self._indexes[pid] is None:
                continue  # empty slab: contributes the cumulative identity 0
            mask = (first <= pid) & (pid <= last)
            if not mask.any():
                continue
            indices = np.nonzero(mask)[0]
            clip_lows, clip_highs = self._map.clip(
                pid, x_lows[indices], x_highs[indices]
            )
            plans.append((pid, indices, clip_lows, clip_highs))
        return plans

    def _merged(
        self,
        method: str,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> np.ndarray:
        merged = np.zeros(x_lows.size, dtype=np.float64)
        for pid, indices, clip_lows, clip_highs in self._plan(x_lows, x_highs):
            target = getattr(self._indexes[pid], method)
            merged[indices] += target(
                clip_lows, clip_highs, y_lows[indices], y_highs[indices]
            )
        return merged

    def _bounds(self, x_lows: np.ndarray, x_highs: np.ndarray) -> np.ndarray:
        bounds = np.zeros(x_lows.size, dtype=np.float64)
        for pid, indices, _, _ in self._plan(x_lows, x_highs):
            bounds[indices] += self._indexes[pid].certified_bound
        return bounds

    def error_bounds_batch(
        self, x_lows: np.ndarray, x_highs: np.ndarray
    ) -> np.ndarray:
        """Per-query certified bounds (sum over straddled non-empty slabs)."""
        return self._bounds(*validate_bounds_batch(x_lows, x_highs))

    def _approx(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merged approximate answers and their per-query summed bounds."""
        values = self._merged("estimate_batch", x_lows, x_highs, y_lows, y_highs)
        return values, self._bounds(x_lows, x_highs)

    def _exact(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> np.ndarray:
        """Merged exact answers for N rectangles."""
        return self._merged("exact_batch", x_lows, x_highs, y_lows, y_highs)
