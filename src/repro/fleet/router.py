"""Scatter-gather query routing over a set of partition read views.

:class:`FleetRouter` turns one batch of range queries into per-partition
sub-batches and merges the partial answers back with the overlay combine
algebra:

* **scatter** — a query ``[low, high]`` overlaps exactly the partitions
  ``locate(low) .. locate(high)`` of the :class:`~repro.fleet.map.
  PartitionMap`; its rectangle is clipped against each partition's
  ownership range, so the clipped sub-ranges tile the query without
  overlap.  Planning is one vectorized ``searchsorted`` pair plus one
  boolean mask per partition — never a per-query loop.
* **gather** — cumulative partials (COUNT/SUM) start from zeros and *add*;
  extreme partials (MAX/MIN) start from NaN and combine with the NaN-aware
  ``np.fmax``/``np.fmin``, so a partition whose clip holds no keys answers
  NaN and simply drops out of the merge instead of poisoning it
  (``fmax(NaN, x) == x``; the merged answer is NaN only when *every*
  overlapping partition is empty over the clip — exactly the monolithic
  empty-range answer).
* **certificates** — the merged error bound is per query: the *sum* of the
  overlapping partitions' certified bounds for cumulative aggregates
  (partial errors add), their *max* for extremes.  The per-query bound
  array feeds the shared :func:`~repro.queries.batch.
  resolve_batch_certificates`, so the merged guarantee stays certified:
  relative certificates compare against the per-query bound and fall back
  to the merged exact answer when uncertified, exactly like a single
  PolyFit index.

With ``num_shards > 1`` each non-empty partition view is wrapped in a
:class:`~repro.queries.sharding.ShardedQueryEngine`, stacking
query-parallel execution under the data-parallel fan-out.

A router is a frozen plan over frozen views: build it from a consistent
set of partition snapshots and it keeps answering that epoch while the
live fleet compacts or rebalances.

**Failure policy.**  ``failure_policy="fail_fast"`` (the default) propagates
a partition's exception out of the batch — nobody gets a partial answer by
accident.  ``"degrade"`` keeps :meth:`FleetRouter.query_batch` answering
when a partition's scatter call raises: the failed partition's clip
contributes nothing to the merged value, and its worst-case contribution —
captured per partition at router construction (total mass for COUNT/SUM,
global extreme for MAX/MIN) — is folded into the per-query certified bound
instead.  The answer stays *certified*, just looser; affected queries are
flagged ``degraded`` and the failed partition ids are surfaced on the
result.  The plain ``estimate_batch``/``exact_batch`` methods stay
fail-fast even under ``degrade``: they return bare value arrays with no
bound column to widen, so a partial answer there would be a silent wrong
answer — exactly what the durability layer exists to rule out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import Aggregate, GuaranteeKind
from ..errors import DataError
from ..obs.metrics import counter_family, histogram_family
from ..queries.batch import resolve_batch_certificates, validate_bounds_batch
from ..queries.sharding import DEFAULT_MIN_QUERIES_PER_SHARD, ShardedQueryEngine
from ..queries.types import BatchQueryResult, Guarantee
from .map import PartitionMap
from .partition import EmptyPartitionView

__all__ = ["FleetMetrics", "FleetRouter", "PartitionPlan"]


class FleetMetrics:
    """Scatter-gather instruments, owned by the live fleet.

    Routers are frozen per fleet snapshot and rebuilt on every version
    bump, so :class:`~repro.fleet.fleet.IndexFleet` creates one bundle and
    threads it into each successive router — fan-out latency and degrade
    counters accumulate across snapshots.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.partition_seconds = histogram_family(
            "repro_fleet_partition_seconds",
            "Per-partition fan-out execution time in seconds",
            ("partition",),
            enabled=enabled,
        )
        self.degraded_answers_total = counter_family(
            "repro_fleet_degraded_answers_total",
            "Queries answered with widened bounds because a partition failed",
            enabled=enabled,
        )
        self.failed_partitions_total = counter_family(
            "repro_fleet_failed_partitions_total",
            "Partition failures observed by degrade-mode scatters",
            enabled=enabled,
        )

    def families(self) -> list:
        fams = [
            self.partition_seconds,
            self.degraded_answers_total,
            self.failed_partitions_total,
        ]
        return [f for f in fams if getattr(f, "enabled", False)]


@dataclass(frozen=True)
class PartitionPlan:
    """Sub-batch for one partition: which queries, with clipped bounds."""

    pid: int
    query_indices: np.ndarray
    lows: np.ndarray
    highs: np.ndarray


class FleetRouter:
    """Plan, fan out, and merge batch queries over partition views.

    Parameters
    ----------
    partition_map:
        Routing state; must have exactly one entry per view.
    views:
        One frozen read view per partition (a
        :class:`~repro.index.overlay.DirectoryOverlay` or an
        :class:`~repro.fleet.partition.EmptyPartitionView`), each exposing
        ``estimate_batch`` / ``exact_batch`` / ``certified_bound``.
    aggregate:
        The fleet's aggregate (decides the merge algebra).
    num_shards, min_queries_per_shard:
        Query-parallelism knobs: with ``num_shards > 1`` every non-empty
        view is wrapped in a
        :class:`~repro.queries.sharding.ShardedQueryEngine` with these
        settings (empty views answer O(1) identities and are never
        wrapped).
    failure_policy:
        ``"fail_fast"`` propagates partition exceptions; ``"degrade"``
        answers :meth:`query_batch` around failed partitions with widened
        certified bounds (see the module docstring).
    """

    def __init__(
        self,
        partition_map: PartitionMap,
        views: list,
        aggregate: Aggregate,
        *,
        num_shards: int = 1,
        min_queries_per_shard: int = DEFAULT_MIN_QUERIES_PER_SHARD,
        failure_policy: str = "fail_fast",
        metrics: FleetMetrics | None = None,
    ) -> None:
        if len(views) != partition_map.num_partitions:
            raise DataError(
                f"partition map expects {partition_map.num_partitions} views, "
                f"got {len(views)}"
            )
        if failure_policy not in ("fail_fast", "degrade"):
            raise DataError(
                f"failure_policy must be 'fail_fast' or 'degrade', got {failure_policy!r}"
            )
        self._map = partition_map
        self._views = list(views)
        self._aggregate = aggregate
        self._cumulative = aggregate.is_cumulative
        self._combine = np.fmax if aggregate is Aggregate.MAX else np.fmin
        self._failure_policy = failure_policy
        self._metrics = metrics
        self._sharded = num_shards > 1
        self._engines: list = []
        for view in self._views:
            if self._sharded and not isinstance(view, EmptyPartitionView):
                self._engines.append(
                    ShardedQueryEngine(
                        view,
                        num_shards=num_shards,
                        min_queries_per_shard=min_queries_per_shard,
                    )
                )
            else:
                self._engines.append(view)
        # Per-partition worst-case contributions, captured while the views
        # are healthy: the degrade path widens certified bounds with these
        # when a partition fails mid-query.  ``None`` = unknown (capture
        # itself failed) — affected queries get an infinite bound.
        self._reserves: list[float | None] = (
            [self._capture_reserve(view) for view in self._views]
            if failure_policy == "degrade"
            else []
        )

    def _capture_reserve(self, view) -> float | None:
        """Worst-case contribution of one partition to any query.

        Cumulative aggregates: the partition's total mass ``M`` — a failed
        clip contributes somewhere in ``[0, M]`` (COUNT/SUM measures are
        non-negative), so adding ``M`` to the merged bound covers it.
        Extremes: the partition's global extreme ``E`` — the failed clip's
        extreme cannot exceed ``E`` (MAX) / fall below it (MIN), so the
        merged answer is off by at most ``max(0, E - merged)`` (MAX).
        NaN (an empty extreme partition) means no contribution at all.
        """
        try:
            total = float(
                view.exact_batch(
                    np.array([-np.inf]), np.array([np.inf])
                )[0]
            )
        except Exception:
            return None
        if self._cumulative and not np.isfinite(total):
            return None
        return total

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def failure_policy(self) -> str:
        """``"fail_fast"`` or ``"degrade"``."""
        return self._failure_policy

    @property
    def partition_map(self) -> PartitionMap:
        """The routing state this router was frozen with."""
        return self._map

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the routed fleet answers."""
        return self._aggregate

    @property
    def num_partitions(self) -> int:
        """Number of partitions fanned out over."""
        return len(self._views)

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def plan(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[PartitionPlan]]:
        """Clip a query batch into per-partition sub-batches.

        Returns the validated bound arrays plus one
        :class:`PartitionPlan` per partition that at least one query
        overlaps.  The sub-ranges of one query across its plans tile the
        original range without overlap (partition ownership is half-open;
        the clip's inclusive upper bound is the largest float below the
        split key).
        """
        lows, highs = validate_bounds_batch(lows, highs)
        first = self._map.locate(lows)
        last = self._map.locate(highs)
        plans: list[PartitionPlan] = []
        for pid in range(self._map.num_partitions):
            mask = (first <= pid) & (pid <= last)
            if not mask.any():
                continue
            indices = np.nonzero(mask)[0]
            clip_lows, clip_highs = self._map.clip(pid, lows[indices], highs[indices])
            plans.append(PartitionPlan(pid, indices, clip_lows, clip_highs))
        return lows, highs, plans

    # ------------------------------------------------------------------ #
    # Merging
    # ------------------------------------------------------------------ #

    def _observer(self, trace):
        """Per-partition timing hook for the scatter loops (None = no-op)."""
        hist = self._metrics.partition_seconds if self._metrics is not None else None
        if hist is None and trace is None:
            return None, None
        clock = trace.now if trace is not None else time.perf_counter

        def observe(plan: PartitionPlan, t0: float, t1: float) -> None:
            if hist is not None:
                hist.labels(partition=str(plan.pid)).observe(t1 - t0)
            if trace is not None:
                trace.add_span(
                    "partition_exec",
                    t0,
                    t1,
                    partition=plan.pid,
                    queries=int(plan.query_indices.size),
                )

        return clock, observe

    def _scatter(
        self, method: str, plans: list[PartitionPlan], trace=None
    ) -> list[np.ndarray]:
        clock, observe = self._observer(trace)
        if observe is None:
            return [
                getattr(self._engines[plan.pid], method)(plan.lows, plan.highs)
                for plan in plans
            ]
        partials: list[np.ndarray] = []
        for plan in plans:
            t0 = clock()
            partials.append(
                getattr(self._engines[plan.pid], method)(plan.lows, plan.highs)
            )
            observe(plan, t0, clock())
        return partials

    def _scatter_capture(
        self, method: str, plans: list[PartitionPlan], trace=None
    ) -> tuple[list, set[int]]:
        """Degrade-mode scatter: a failing partition yields ``None`` partials.

        Only ``Exception`` is captured — ``BaseException`` (KeyboardInterrupt,
        an injected crash point) still propagates; the degrade policy covers
        partition faults, not process death.
        """
        clock, observe = self._observer(trace)
        partials: list = []
        failed: set[int] = set()
        for plan in plans:
            t0 = clock() if observe is not None else 0.0
            try:
                partials.append(
                    getattr(self._engines[plan.pid], method)(plan.lows, plan.highs)
                )
            except Exception:
                failed.add(plan.pid)
                partials.append(None)
            if observe is not None:
                observe(plan, t0, clock())
        return partials, failed

    def _widen_for_failures(
        self,
        n: int,
        plans: list[PartitionPlan],
        failed: set[int],
        merged: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-query bound widening covering the failed partitions' clips.

        Returns ``(widen, degraded)``: the additional absolute slack per
        query (to *add* for cumulative aggregates, to *max* into the bound
        for extremes) and the mask of queries touching a failed partition.
        The widening is conservative by construction — see
        :meth:`_capture_reserve` for the containment argument.
        """
        widen = np.zeros(n, dtype=np.float64)
        degraded = np.zeros(n, dtype=bool)
        for plan in plans:
            if plan.pid not in failed:
                continue
            selection = plan.query_indices
            degraded[selection] = True
            reserve = self._reserves[plan.pid]
            if reserve is None:
                widen[selection] = np.inf
                continue
            if self._cumulative:
                widen[selection] += reserve
                continue
            if np.isnan(reserve):
                continue  # provably empty partition: nothing was missed
            merged_part = merged[selection]
            if self._aggregate is Aggregate.MAX:
                gap = reserve - merged_part
            else:
                gap = merged_part - reserve
            # A NaN merged value (every healthy partition empty over the
            # clip) cannot bound the failed partition's contribution at all.
            gap = np.where(np.isnan(merged_part), np.inf, gap)
            widen[selection] = np.maximum(widen[selection], np.maximum(gap, 0.0))
        return widen, degraded

    def _combine_widening(self, bounds: np.ndarray, widen: np.ndarray) -> np.ndarray:
        if self._cumulative:
            return bounds + widen
        return np.maximum(bounds, widen)

    def _degraded_exact(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, set[int]]:
        """Exact-as-possible answers for the degrade path's fallback.

        Healthy partitions answer exactly (bound 0); failed partitions
        contribute only widening.  Returns values, per-query bounds,
        the degraded mask, and the failed pid set.
        """
        lows, highs, plans = self.plan(lows, highs)
        n = lows.size
        partials, failed = self._scatter_capture("exact_batch", plans)
        alive = [
            (plan, part) for plan, part in zip(plans, partials) if part is not None
        ]
        values = self._merge_values(n, [p for p, _ in alive], [v for _, v in alive])
        widen, degraded = self._widen_for_failures(n, plans, failed, values)
        bounds = self._combine_widening(np.zeros(n, dtype=np.float64), widen)
        return values, bounds, degraded, failed

    def _merge_values(
        self, n: int, plans: list[PartitionPlan], partials: list[np.ndarray]
    ) -> np.ndarray:
        if self._cumulative:
            merged = np.zeros(n, dtype=np.float64)
            for plan, part in zip(plans, partials):
                merged[plan.query_indices] += part
            return merged
        # NaN is the merge identity: fmax/fmin pick the non-NaN operand, so
        # empty-clip partitions (all-NaN partials) never poison the answer.
        merged = np.full(n, np.nan, dtype=np.float64)
        for plan, part in zip(plans, partials):
            selection = plan.query_indices
            merged[selection] = self._combine(merged[selection], part)
        return merged

    def merged_bounds(self, n: int, plans: list[PartitionPlan]) -> np.ndarray:
        """Per-query certified bound of the merged answers.

        Cumulative partial errors add across the partitions a query
        straddles; extreme partial errors do not accumulate, so the merged
        bound is their max.  Queries overlapping no partition with records
        get bound ``0.0`` (their merged answer is the exact identity).
        """
        bounds = np.zeros(n, dtype=np.float64)
        for plan in plans:
            bound = self._views[plan.pid].certified_bound
            selection = plan.query_indices
            if self._cumulative:
                bounds[selection] += bound
            else:
                bounds[selection] = np.maximum(bounds[selection], bound)
        return bounds

    # ------------------------------------------------------------------ #
    # Batch interface (mirrors a single index's)
    # ------------------------------------------------------------------ #

    def estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Merged approximate answers for N ranges."""
        lows, highs, plans = self.plan(lows, highs)
        return self._merge_values(
            lows.size, plans, self._scatter("estimate_batch", plans)
        )

    def exact_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Merged exact answers for N ranges (each partial is exact)."""
        lows, highs, plans = self.plan(lows, highs)
        return self._merge_values(lows.size, plans, self._scatter("exact_batch", plans))

    def error_bounds_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Per-query certified bounds without answering (planning only)."""
        lows, highs, plans = self.plan(lows, highs)
        return self.merged_bounds(lows.size, plans)

    #: Callers may pass ``trace=`` through ``query_batch`` (duck-typed
    #: capability check used by the serving host).
    supports_trace = True

    def query_batch(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        guarantee: Guarantee | None = None,
        trace=None,
    ) -> BatchQueryResult:
        """Answer N queries with certificates over the merged values.

        Guarantee semantics match a single PolyFit index, evaluated against
        the per-query merged bound: an absolute guarantee is met exactly by
        the queries whose merged bound fits the budget (no exact fallback —
        the fleet was built with a looser budget than requested); a relative
        guarantee certifies per query and answers the failing subset with
        the merged exact path.

        Under ``failure_policy="degrade"`` a failing partition no longer
        aborts the batch: its contribution is dropped from the merged value
        and its captured worst-case contribution widens the affected
        queries' certified bounds, so every certificate the result *does*
        claim still holds.  Affected queries carry ``degraded=True`` and
        the result lists the failed partition ids.
        """
        lows, highs, plans = self.plan(lows, highs)
        n = lows.size
        if self._failure_policy == "degrade":
            partials, failed = self._scatter_capture("estimate_batch", plans, trace)
            if failed:
                return self._query_batch_degraded(
                    lows, highs, plans, partials, failed, guarantee
                )
            approx = self._merge_values(n, plans, partials)
        else:
            approx = self._merge_values(
                n, plans, self._scatter("estimate_batch", plans, trace)
            )
        bounds = self.merged_bounds(n, plans)
        if trace is None:
            return resolve_batch_certificates(
                approx,
                error_bound=bounds,
                guarantee=guarantee,
                exact_for_mask=lambda mask: self.exact_batch(lows[mask], highs[mask]),
                absolute_fallback=False,
            )
        with trace.span("merge", partitions=len(plans)):
            return resolve_batch_certificates(
                approx,
                error_bound=bounds,
                guarantee=guarantee,
                exact_for_mask=lambda mask: self.exact_batch(lows[mask], highs[mask]),
                absolute_fallback=False,
            )

    def _query_batch_degraded(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        plans: list[PartitionPlan],
        partials: list,
        failed: set[int],
        guarantee: Guarantee | None,
    ) -> BatchQueryResult:
        """Certificate resolution when at least one partition failed.

        Mirrors :func:`~repro.queries.batch.resolve_batch_certificates`
        (absolute: no fallback; relative: exact fallback for the uncertified
        subset) with one difference: a fallback touching a failed partition
        cannot reach the true exact answer, so its bound stays at the
        widening instead of dropping to 0 and its certificate is re-checked
        against that residual bound — never claimed for free.
        """
        n = lows.size
        alive = [
            (plan, part) for plan, part in zip(plans, partials) if part is not None
        ]
        approx = self._merge_values(n, [p for p, _ in alive], [v for _, v in alive])
        base_bounds = self.merged_bounds(n, [p for p, _ in alive])
        widen, degraded = self._widen_for_failures(n, plans, failed, approx)
        bounds = self._combine_widening(base_bounds, widen)
        failed_pids = set(failed)
        fallback = np.zeros(n, dtype=bool)
        values = approx
        if guarantee is None:
            guaranteed = np.ones(n, dtype=bool)
        elif guarantee.kind is GuaranteeKind.ABSOLUTE:
            guaranteed = bounds <= guarantee.epsilon + 1e-12
        else:
            with np.errstate(invalid="ignore"):
                certified = approx >= bounds * (1.0 + 1.0 / guarantee.epsilon)
            fallback = ~certified
            guaranteed = np.ones(n, dtype=bool)
            if np.any(fallback):
                values = approx.copy()
                bounds = bounds.copy()
                sub_values, sub_bounds, sub_degraded, sub_failed = self._degraded_exact(
                    lows[fallback], highs[fallback]
                )
                values[fallback] = sub_values
                bounds[fallback] = sub_bounds
                degraded = degraded.copy()
                degraded[fallback] |= sub_degraded
                failed_pids |= sub_failed
                # Exact over the healthy partitions, residual bound from the
                # failed ones: guaranteed iff nothing is missing (bound 0) or
                # the Lemma-3 certificate holds against the residual bound.
                with np.errstate(invalid="ignore"):
                    sub_ok = (sub_bounds == 0.0) | (
                        sub_values >= sub_bounds * (1.0 + 1.0 / guarantee.epsilon)
                    )
                guaranteed[fallback] = sub_ok
        if self._metrics is not None:
            self._metrics.degraded_answers_total.inc(int(degraded.sum()))
            self._metrics.failed_partitions_total.inc(len(failed_pids))
        return BatchQueryResult(
            values,
            guaranteed,
            fallback,
            bounds,
            degraded=degraded,
            failed_partitions=tuple(sorted(failed_pids)),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release any sharded-engine pools (idempotent)."""
        for engine in self._engines:
            if isinstance(engine, ShardedQueryEngine):
                engine.close()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
