"""Tests for the partitioned index fleet: routing, merging, rebalancing.

The correctness pins, in increasing strength:

* ``PartitionMap`` ownership is exhaustive and exclusive (every key has
  exactly one partition; clips tile a query range without overlap);
* fleet ``exact_batch`` answers are **bit-identical** to a monolithic
  single-index oracle for COUNT/MAX/MIN and integer-measure SUM — across a
  hypothesis sweep of random partition maps (including empty partitions)
  and random query batches (including boundary-straddling ones);
* merged estimates stay within the per-query merged certified bound, and
  ``query_batch`` answers satisfy both guarantee kinds against the
  monolithic exact oracle;
* an all-NaN MAX partial over an empty clip never poisons the merged
  answer (the NaN-handling regression the router's fmax/fmin merge pins);
* split/merge rebalancing and the save/load round trip preserve answers,
  and snapshots pinned before a mutation keep serving their epoch.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Aggregate,
    CompactionPolicy,
    Fleet2D,
    FleetPolicy,
    FleetRouter,
    Guarantee,
    IndexFleet,
    PartitionMap,
    PolyFitIndex,
    PolyFit2DIndex,
    RangeQuery,
    load_fleet,
    save_fleet,
)
from repro.config import FitConfig, IndexConfig, SegmentationConfig
from repro.errors import DataError, QueryError, SerializationError
from repro.fleet import Partition, is_fleet_dir
from repro.fleet.partition import EmptyPartitionView
from repro.queries.batch import resolve_batch_certificates

FAST = IndexConfig(fit=FitConfig(degree=1), segmentation=SegmentationConfig(delta=25.0))

ALL_AGGREGATES = [Aggregate.COUNT, Aggregate.SUM, Aggregate.MAX, Aggregate.MIN]


def _dataset(n=4000, seed=0, key_range=(0.0, 1000.0)):
    rng = np.random.default_rng(seed)
    keys = rng.uniform(*key_range, size=n)
    measures = rng.integers(1, 60, size=n).astype(np.float64)
    return keys, measures


def _queries(m=300, seed=1, lo=-120.0, hi=1120.0):
    rng = np.random.default_rng(seed)
    lows = rng.uniform(lo, hi, size=m)
    highs = lows + rng.uniform(0.0, (hi - lo) * 0.6, size=m)
    return lows, highs


def _build_pair(aggregate, keys, measures, **fleet_kwargs):
    m = None if aggregate is Aggregate.COUNT else measures
    fleet = IndexFleet.build(keys, m, aggregate, delta=25.0, config=FAST, **fleet_kwargs)
    mono = PolyFitIndex.build(keys, m, aggregate, delta=25.0, config=FAST)
    return fleet, mono


def _satisfies_relative(values, exact, eps):
    for value, truth in zip(values, exact):
        if np.isnan(truth):
            assert np.isnan(value)
        elif truth == 0:
            assert value == 0
        else:
            assert abs(value - truth) / abs(truth) <= eps + 1e-9
    return True


# --------------------------------------------------------------------- #
# PartitionMap
# --------------------------------------------------------------------- #


class TestPartitionMap:
    def test_empty_splits_is_one_partition(self):
        pmap = PartitionMap([])
        assert pmap.num_partitions == 1
        assert pmap.lower_bound(0) == -np.inf
        assert pmap.upper_bound(0) == np.inf
        assert np.all(pmap.locate([-1e300, 0.0, 1e300]) == 0)

    def test_split_key_belongs_to_right_partition(self):
        pmap = PartitionMap([10.0, 20.0])
        assert pmap.locate(10.0) == 1  # closed below, open above
        assert pmap.locate(np.nextafter(10.0, -np.inf)) == 0
        assert pmap.locate(20.0) == 2

    def test_clip_tiles_without_overlap(self):
        pmap = PartitionMap([10.0, 20.0])
        lows = np.array([5.0])
        highs = np.array([25.0])
        clips = [pmap.clip(pid, lows, highs) for pid in range(3)]
        assert clips[0] == (5.0, np.nextafter(10.0, -np.inf))
        assert clips[1] == (10.0, np.nextafter(20.0, -np.inf))
        assert clips[2] == (20.0, 25.0)
        # inclusive-upper of partition i is strictly below lower of i+1
        for pid in range(2):
            assert pmap.inclusive_upper_bound(pid) < pmap.lower_bound(pid + 1)

    def test_with_split_and_merge_roundtrip(self):
        pmap = PartitionMap([10.0])
        grown = pmap.with_split(1, 20.0)
        assert grown.to_payload() == [10.0, 20.0]
        assert grown.with_merge(1) == pmap
        assert PartitionMap.from_payload(grown.to_payload()) == grown

    def test_validation(self):
        with pytest.raises(DataError):
            PartitionMap([2.0, 1.0])  # not increasing
        with pytest.raises(DataError):
            PartitionMap([np.inf])
        pmap = PartitionMap([10.0])
        with pytest.raises(DataError):
            pmap.with_split(0, 10.0)  # on the boundary, not strictly inside
        with pytest.raises(DataError):
            pmap.with_split(0, 15.0)  # inside partition 1, not 0
        with pytest.raises(DataError):
            pmap.with_merge(1)  # last partition has no right neighbour
        with pytest.raises(DataError):
            pmap.lower_bound(2)


# --------------------------------------------------------------------- #
# FleetPolicy
# --------------------------------------------------------------------- #


class TestFleetPolicy:
    def test_thresholds(self):
        policy = FleetPolicy(max_keys=100, merge_keys=30, max_bytes=10_000)
        assert policy.should_split(101, 0)
        assert not policy.should_split(100, 0)
        assert policy.should_split(0, 10_001)
        assert policy.should_merge(30)
        assert not policy.should_merge(31)

    def test_disabled_by_default(self):
        policy = FleetPolicy()
        assert not policy.should_split(10**9, 10**12)
        assert not policy.should_merge(0)

    def test_validation(self):
        with pytest.raises(DataError):
            FleetPolicy(max_keys=1)
        with pytest.raises(DataError):
            FleetPolicy(max_keys=10, merge_keys=10)  # merge would re-split
        with pytest.raises(DataError):
            FleetPolicy(max_bytes=0)

    def test_payload_roundtrip(self):
        policy = FleetPolicy(
            max_keys=500,
            merge_keys=100,
            auto=True,
            compaction=CompactionPolicy(max_buffer=64, auto=False),
        )
        assert FleetPolicy.from_payload(policy.to_payload()) == policy


# --------------------------------------------------------------------- #
# Oracle equivalence (deterministic)
# --------------------------------------------------------------------- #


class TestOracleEquivalence:
    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_exact_matches_monolithic(self, aggregate):
        keys, measures = _dataset()
        fleet, mono = _build_pair(aggregate, keys, measures, num_partitions=5)
        lows, highs = _queries()
        fleet_exact = fleet.exact_batch(lows, highs)
        mono_exact = mono.exact_batch(lows, highs)
        # COUNT sums integers, MAX/MIN take maxima of partition extremes,
        # and SUM with integer measures stays under 2^53: all bit-identical.
        assert np.array_equal(fleet_exact, mono_exact, equal_nan=True)

    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_estimates_within_merged_bounds(self, aggregate):
        keys, measures = _dataset()
        fleet, mono = _build_pair(aggregate, keys, measures, num_partitions=5)
        lows, highs = _queries()
        estimates = fleet.estimate_batch(lows, highs)
        bounds = fleet.snapshot().error_bounds_batch(lows, highs)
        exact = mono.exact_batch(lows, highs)
        nan = np.isnan(exact)
        assert np.all(np.isnan(estimates[nan]))
        assert np.all(np.abs(estimates[~nan] - exact[~nan]) <= bounds[~nan] + 1e-9)

    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_relative_guarantee_certified(self, aggregate):
        keys, measures = _dataset()
        fleet, mono = _build_pair(aggregate, keys, measures, num_partitions=5)
        lows, highs = _queries()
        result = fleet.query_batch(lows, highs, Guarantee.relative(0.05))
        assert bool(result.guaranteed.all())
        _satisfies_relative(result.values, mono.exact_batch(lows, highs), 0.05)
        # fallbacks answered exactly, with a zeroed bound
        fallback = result.exact_fallback
        assert np.array_equal(
            result.values[fallback],
            mono.exact_batch(lows[fallback], highs[fallback]),
            equal_nan=True,
        )
        assert np.all(result.error_bounds[fallback] == 0.0)

    def test_absolute_guarantee_is_per_query(self):
        keys, measures = _dataset()
        fleet, _ = _build_pair(Aggregate.COUNT, keys, measures, num_partitions=5)
        lows, highs = _queries()
        bounds = fleet.snapshot().error_bounds_batch(lows, highs)
        # pick a budget between min and max merged bound so the outcome is
        # genuinely per query: single-partition queries pass, straddlers fail
        assert bounds.min() < bounds.max()
        budget = float((bounds.min() + bounds.max()) / 2)
        result = fleet.query_batch(lows, highs, Guarantee.absolute(budget))
        assert np.array_equal(result.guaranteed, bounds <= budget + 1e-12)
        assert not result.exact_fallback.any()  # PolyFit semantics: no fallback

    def test_boundary_queries_match_monolithic(self):
        keys, measures = _dataset()
        splits = [250.0, 500.0, 750.0]
        fleet, mono = _build_pair(Aggregate.COUNT, keys, measures, splits=splits)
        # ranges whose bounds sit exactly on split keys, degenerate
        # single-point ranges on a split, and the full domain
        lows = np.array([250.0, 250.0, 0.0, 500.0, -1e6])
        highs = np.array([750.0, 250.0, 500.0, 500.0, 1e6])
        assert np.array_equal(
            fleet.exact_batch(lows, highs), mono.exact_batch(lows, highs)
        )

    @pytest.mark.parametrize("num_partitions", [1, 2, 4])
    def test_every_aggregate_at_every_partition_count(self, num_partitions):
        keys, measures = _dataset(n=6000, seed=23)
        lows, highs = _queries(m=500, seed=24)
        for aggregate in ALL_AGGREGATES:
            fleet, mono = _build_pair(
                aggregate, keys, measures, num_partitions=num_partitions
            )
            exact = mono.exact_batch(lows, highs)
            assert np.array_equal(fleet.exact_batch(lows, highs), exact, equal_nan=True)
            result = fleet.query_batch(lows, highs, Guarantee.relative(0.05))
            assert bool(result.guaranteed.all())
            _satisfies_relative(result.values, exact, 0.05)
            # A merged bound adds one partition's budget per straddled
            # partition, so no query's bound drops below one budget.
            bounds = fleet.snapshot().error_bounds_batch(lows, highs)
            assert np.all(bounds >= fleet.partitions[0].certified_bound)
            fleet.close()

    def test_scalar_query_surface(self):
        keys, measures = _dataset(n=800)
        fleet, mono = _build_pair(Aggregate.SUM, keys, measures, num_partitions=3)
        probe = RangeQuery(100.0, 900.0, Aggregate.SUM)
        assert fleet.exact(probe) == pytest.approx(mono.exact(probe))
        result = fleet.query(probe, Guarantee.relative(0.05))
        assert result.guaranteed
        assert result.value == pytest.approx(mono.exact(probe), rel=0.05)


# --------------------------------------------------------------------- #
# Oracle equivalence (hypothesis sweep)
# --------------------------------------------------------------------- #


@st.composite
def fleet_case(draw):
    n = draw(st.integers(min_value=20, max_value=80))
    # integer keys/measures: heavy duplication, and SUM partials stay
    # bit-identical under re-association
    keys = np.array(
        draw(st.lists(st.integers(0, 400), min_size=n, max_size=n)), dtype=np.float64
    )
    measures = np.array(
        draw(st.lists(st.integers(1, 50), min_size=n, max_size=n)), dtype=np.float64
    )
    # split keys may fall outside the key domain -> empty partitions
    splits = sorted(
        draw(st.sets(st.integers(-100, 500), min_size=0, max_size=5))
    )
    m = draw(st.integers(min_value=5, max_value=15))
    lows = np.array(
        draw(st.lists(st.integers(-150, 550), min_size=m, max_size=m)),
        dtype=np.float64,
    )
    widths = np.array(
        draw(st.lists(st.integers(0, 400), min_size=m, max_size=m)), dtype=np.float64
    )
    # make some queries start or end exactly on split keys (boundary straddle)
    if splits:
        lows[0] = float(splits[0])
        if m > 1:
            widths[1] = float(splits[-1]) - lows[1]
            if widths[1] < 0:
                widths[1] = 0.0
    return keys, measures, [float(s) for s in splits], lows, lows + widths


@settings(max_examples=25, deadline=None)
@given(case=fleet_case(), aggregate=st.sampled_from(ALL_AGGREGATES))
def test_fleet_equals_monolithic_oracle(case, aggregate):
    keys, measures, splits, lows, highs = case
    m = None if aggregate is Aggregate.COUNT else measures
    fleet = IndexFleet.build(keys, m, aggregate, delta=25.0, config=FAST, splits=splits)
    mono = PolyFitIndex.build(keys, m, aggregate, delta=25.0, config=FAST)
    exact = mono.exact_batch(lows, highs)
    assert np.array_equal(fleet.exact_batch(lows, highs), exact, equal_nan=True)
    # both guarantee kinds stay certified against the monolithic truth
    relative = fleet.query_batch(lows, highs, Guarantee.relative(0.1))
    assert bool(relative.guaranteed.all())
    _satisfies_relative(relative.values, exact, 0.1)
    absolute = fleet.query_batch(lows, highs, Guarantee.absolute(1e9))
    assert bool(absolute.guaranteed.all())
    nan = np.isnan(exact)
    assert np.all(np.isnan(absolute.values[nan]))
    assert np.all(
        np.abs(absolute.values[~nan] - exact[~nan])
        <= absolute.error_bounds[~nan] + 1e-9
    )


# --------------------------------------------------------------------- #
# NaN merge regression (the empty-clip MAX fix)
# --------------------------------------------------------------------- #


class TestNaNMerge:
    def test_empty_partition_does_not_poison_max(self):
        # keys cluster in [0, 100] and [300, 400]; the middle partition
        # (150, 250] owns no keys, so its partial over any clip is all-NaN
        rng = np.random.default_rng(3)
        keys = np.concatenate(
            [rng.uniform(0, 100, 500), rng.uniform(300, 400, 500)]
        )
        measures = rng.integers(1, 100, 1000).astype(np.float64)
        for aggregate in (Aggregate.MAX, Aggregate.MIN):
            fleet = IndexFleet.build(
                keys, measures, aggregate, delta=25.0, config=FAST,
                splits=[150.0, 250.0],
            )
            assert fleet.partitions[1].is_empty
            mono = PolyFitIndex.build(keys, measures, aggregate, delta=25.0, config=FAST)
            # straddles the empty middle partition: the all-NaN partial must
            # drop out of the fmax/fmin merge, not poison it
            lows = np.array([50.0, 160.0, 120.0])
            highs = np.array([350.0, 240.0, 230.0])
            merged = fleet.exact_batch(lows, highs)
            truth = mono.exact_batch(lows, highs)
            assert np.array_equal(merged, truth, equal_nan=True)
            assert not np.isnan(merged[0])  # straddler has witnesses outside
            assert np.isnan(merged[1])  # fully inside the hole: NaN, like mono
            estimates = fleet.estimate_batch(lows, highs)
            assert not np.isnan(estimates[0])
            # and the certified read path falls back to the exact NaN answer
            result = fleet.query_batch(lows, highs, Guarantee.relative(0.05))
            assert np.isnan(result.values[1]) and result.exact_fallback[1]

    def test_all_empty_fleet_answers_identities(self):
        view = EmptyPartitionView(Aggregate.MAX)
        router = FleetRouter(PartitionMap([10.0]), [view, EmptyPartitionView(Aggregate.MAX)], Aggregate.MAX)
        lows = np.array([0.0, 15.0])
        highs = np.array([20.0, 18.0])
        assert np.all(np.isnan(router.estimate_batch(lows, highs)))
        assert np.all(router.error_bounds_batch(lows, highs) == 0.0)


# --------------------------------------------------------------------- #
# Per-query bounds in resolve_batch_certificates
# --------------------------------------------------------------------- #


class TestPerQueryBounds:
    def test_absolute_guarantee_elementwise(self):
        approx = np.array([100.0, 200.0, 300.0])
        bounds = np.array([10.0, 50.0, 90.0])
        result = resolve_batch_certificates(
            approx,
            error_bound=bounds,
            guarantee=Guarantee.absolute(50.0),
            exact_for_mask=lambda mask: np.zeros(int(mask.sum())),
            absolute_fallback=False,
        )
        assert result.guaranteed.tolist() == [True, True, False]
        assert np.array_equal(result.error_bounds, bounds)

    def test_relative_threshold_per_query(self):
        # same approx value certifies under a small bound, fails a large one
        approx = np.array([150.0, 150.0])
        bounds = np.array([10.0, 100.0])
        calls = []

        def exact_for_mask(mask):
            calls.append(mask.copy())
            return np.full(int(mask.sum()), 140.0)

        result = resolve_batch_certificates(
            approx,
            error_bound=bounds,
            guarantee=Guarantee.relative(0.1),  # threshold = bound * 11
            exact_for_mask=exact_for_mask,
            absolute_fallback=False,
        )
        assert result.exact_fallback.tolist() == [False, True]
        assert result.values.tolist() == [150.0, 140.0]
        assert result.error_bounds.tolist() == [10.0, 0.0]
        assert len(calls) == 1 and calls[0].tolist() == [False, True]

    def test_scalar_bound_unchanged(self):
        approx = np.array([100.0, 200.0])
        result = resolve_batch_certificates(
            approx,
            error_bound=5.0,
            guarantee=None,
            exact_for_mask=lambda mask: np.zeros(int(mask.sum())),
            absolute_fallback=False,
        )
        assert np.all(result.error_bounds == 5.0)
        assert bool(result.guaranteed.all())

    def test_merged_bound_counts_straddled_partitions(self):
        keys, measures = _dataset(n=2000)
        fleet, _ = _build_pair(
            Aggregate.COUNT, keys, measures, splits=[250.0, 500.0, 750.0]
        )
        per_partition = fleet.partitions[0].certified_bound
        snapshot = fleet.snapshot()
        # inside one partition / straddling two / straddling all four
        bounds = snapshot.error_bounds_batch(
            np.array([10.0, 240.0, 10.0]), np.array([20.0, 260.0, 990.0])
        )
        assert bounds.tolist() == [
            per_partition,
            2 * per_partition,
            4 * per_partition,
        ]


# --------------------------------------------------------------------- #
# Writes, rebalancing, epoch pinning
# --------------------------------------------------------------------- #


class TestWritesAndRebalancing:
    def test_insert_routes_by_key(self):
        keys, _ = _dataset(n=1000)
        fleet, _ = _build_pair(Aggregate.COUNT, keys, None, splits=[500.0])
        before = [p.num_keys for p in fleet.partitions]
        inserted = fleet.insert(np.array([100.0, 200.0, 700.0]))
        assert inserted == 3
        assert fleet.partitions[0].buffer_size == 2
        assert fleet.partitions[1].buffer_size == 1
        assert fleet.version == 1
        assert [p.num_keys for p in fleet.partitions] == [before[0] + 2, before[1] + 1]

    def test_insert_matches_monolithic_after_writes(self):
        keys, measures = _dataset(n=1500, seed=5)
        extra_keys, extra_measures = _dataset(n=500, seed=6)
        fleet, _ = _build_pair(Aggregate.SUM, keys, measures, num_partitions=4)
        fleet.insert(extra_keys, extra_measures)
        mono = PolyFitIndex.build(
            np.concatenate([keys, extra_keys]),
            np.concatenate([measures, extra_measures]),
            Aggregate.SUM,
            delta=25.0,
            config=FAST,
        )
        lows, highs = _queries(m=100, seed=9)
        assert np.allclose(
            fleet.exact_batch(lows, highs), mono.exact_batch(lows, highs)
        )
        fleet.compact()
        assert fleet.buffer_size == 0
        assert np.allclose(
            fleet.exact_batch(lows, highs), mono.exact_batch(lows, highs)
        )

    def test_invalid_inserts_rejected_whole(self):
        keys, _ = _dataset(n=500)
        fleet, _ = _build_pair(Aggregate.COUNT, keys, None, splits=[500.0])
        with pytest.raises(DataError):
            fleet.insert(np.array([1.0, np.nan]))
        assert fleet.version == 0 and fleet.buffer_size == 0

    def test_split_and_merge_preserve_answers(self):
        keys, measures = _dataset(n=2000, seed=7)
        for aggregate in (Aggregate.COUNT, Aggregate.MAX):
            fleet, mono = _build_pair(aggregate, keys, measures, num_partitions=2)
            lows, highs = _queries(m=120, seed=8)
            truth = mono.exact_batch(lows, highs)
            split_key = fleet.split(0)
            assert fleet.num_partitions == 3
            assert fleet.partition_map.splits[0] == split_key
            assert np.array_equal(
                fleet.exact_batch(lows, highs), truth, equal_nan=True
            )
            fleet.merge(0)
            assert fleet.num_partitions == 2
            assert np.array_equal(
                fleet.exact_batch(lows, highs), truth, equal_nan=True
            )

    def test_auto_rebalance_splits_oversize_partitions(self):
        keys, _ = _dataset(n=3000, seed=2)
        policy = FleetPolicy(max_keys=500, auto=True)
        fleet = IndexFleet.build(
            keys, None, Aggregate.COUNT, delta=25.0, config=FAST,
            num_partitions=1, policy=policy,
        )
        assert fleet.num_partitions == 1
        fleet.rebalance()
        assert fleet.num_partitions > 1
        assert all(p.num_keys <= 500 for p in fleet.partitions)
        # inserts now rebalance inline
        more, _ = _dataset(n=2000, seed=3)
        count_before = fleet.num_partitions
        fleet.insert(more)
        assert fleet.num_partitions >= count_before
        assert all(p.num_keys <= 500 for p in fleet.partitions)

    def test_merge_policy_collapses_slivers(self):
        keys, _ = _dataset(n=400, seed=4)
        policy = FleetPolicy(max_keys=10_000, merge_keys=500)
        fleet = IndexFleet.build(
            keys, None, Aggregate.COUNT, delta=25.0, config=FAST,
            num_partitions=8, policy=policy,
        )
        assert fleet.num_partitions == 8
        operations = fleet.rebalance()
        assert operations > 0
        assert fleet.num_partitions == 1  # 400 keys all fit one partition

    def test_pinned_snapshot_survives_mutations(self):
        keys, _ = _dataset(n=1200, seed=11)
        fleet, _ = _build_pair(Aggregate.COUNT, keys, None, num_partitions=3)
        lows, highs = _queries(m=50, seed=12)
        pinned = fleet.snapshot()
        frozen = pinned.exact_batch(lows, highs)
        fleet.insert(np.linspace(0.0, 1000.0, 500))
        fleet.compact()
        fleet.split(0)
        # the pinned snapshot still answers its epoch, bit for bit
        assert np.array_equal(pinned.exact_batch(lows, highs), frozen)
        assert pinned.version == 0
        fresh = fleet.snapshot()
        assert fresh.version == fleet.version > 0
        assert not np.array_equal(fresh.exact_batch(lows, highs), frozen)

    def test_split_requires_two_distinct_keys(self):
        fleet = IndexFleet.build(
            np.full(10, 42.0), None, Aggregate.COUNT,
            delta=25.0, config=FAST, num_partitions=1,
        )
        with pytest.raises(DataError):
            fleet.split(0)


# --------------------------------------------------------------------- #
# Sharded fan-out
# --------------------------------------------------------------------- #


class TestShardedRouter:
    def test_thread_sharded_bit_identical_to_serial(self):
        keys, measures = _dataset(n=3000, seed=13)
        serial = IndexFleet.build(
            keys, measures, Aggregate.SUM, delta=25.0, config=FAST, num_partitions=4
        )
        sharded = IndexFleet.build(
            keys, measures, Aggregate.SUM, delta=25.0, config=FAST,
            num_partitions=4, num_shards=2,
        )
        lows, highs = _queries(m=400, seed=14)
        try:
            assert np.array_equal(
                sharded.estimate_batch(lows, highs),
                serial.estimate_batch(lows, highs),
            )
            a = sharded.query_batch(lows, highs, Guarantee.relative(0.05))
            b = serial.query_batch(lows, highs, Guarantee.relative(0.05))
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.guaranteed, b.guaranteed)
        finally:
            sharded.close()
            serial.close()

    def test_router_validates_view_count(self):
        with pytest.raises(DataError):
            FleetRouter(
                PartitionMap([1.0]), [EmptyPartitionView(Aggregate.COUNT)],
                Aggregate.COUNT,
            )


# --------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------- #


class TestPersistence:
    def test_roundtrip_preserves_answers_and_state(self, tmp_path):
        keys, measures = _dataset(n=1500, seed=15)
        fleet, _ = _build_pair(
            Aggregate.SUM, keys, measures,
            splits=[-500.0, 300.0, 700.0],  # first partition empty
            policy=FleetPolicy(max_keys=5000, merge_keys=10),
        )
        fleet.insert(np.array([350.0, 400.0]), np.array([3.0, 4.0]))
        manifest = save_fleet(fleet, tmp_path / "fleet")
        assert manifest.name == "manifest.json"
        assert is_fleet_dir(tmp_path / "fleet")
        loaded = load_fleet(tmp_path / "fleet")
        assert loaded.aggregate is Aggregate.SUM
        assert loaded.partition_map == fleet.partition_map
        assert loaded.policy == fleet.policy
        assert loaded.version == fleet.version
        assert loaded.partitions[0].is_empty
        assert loaded.buffer_size == fleet.buffer_size  # delta log persisted
        lows, highs = _queries(m=80, seed=16)
        assert np.array_equal(
            loaded.exact_batch(lows, highs), fleet.exact_batch(lows, highs)
        )
        assert np.array_equal(
            loaded.estimate_batch(lows, highs), fleet.estimate_batch(lows, highs)
        )

    def test_save_prunes_stale_partition_files(self, tmp_path):
        keys, _ = _dataset(n=600, seed=17)
        fleet, _ = _build_pair(Aggregate.COUNT, keys, None, num_partitions=4)
        save_fleet(fleet, tmp_path / "fleet")
        assert len(list((tmp_path / "fleet").glob("partition-*.pfbin"))) == 4
        while fleet.num_partitions > 2:
            fleet.merge(0)
        save_fleet(fleet, tmp_path / "fleet")
        assert len(list((tmp_path / "fleet").glob("partition-*.pfbin"))) == 2
        assert load_fleet(tmp_path / "fleet").num_partitions == 2

    def test_missing_manifest_raises_typed_error(self, tmp_path):
        with pytest.raises(SerializationError):
            load_fleet(tmp_path)

    def test_malformed_manifest_raises_typed_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(SerializationError):
            load_fleet(tmp_path)

    def test_wrong_version_and_kind_raise(self, tmp_path):
        keys, _ = _dataset(n=300, seed=18)
        fleet, _ = _build_pair(Aggregate.COUNT, keys, None, num_partitions=2)
        manifest = save_fleet(fleet, tmp_path)
        payload = json.loads(manifest.read_text())
        for patch in ({"format_version": 99}, {"kind": "mystery"}):
            manifest.write_text(json.dumps({**payload, **patch}))
            with pytest.raises(SerializationError):
                load_fleet(tmp_path)

    def test_missing_partition_file_raises(self, tmp_path):
        keys, _ = _dataset(n=300, seed=19)
        fleet, _ = _build_pair(Aggregate.COUNT, keys, None, num_partitions=2)
        save_fleet(fleet, tmp_path)
        (tmp_path / "partition-0000.pfbin").unlink()
        with pytest.raises(SerializationError):
            load_fleet(tmp_path)


# --------------------------------------------------------------------- #
# Partition internals
# --------------------------------------------------------------------- #


class TestPartition:
    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_records_roundtrip_through_rebuild(self, aggregate):
        keys, measures = _dataset(n=700, seed=20)
        m = None if aggregate is Aggregate.COUNT else measures
        partition = Partition.from_records(
            keys, m, aggregate, delta=25.0, config=FAST
        )
        partition.insert(keys[:50], None if m is None else measures[:50])
        rec_keys, rec_measures = partition.records()
        rebuilt = Partition.from_records(
            rec_keys, rec_measures, aggregate, delta=25.0, config=FAST
        )
        lows, highs = _queries(m=60, seed=21)
        original = PolyFitIndex.build(
            np.concatenate([keys, keys[:50]]),
            None if m is None else np.concatenate([measures, measures[:50]]),
            aggregate,
            delta=25.0,
            config=FAST,
        )
        truth = original.exact_batch(lows, highs)
        answers = rebuilt.snapshot().exact_batch(lows, highs)
        if aggregate is Aggregate.SUM:
            assert np.allclose(answers, truth, equal_nan=True)
        else:
            assert np.array_equal(answers, truth, equal_nan=True)

    def test_empty_partition_surface(self):
        partition = Partition(Aggregate.MAX, delta=25.0)
        assert partition.is_empty
        assert partition.num_keys == 0
        assert partition.certified_bound == 0.0
        view = partition.snapshot()
        assert np.all(np.isnan(view.estimate_batch(np.array([0.0]), np.array([1.0]))))
        # first insert builds the index in place
        partition.insert(np.array([5.0]), np.array([7.0]))
        assert not partition.is_empty
        assert partition.snapshot().exact_batch(
            np.array([0.0]), np.array([10.0])
        ) == np.array([7.0])


# --------------------------------------------------------------------- #
# Two-key fleet
# --------------------------------------------------------------------- #


class TestFleet2D:
    def test_matches_monolithic_2d(self):
        rng = np.random.default_rng(22)
        xs = rng.uniform(0, 100, 3000)
        ys = rng.uniform(0, 100, 3000)
        fleet = Fleet2D.build(
            xs, ys, delta=25.0, num_partitions=3, grid_resolution=32
        )
        mono = PolyFit2DIndex.build(xs, ys, delta=25.0, grid_resolution=32)
        x_lows = rng.uniform(-10, 90, 50)
        x_highs = x_lows + rng.uniform(0, 60, 50)
        y_lows = rng.uniform(-10, 90, 50)
        y_highs = y_lows + rng.uniform(0, 60, 50)
        exact = mono.exact_batch(x_lows, x_highs, y_lows, y_highs)
        assert np.array_equal(
            fleet.exact_batch(x_lows, x_highs, y_lows, y_highs), exact
        )
        estimates = fleet.estimate_batch(x_lows, x_highs, y_lows, y_highs)
        bounds = fleet.error_bounds_batch(x_lows, x_highs)
        assert np.all(np.abs(estimates - exact) <= bounds + 1e-9)
        result = fleet.query_batch(
            x_lows, x_highs, y_lows, y_highs, Guarantee.relative(0.1)
        )
        assert bool(result.guaranteed.all())
        _satisfies_relative(result.values, exact, 0.1)

    def test_build_validation(self):
        with pytest.raises(QueryError):
            Fleet2D.build(np.array([1.0]), np.array([1.0]))  # no budget
        with pytest.raises(DataError):
            Fleet2D.build(np.array([1.0]), np.array([1.0, 2.0]), delta=10.0)


# --------------------------------------------------------------------- #
# Serving integration
# --------------------------------------------------------------------- #


class TestServeIntegration:
    def test_engine_host_hosts_a_fleet(self):
        from repro.serve import EngineHost

        keys, _ = _dataset(n=1000, seed=23)
        fleet, mono = _build_pair(Aggregate.COUNT, keys, None, num_partitions=4)
        with EngineHost(fleet, name="fleet", cache_size=4) as host:
            assert host.updatable and host.dims == 1
            info = host.info()
            assert info["num_partitions"] == 4
            view = host.pin()
            lows, highs = _queries(m=20, seed=24)
            answer = host.execute(view, (lows, highs), Guarantee.relative(0.1))
            assert np.array_equal(
                answer.values,
                fleet.query_batch(lows, highs, Guarantee.relative(0.1)).values,
            )
            assert host.insert(np.array([500.5])) == 1
            assert host.compact()
            assert host.info()["version"] == fleet.version

    def test_cli_fleet_build_and_stats(self, tmp_path, capsys):
        from repro.cli import main

        fleet_dir = str(tmp_path / "fleet")
        assert main(
            [
                "fleet-build", fleet_dir, "--synthetic", "5000", "--delta", "25",
                "--num-partitions", "3", "--max-keys", "4000",
            ]
        ) == 0
        assert is_fleet_dir(fleet_dir)
        capsys.readouterr()
        assert main(["fleet-stats", fleet_dir]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_partitions"] == 3
        assert stats["aggregate"] == "count"
        assert len(stats["partitions"]) == 3

    def test_cli_explicit_splits(self, tmp_path):
        from repro.cli import main

        fleet_dir = str(tmp_path / "fleet")
        assert main(
            [
                "fleet-build", fleet_dir, "--synthetic", "1000", "--delta", "25",
                "--splits", "100,200,300",
            ]
        ) == 0
        assert load_fleet(fleet_dir).partition_map.to_payload() == [100.0, 200.0, 300.0]
