"""Tests for the sharded parallel batch execution layer.

The contract under test: for every shard count and both execution paths
(the serial fallback and the thread pool), the sharded engine's answers are
*bit-identical* to the serial batch path (chunk evaluation is
element-independent in all batch kernels), results come back in input
order, and small workloads fall back to the serial path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Aggregate,
    Guarantee,
    PolyFit2DIndex,
    PolyFitIndex,
    QueryEngine,
    ShardedQueryEngine,
)
from repro.errors import QueryError
from repro.queries import generate_range_queries, queries_to_bounds
from repro.queries.sharding import shard_slices

SHARD_COUNTS = [1, 2, 7]
#: The engine's two execution paths, selected through the serial-fallback
#: threshold: ``min_queries_per_shard`` above every workload here keeps
#: the engine serial; 1 always fans out over the thread pool.
PATHS = {"serial": 10**9, "thread": 1}


@pytest.fixture(scope="module")
def count_bounds(tweet_small):
    keys, _ = tweet_small
    rng = np.random.default_rng(42)
    a = rng.uniform(float(keys[0]), float(keys[-1]), size=(2, 5_000))
    return np.minimum(a[0], a[1]), np.maximum(a[0], a[1])


@pytest.fixture(scope="module")
def rect_bounds(osm_small):
    xs, ys = osm_small
    rng = np.random.default_rng(43)
    ax = rng.uniform(xs.min(), xs.max(), size=(2, 3_000))
    ay = rng.uniform(ys.min(), ys.max(), size=(2, 3_000))
    return (
        np.minimum(ax[0], ax[1]),
        np.maximum(ax[0], ax[1]),
        np.minimum(ay[0], ay[1]),
        np.maximum(ay[0], ay[1]),
    )


class TestShardSlices:
    def test_covers_range_in_order(self):
        for total in (0, 1, 5, 100, 101):
            for shards in (1, 2, 7, 200):
                slices = shard_slices(total, shards)
                flat = [i for start, stop in slices for i in range(start, stop)]
                assert flat == list(range(total))

    def test_balanced(self):
        sizes = [stop - start for start, stop in shard_slices(100, 7)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 100

    def test_fewer_chunks_than_shards_for_tiny_workloads(self):
        assert len(shard_slices(3, 7)) == 3

    def test_rejects_bad_shard_count(self):
        with pytest.raises(QueryError):
            shard_slices(10, 0)


class TestShardedEquivalence1D:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_estimate_bit_identical(self, count_index, count_bounds, path, num_shards):
        serial = count_index.estimate_batch(*count_bounds)
        with ShardedQueryEngine(
            index=count_index,
            num_shards=num_shards,
            min_queries_per_shard=PATHS[path],
        ) as engine:
            sharded = engine.estimate_batch(*count_bounds)
        assert sharded.dtype == serial.dtype
        assert np.array_equal(sharded, serial)

    @pytest.mark.parametrize("path", PATHS)
    def test_exact_bit_identical(self, count_index, count_bounds, path):
        serial = count_index.exact_batch(*count_bounds)
        with ShardedQueryEngine(
            index=count_index, num_shards=7, min_queries_per_shard=PATHS[path]
        ) as engine:
            assert np.array_equal(engine.exact_batch(*count_bounds), serial)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_query_batch_with_guarantee(self, count_index, count_bounds, num_shards):
        guarantee = Guarantee.relative(0.5)
        serial = count_index.query_batch(*count_bounds, guarantee)
        with ShardedQueryEngine(
            index=count_index,
            num_shards=num_shards,
            min_queries_per_shard=1,
        ) as engine:
            sharded = engine.query_batch(*count_bounds, guarantee=guarantee)
        assert np.array_equal(sharded.values, serial.values)
        assert np.array_equal(sharded.guaranteed, serial.guaranteed)
        assert np.array_equal(sharded.exact_fallback, serial.exact_fallback)
        assert np.array_equal(sharded.error_bounds, serial.error_bounds)

    def test_max_index_extremes(self, max_index, hki_small):
        keys, _ = hki_small
        rng = np.random.default_rng(5)
        a = rng.uniform(float(keys[0]), float(keys[-1]), size=(2, 2_000))
        lows, highs = np.minimum(a[0], a[1]), np.maximum(a[0], a[1])
        serial = max_index.estimate_batch(lows, highs)
        with ShardedQueryEngine(
            index=max_index, num_shards=7, min_queries_per_shard=1
        ) as engine:
            assert np.array_equal(engine.estimate_batch(lows, highs), serial, equal_nan=True)

    def test_workload_smaller_than_shards(self, count_index, count_bounds):
        lows, highs = count_bounds[0][:3], count_bounds[1][:3]
        serial = count_index.estimate_batch(lows, highs)
        with ShardedQueryEngine(
            index=count_index, num_shards=7, min_queries_per_shard=1
        ) as engine:
            assert np.array_equal(engine.estimate_batch(lows, highs), serial)

    def test_small_workload_serial_fallback_threshold(self, count_index, count_bounds):
        # Default threshold: 5k queries over 7 shards stays serial (no pool).
        engine = ShardedQueryEngine(index=count_index, num_shards=7)
        serial = count_index.estimate_batch(*count_bounds)
        assert np.array_equal(engine.estimate_batch(*count_bounds), serial)
        assert engine._pool is None  # noqa: SLF001 - asserting the fallback took effect
        engine.close()


class TestShardedEquivalence2D:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("num_shards", [2, 7])
    def test_estimate_bit_identical(self, count2d_index, rect_bounds, path, num_shards):
        serial = count2d_index.estimate_batch(*rect_bounds)
        with ShardedQueryEngine(
            index=count2d_index,
            num_shards=num_shards,
            min_queries_per_shard=PATHS[path],
        ) as engine:
            assert np.array_equal(engine.estimate_batch(*rect_bounds), serial)


class TestShardedSum:
    """Sharded SUM equals the serial path bit for bit: each shard runs the
    same element-wise kernels over a slice of the queries."""

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_one_key_sum(self, tweet_small, count_bounds, num_shards):
        keys, measures = tweet_small
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.SUM, delta=100.0)
        serial = index.estimate_batch(*count_bounds)
        with ShardedQueryEngine(
            index=index, num_shards=num_shards, min_queries_per_shard=1
        ) as engine:
            assert np.array_equal(engine.estimate_batch(*count_bounds), serial)

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_two_key_sum(self, osm_small, rect_bounds, num_shards):
        xs, ys = osm_small
        weights = np.random.default_rng(104).uniform(0.5, 2.0, xs.size)
        index = PolyFit2DIndex.build(
            xs, ys, measures=weights, aggregate=Aggregate.SUM, delta=250.0,
            grid_resolution=64,
        )
        serial = index.estimate_batch(*rect_bounds)
        with ShardedQueryEngine(
            index=index, num_shards=num_shards, min_queries_per_shard=1
        ) as engine:
            assert np.array_equal(engine.estimate_batch(*rect_bounds), serial)


class TestShardedProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        num_queries=st.integers(min_value=1, max_value=300),
        num_shards=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_thread_sharding_matches_serial(
        self, count_index, tweet_small, num_queries, num_shards, seed
    ):
        keys, _ = tweet_small
        rng = np.random.default_rng(seed)
        a = rng.uniform(float(keys[0]), float(keys[-1]), size=(2, num_queries))
        lows, highs = np.minimum(a[0], a[1]), np.maximum(a[0], a[1])
        serial = count_index.estimate_batch(lows, highs)
        with ShardedQueryEngine(
            index=count_index,
            num_shards=num_shards,
            min_queries_per_shard=1,
        ) as engine:
            assert np.array_equal(engine.estimate_batch(lows, highs), serial)


class TestEngineIntegration:
    def test_for_index_num_shards_matches_serial(self, count_index, tweet_small):
        keys, _ = tweet_small
        queries = generate_range_queries(keys, 200, Aggregate.COUNT, seed=9)
        baseline = QueryEngine.for_index(count_index, "serial")
        sharded = QueryEngine.for_index(count_index, "sharded", num_shards=4)
        try:
            expected = baseline.run(queries)
            got = sharded.run(queries)
            assert [r.value for r, _ in got] == [r.value for r, _ in expected]
            assert [e for _, e in got] == [e for _, e in expected]
        finally:
            sharded.close()
            baseline.close()

    def test_run_batch_raw_through_shards(self, count_index, count_bounds):
        engine = QueryEngine.for_index(count_index, "sharded", num_shards=3)
        try:
            raw = engine.run_batch_raw(_bounds_to_queries(count_bounds))
            assert np.array_equal(
                raw.values, count_index.query_batch(*count_bounds).values
            )
        finally:
            engine.close()


def _bounds_to_queries(bounds):
    from repro import RangeQuery

    lows, highs = bounds
    return [
        RangeQuery(float(low), float(high), Aggregate.COUNT)
        for low, high in zip(lows, highs)
    ]


class TestValidation:
    def test_bad_shard_count_rejected(self, count_index):
        with pytest.raises(QueryError):
            ShardedQueryEngine(index=count_index, num_shards=0)

    def test_mismatched_bounds_rejected(self, count_index):
        engine = ShardedQueryEngine(index=count_index, num_shards=2)
        with pytest.raises(QueryError):
            engine.estimate_batch(np.zeros(3), np.zeros(4))

    def test_queries_to_bounds_round_trip(self, count_bounds):
        queries = _bounds_to_queries(count_bounds)
        lows, highs = queries_to_bounds(queries)
        assert np.array_equal(lows, count_bounds[0])
        assert np.array_equal(highs, count_bounds[1])
