"""Tests for the two-key streaming variant."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Aggregate,
    CompactionPolicy,
    Guarantee,
    PolyFit2DIndex,
    RangeQuery2D,
    UpdatablePolyFit2DIndex,
)
from repro.errors import DataError


def _rects(rng, n, span=(0.0, 10.0)):
    a = rng.uniform(span[0] - 1, span[1] + 1, (2, n))
    b = rng.uniform(span[0] - 1, span[1] + 1, (2, n))
    return (
        np.minimum(a[0], a[1]),
        np.maximum(a[0], a[1]),
        np.minimum(b[0], b[1]),
        np.maximum(b[0], b[1]),
    )


def _count_oracle(xs, ys, bounds):
    x_lows, x_highs, y_lows, y_highs = bounds
    return np.array(
        [
            float(np.count_nonzero((xs >= xl) & (xs <= xh) & (ys >= yl) & (ys <= yh)))
            for xl, xh, yl, yh in zip(x_lows, x_highs, y_lows, y_highs)
        ]
    )


@pytest.fixture(scope="module")
def point_cloud():
    rng = np.random.default_rng(101)
    return rng.uniform(0, 10, 2500), rng.uniform(0, 10, 2500)


class TestUpdatable2D:
    def test_buffered_queries_match_oracle(self, point_cloud):
        xs, ys = point_cloud
        rng = np.random.default_rng(1)
        index = UpdatablePolyFit2DIndex.build(
            xs, ys, delta=40.0, grid_resolution=48,
            policy=CompactionPolicy(auto=False),
        )
        new_x = rng.uniform(0, 10, 600)
        new_y = rng.uniform(0, 10, 600)
        index.insert(new_x, new_y)
        assert index.buffer_size == 600
        all_x = np.concatenate([xs, new_x])
        all_y = np.concatenate([ys, new_y])
        bounds = _rects(rng, 150)
        oracle = _count_oracle(all_x, all_y, bounds)
        assert np.array_equal(index.exact_batch(*bounds), oracle)
        errors = np.abs(index.estimate_batch(*bounds) - oracle)
        assert np.all(errors <= index.certified_bound + 1e-9)

    def test_compaction_is_bit_identical_to_rebuild(self, point_cloud):
        xs, ys = point_cloud
        rng = np.random.default_rng(2)
        index = UpdatablePolyFit2DIndex.build(
            xs, ys, delta=40.0, grid_resolution=48,
            policy=CompactionPolicy(auto=False),
        )
        new_x = rng.uniform(0, 10, 500)
        new_y = rng.uniform(0, 10, 500)
        index.insert(new_x, new_y)
        assert index.compact()
        assert index.epoch == 1 and index.buffer_size == 0
        scratch = PolyFit2DIndex.build(
            np.concatenate([xs, new_x]), np.concatenate([ys, new_y]),
            delta=40.0, grid_resolution=48,
        )
        bounds = _rects(rng, 200)
        assert np.array_equal(
            index.estimate_batch(*bounds), scratch.estimate_batch(*bounds)
        )

    def test_sum_requires_measures_and_rejects_negative(self, point_cloud):
        xs, ys = point_cloud
        weights = np.random.default_rng(3).uniform(0.5, 2.0, xs.size)
        index = UpdatablePolyFit2DIndex.build(
            xs, ys, measures=weights, aggregate=Aggregate.SUM, delta=60.0,
            grid_resolution=32, policy=CompactionPolicy(auto=False),
        )
        with pytest.raises(DataError):
            index.insert([1.0], [1.0])
        with pytest.raises(DataError):
            index.insert([1.0], [1.0], measures=[-1.0])
        index.insert([1.0], [1.0], measures=[2.5])
        before = index.exact(RangeQuery2D(0, 10, 0, 10, Aggregate.SUM))
        assert before == pytest.approx(weights.sum() + 2.5)

    def test_guarantee_path(self, point_cloud):
        xs, ys = point_cloud
        rng = np.random.default_rng(4)
        index = UpdatablePolyFit2DIndex.build(
            xs, ys, delta=40.0, grid_resolution=48,
            policy=CompactionPolicy(auto=False),
        )
        index.insert(rng.uniform(0, 10, 200), rng.uniform(0, 10, 200))
        bounds = _rects(rng, 80)
        result = index.query_batch(*bounds, Guarantee.relative(0.05))
        exact = index.exact_batch(*bounds)
        assert np.all(result.guaranteed)
        relative = np.abs(result.values - exact) / np.maximum(np.abs(exact), 1e-12)
        assert np.all(relative[exact != 0] <= 0.05 + 1e-9)

    def test_auto_compaction(self, point_cloud):
        xs, ys = point_cloud
        rng = np.random.default_rng(5)
        index = UpdatablePolyFit2DIndex.build(
            xs, ys, delta=40.0, grid_resolution=32,
            policy=CompactionPolicy(max_buffer=100, auto=True),
        )
        index.insert(rng.uniform(0, 10, 99), rng.uniform(0, 10, 99))
        assert index.epoch == 0
        index.insert(rng.uniform(0, 10, 1), rng.uniform(0, 10, 1))
        assert index.epoch == 1 and index.buffer_size == 0
