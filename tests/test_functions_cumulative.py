"""Tests for the key-cumulative function (CFsum / CFcount)."""

import numpy as np
import pytest

from repro import Aggregate
from repro.baselines import KeyCumulativeArray
from repro.errors import DataError, QueryError
from repro.functions import build_cumulative_function


class TestBuildCumulativeFunction:
    def test_count_is_cumsum_of_ones(self):
        keys = np.array([1.0, 2.0, 3.0, 4.0])
        cf = build_cumulative_function(keys, aggregate=Aggregate.COUNT)
        np.testing.assert_array_equal(cf.values, [1.0, 2.0, 3.0, 4.0])

    def test_sum_accumulates_measures(self):
        keys = np.array([1.0, 2.0, 3.0])
        measures = np.array([5.0, 7.0, 1.0])
        cf = build_cumulative_function(keys, measures, Aggregate.SUM)
        np.testing.assert_array_equal(cf.values, [5.0, 12.0, 13.0])

    def test_unsorted_input_is_sorted(self):
        keys = np.array([3.0, 1.0, 2.0])
        measures = np.array([30.0, 10.0, 20.0])
        cf = build_cumulative_function(keys, measures, Aggregate.SUM)
        np.testing.assert_array_equal(cf.keys, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(cf.values, [10.0, 30.0, 60.0])

    def test_presorted_flag_validates(self):
        with pytest.raises(DataError):
            build_cumulative_function(
                np.array([3.0, 1.0]), np.array([1.0, 1.0]), presorted=True
            )

    def test_duplicate_keys_collapsed(self):
        keys = np.array([1.0, 1.0, 2.0])
        measures = np.array([2.0, 3.0, 4.0])
        cf = build_cumulative_function(keys, measures, Aggregate.SUM)
        np.testing.assert_array_equal(cf.keys, [1.0, 2.0])
        np.testing.assert_array_equal(cf.values, [5.0, 9.0])

    def test_negative_measures_rejected_for_sum(self):
        with pytest.raises(DataError):
            build_cumulative_function(
                np.array([1.0, 2.0]), np.array([1.0, -1.0]), Aggregate.SUM
            )

    def test_count_ignores_measures(self):
        keys = np.array([1.0, 2.0])
        cf = build_cumulative_function(keys, np.array([100.0, 200.0]), Aggregate.COUNT)
        np.testing.assert_array_equal(cf.values, [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_cumulative_function(np.array([]))

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            build_cumulative_function(np.array([1.0, np.nan]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            build_cumulative_function(np.array([1.0, 2.0]), np.array([1.0]))

    def test_max_aggregate_rejected(self):
        with pytest.raises(DataError):
            build_cumulative_function(np.array([1.0]), aggregate=Aggregate.MAX)


class TestCumulativeEvaluation:
    @pytest.fixture()
    def cf(self):
        keys = np.array([10.0, 20.0, 30.0, 40.0])
        measures = np.array([1.0, 2.0, 3.0, 4.0])
        return build_cumulative_function(keys, measures, Aggregate.SUM)

    def test_evaluate_below_domain_is_zero(self, cf):
        assert cf.evaluate(5.0) == 0.0

    def test_evaluate_at_key_includes_it(self, cf):
        assert cf.evaluate(20.0) == 3.0

    def test_evaluate_between_keys(self, cf):
        assert cf.evaluate(25.0) == 3.0

    def test_evaluate_above_domain_is_total(self, cf):
        assert cf.evaluate(100.0) == cf.total == 10.0

    def test_evaluate_vectorized(self, cf):
        values = cf.evaluate(np.array([5.0, 20.0, 100.0]))
        np.testing.assert_array_equal(values, [0.0, 3.0, 10.0])

    def test_range_sum_inclusive_bounds(self, cf):
        # [20, 30] includes both records at 20 and 30.
        assert cf.range_sum(20.0, 30.0) == 5.0

    def test_range_sum_full_domain(self, cf):
        assert cf.range_sum(0.0, 100.0) == 10.0

    def test_range_sum_empty_region(self, cf):
        assert cf.range_sum(21.0, 29.0) == 0.0

    def test_range_sum_invalid_range(self, cf):
        with pytest.raises(QueryError):
            cf.range_sum(30.0, 20.0)

    def test_range_sum_matches_brute_force(self):
        rng = np.random.default_rng(5)
        keys = np.sort(rng.uniform(0, 100, size=200))
        measures = rng.uniform(0, 10, size=200)
        cf = build_cumulative_function(keys, measures, Aggregate.SUM)
        for _ in range(50):
            low, high = np.sort(rng.uniform(0, 100, size=2))
            expected = measures[(keys >= low) & (keys <= high)].sum()
            assert cf.range_sum(low, high) == pytest.approx(expected)

    # Ranges below, above and between the keys, plus empty and degenerate
    # ones: the batch paths must equal the scalar oracle exactly.
    EDGE_LOWS = np.array([0.0, 1.0, 45.0, 50.0, 21.0, 20.0, 30.0, 0.0, 40.0, 10.0])
    EDGE_HIGHS = np.array([5.0, 9.5, 60.0, 50.0, 29.0, 20.0, 30.0, 100.0, 40.0, 10.0])

    def test_batch_matches_scalar_out_of_domain(self, cf):
        keys = np.concatenate((self.EDGE_LOWS, self.EDGE_HIGHS))
        assert np.array_equal(cf.evaluate(keys), [cf.evaluate(float(k)) for k in keys])
        batch = cf.range_sum_batch(self.EDGE_LOWS, self.EDGE_HIGHS)
        scalar = [cf.range_sum(lo, hi) for lo, hi in zip(self.EDGE_LOWS, self.EDGE_HIGHS)]
        assert np.array_equal(batch, scalar)
        assert np.array_equal(batch[:5], np.zeros(5))

    def test_kca_batch_matches_scalar_out_of_domain(self, cf):
        kca = KeyCumulativeArray.from_cumulative(cf)
        keys = np.concatenate((self.EDGE_LOWS, self.EDGE_HIGHS))
        assert np.array_equal(
            kca.evaluate_batch(keys), [kca.evaluate(float(k)) for k in keys]
        )
        batch = kca.range_aggregate_batch(self.EDGE_LOWS, self.EDGE_HIGHS)
        scalar = [
            kca.range_aggregate(lo, hi) for lo, hi in zip(self.EDGE_LOWS, self.EDGE_HIGHS)
        ]
        assert np.array_equal(batch, scalar)

    def test_slice_points(self, cf):
        keys, values = cf.slice_points(1, 3)
        np.testing.assert_array_equal(keys, [20.0, 30.0])
        np.testing.assert_array_equal(values, [3.0, 6.0])

    def test_slice_points_bad_bounds(self, cf):
        with pytest.raises(QueryError):
            cf.slice_points(3, 1)

    def test_monotone_values(self):
        rng = np.random.default_rng(6)
        keys = np.sort(rng.uniform(0, 1, size=100))
        measures = rng.uniform(0, 5, size=100)
        cf = build_cumulative_function(keys, measures, Aggregate.SUM)
        assert np.all(np.diff(cf.values) >= 0)
