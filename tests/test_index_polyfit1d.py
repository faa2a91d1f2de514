"""Tests for the one-key PolyFit index."""

import numpy as np
import pytest

from repro import (
    Aggregate,
    Guarantee,
    IndexConfig,
    PolyFitIndex,
    RangeQuery,
    generate_range_queries,
)
from repro.config import FitConfig, SegmentationConfig
from repro.errors import DataError, GuaranteeNotSatisfiedError, NotSupportedError, QueryError


class TestBuild:
    def test_build_count_with_guarantee(self, tweet_small):
        keys, _ = tweet_small
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT,
                                   guarantee=Guarantee.absolute(200.0))
        assert index.aggregate is Aggregate.COUNT
        assert index.delta == 100.0  # Lemma 2
        assert index.num_segments >= 1

    def test_build_max_with_guarantee(self, hki_small):
        keys, measures = hki_small
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.MAX,
                                   guarantee=Guarantee.absolute(200.0))
        assert index.delta == 200.0  # Lemma 4

    def test_build_with_explicit_delta(self, tweet_small):
        keys, _ = tweet_small
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=50.0)
        assert index.delta == 50.0

    def test_build_requires_delta_or_guarantee(self, tweet_small):
        keys, _ = tweet_small
        with pytest.raises(QueryError):
            PolyFitIndex.build(keys, aggregate=Aggregate.COUNT)

    def test_relative_guarantee_rejected_at_build(self, tweet_small):
        keys, _ = tweet_small
        with pytest.raises(QueryError):
            PolyFitIndex.build(keys, aggregate=Aggregate.COUNT,
                               guarantee=Guarantee.relative(0.01))

    def test_sum_requires_measures(self, tweet_small):
        keys, _ = tweet_small
        with pytest.raises(DataError):
            PolyFitIndex.build(keys, aggregate=Aggregate.SUM, delta=10.0)

    def test_count_ignores_missing_measures(self, tweet_small):
        keys, _ = tweet_small
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=100.0)
        assert index.num_segments >= 1

    def test_smaller_delta_more_segments(self, tweet_small):
        keys, _ = tweet_small
        loose = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=500.0)
        tight = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=20.0)
        assert tight.num_segments >= loose.num_segments

    def test_degree_recorded(self, tweet_small, fast_config):
        keys, _ = tweet_small
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=100.0,
                                   config=fast_config)
        assert index.degree == 2

    def test_segments_within_budget(self, count_index):
        assert all(s.max_error <= count_index.delta + 1e-9 for s in count_index.segments)

    def test_size_in_bytes_positive_and_smaller_than_data(self, count_index, tweet_small):
        keys, _ = tweet_small
        assert 0 < count_index.size_in_bytes() < 16 * keys.size

    def test_from_function(self, tweet_small):
        from repro.functions import build_cumulative_function

        keys, _ = tweet_small
        cf = build_cumulative_function(keys, aggregate=Aggregate.COUNT)
        index = PolyFitIndex.from_function(cf, delta=100.0)
        assert index.aggregate is Aggregate.COUNT

    @pytest.mark.parametrize("aggregate", [Aggregate.COUNT, Aggregate.SUM, Aggregate.MAX])
    def test_from_function_matches_build_with_duplicate_keys(self, aggregate):
        # The function's samples are segmented as they are: a cumulative
        # function's running sums must not be re-read as raw measures.
        from repro.functions import build_cumulative_function, build_key_measure_function

        rng = np.random.default_rng(17)
        keys = rng.integers(0, 1000, 5000).astype(np.float64)
        measures = rng.uniform(1.0, 10.0, keys.size)
        if aggregate.is_cumulative:
            function = build_cumulative_function(keys, measures, aggregate=aggregate)
        else:
            function = build_key_measure_function(keys, measures, aggregate=aggregate)
        from_function = PolyFitIndex.from_function(function, delta=50.0)
        built = PolyFitIndex.build(keys, measures, aggregate, delta=50.0)

        lows = np.array([100.0, 0.0, 250.5, 999.0])
        highs = np.array([600.0, 1000.0, 251.5, 999.0])
        assert np.array_equal(
            from_function.exact_batch(lows, highs),
            built.exact_batch(lows, highs),
            equal_nan=True,
        )
        for guarantee in (None, Guarantee.relative(0.01)):
            got = from_function.query_batch(lows, highs, guarantee)
            want = built.query_batch(lows, highs, guarantee)
            assert np.array_equal(got.values, want.values, equal_nan=True)
            assert np.array_equal(got.exact_fallback, want.exact_fallback)


class TestCountQueries:
    def test_absolute_guarantee_holds(self, count_index, tweet_small):
        keys, _ = tweet_small
        eps = 100.0
        queries = generate_range_queries(keys, 100, Aggregate.COUNT, seed=1)
        for query in queries:
            result = count_index.query(query, Guarantee.absolute(eps))
            exact = count_index.exact(query)
            assert result.guaranteed
            assert abs(result.value - exact) <= eps + 1e-6

    def test_error_bound_reported(self, count_index):
        result = count_index.query(RangeQuery(-10.0, 10.0, Aggregate.COUNT))
        assert result.error_bound == pytest.approx(2 * count_index.delta)

    def test_relative_guarantee_with_fallback(self, count_index, tweet_small):
        keys, _ = tweet_small
        eps = 0.01
        queries = generate_range_queries(keys, 100, Aggregate.COUNT, seed=2)
        for query in queries:
            result = count_index.query(query, Guarantee.relative(eps))
            exact = count_index.exact(query)
            if exact > 0:
                assert abs(result.value - exact) / exact <= eps + 1e-9

    def test_relative_fallback_used_for_tiny_ranges(self, count_index, tweet_small):
        keys, _ = tweet_small
        # A range containing very few records cannot be certified.
        tiny = RangeQuery(keys[10], keys[12], Aggregate.COUNT)
        result = count_index.query(tiny, Guarantee.relative(0.01))
        assert result.exact_fallback
        assert result.value == count_index.exact(tiny)

    def test_query_out_of_domain_low(self, count_index, tweet_small):
        keys, _ = tweet_small
        query = RangeQuery(keys[0] - 100.0, keys[-1] + 100.0, Aggregate.COUNT)
        result = count_index.query(query, Guarantee.absolute(100.0))
        assert result.value == pytest.approx(keys.size, abs=100.0)

    def test_empty_range_small_answer(self, count_index, tweet_small):
        keys, _ = tweet_small
        query = RangeQuery(keys[0] - 50.0, keys[0] - 10.0, Aggregate.COUNT)
        assert abs(count_index.query_value(query.low, query.high)) <= 2 * count_index.delta

    def test_aggregate_mismatch_rejected(self, count_index):
        with pytest.raises(NotSupportedError):
            count_index.query(RangeQuery(0.0, 1.0, Aggregate.MAX))

    def test_looser_build_than_requested_not_guaranteed(self, tweet_small):
        keys, _ = tweet_small
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=200.0)
        result = index.query(RangeQuery(keys[0], keys[-1], Aggregate.COUNT),
                             Guarantee.absolute(10.0))
        assert not result.guaranteed

    def test_require_guarantee_raises_without_fallback(self, count_index, tweet_small):
        keys, _ = tweet_small
        tiny = RangeQuery(keys[10], keys[11], Aggregate.COUNT)
        with pytest.raises(GuaranteeNotSatisfiedError):
            count_index.require_guarantee(tiny, Guarantee.relative(0.01))

    def test_require_guarantee_absolute_mismatch(self, tweet_small):
        keys, _ = tweet_small
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=200.0)
        with pytest.raises(GuaranteeNotSatisfiedError):
            index.require_guarantee(RangeQuery(keys[0], keys[-1], Aggregate.COUNT),
                                    Guarantee.absolute(10.0))


class TestSumQueries:
    def test_sum_absolute_guarantee(self, tweet_small):
        keys, measures = tweet_small
        eps = 500.0
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.SUM,
                                   guarantee=Guarantee.absolute(eps))
        queries = generate_range_queries(keys, 60, Aggregate.SUM, seed=3)
        for query in queries:
            result = index.query(query, Guarantee.absolute(eps))
            exact = index.exact(query)
            assert abs(result.value - exact) <= eps + 1e-6


class TestMaxQueries:
    def test_max_absolute_guarantee(self, max_index, hki_small):
        keys, _ = hki_small
        eps = 100.0
        queries = generate_range_queries(keys, 100, Aggregate.MAX, seed=4)
        for query in queries:
            exact = max_index.exact(query)
            if np.isnan(exact):
                continue
            result = max_index.query(query, Guarantee.absolute(eps))
            assert abs(result.value - exact) <= eps + 1e-6

    def test_max_relative_guarantee_with_fallback(self, max_index, hki_small):
        keys, _ = hki_small
        eps = 0.01
        queries = generate_range_queries(keys, 60, Aggregate.MAX, seed=5)
        for query in queries:
            exact = max_index.exact(query)
            if np.isnan(exact) or exact <= 0:
                continue
            result = max_index.query(query, Guarantee.relative(eps))
            assert abs(result.value - exact) / exact <= eps + 1e-9

    def test_min_index(self, hki_small):
        keys, measures = hki_small
        eps = 100.0
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.MIN,
                                   guarantee=Guarantee.absolute(eps))
        queries = generate_range_queries(keys, 60, Aggregate.MIN, seed=6)
        for query in queries:
            exact = index.exact(query)
            if np.isnan(exact):
                continue
            result = index.query(query, Guarantee.absolute(eps))
            assert abs(result.value - exact) <= eps + 1e-6

    def test_single_segment_query(self, max_index, hki_small):
        keys, _ = hki_small
        # A query entirely inside the first segment's key span.
        segment = max_index.segments[0]
        query = RangeQuery(segment.key_low, segment.key_high, Aggregate.MAX)
        exact = max_index.exact(query)
        assert abs(max_index.query(query).value - exact) <= max_index.delta + 1e-6

    def test_max_error_bound_is_delta(self, max_index):
        result = max_index.query(
            RangeQuery(max_index.segments[0].key_low, max_index.segments[-1].key_high,
                       Aggregate.MAX)
        )
        assert result.error_bound == pytest.approx(max_index.delta)


class TestDegreeVariants:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_guarantee_holds_for_all_degrees(self, degree, tweet_small):
        keys, _ = tweet_small
        eps = 200.0
        config = IndexConfig(fit=FitConfig(degree=degree),
                             segmentation=SegmentationConfig(delta=eps / 2))
        index = PolyFitIndex.build(keys[:1500], aggregate=Aggregate.COUNT,
                                   guarantee=Guarantee.absolute(eps), config=config)
        queries = generate_range_queries(keys[:1500], 40, Aggregate.COUNT, seed=degree)
        for query in queries:
            exact = index.exact(query)
            assert abs(index.query(query).value - exact) <= eps + 1e-6

    def test_higher_degree_fewer_or_equal_segments(self, tweet_small):
        keys, _ = tweet_small
        subset = keys[:1500]
        counts = {}
        for degree in (1, 2):
            config = IndexConfig(fit=FitConfig(degree=degree),
                                 segmentation=SegmentationConfig(delta=25.0))
            index = PolyFitIndex.build(subset, aggregate=Aggregate.COUNT, delta=25.0,
                                       config=config)
            counts[degree] = index.num_segments
        assert counts[2] <= counts[1]
