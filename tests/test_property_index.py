"""Property-based tests for the PolyFit indexes: guarantees on random data."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Aggregate, Guarantee, PolyFitIndex, RangeQuery
from repro.baselines import BruteForceAggregator
from repro.config import FitConfig, IndexConfig
from repro.index.codec import load_index, save_index


def _dataset_strategy(min_size=10, max_size=60):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(min_value=0, max_value=1e4, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
                unique=True,
            ),
            st.lists(
                st.floats(min_value=0, max_value=1e3, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            ),
        )
    )


class TestCountGuaranteeProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        data=_dataset_strategy(),
        eps=st.floats(min_value=2.0, max_value=100.0),
        bounds=st.tuples(
            st.floats(min_value=-100, max_value=1.1e4, allow_nan=False),
            st.floats(min_value=-100, max_value=1.1e4, allow_nan=False),
        ),
    )
    def test_absolute_count_guarantee(self, data, eps, bounds):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT,
                                   guarantee=Guarantee.absolute(eps))
        low, high = min(bounds), max(bounds)
        query = RangeQuery(low, high, Aggregate.COUNT)
        exact = float(np.count_nonzero((keys >= low) & (keys <= high)))
        result = index.query(query, Guarantee.absolute(eps))
        assert abs(result.value - exact) <= eps + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(data=_dataset_strategy(), eps=st.floats(min_value=0.005, max_value=0.5))
    def test_relative_count_guarantee_with_fallback(self, data, eps):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=5.0)
        low, high = float(keys[0]), float(keys[-1])
        query = RangeQuery(low, high, Aggregate.COUNT)
        exact = float(keys.size)
        result = index.query(query, Guarantee.relative(eps))
        assert abs(result.value - exact) <= eps * exact + 1e-6


class TestSumGuaranteeProperty:
    @settings(max_examples=15, deadline=None)
    @given(data=_dataset_strategy(), eps=st.floats(min_value=10.0, max_value=500.0))
    def test_absolute_sum_guarantee(self, data, eps):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        measures = np.asarray(data[1], dtype=np.float64)
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.SUM,
                                   guarantee=Guarantee.absolute(eps))
        brute = BruteForceAggregator(keys, measures)
        low, high = float(keys[len(keys) // 4]), float(keys[-1])
        query = RangeQuery(low, high, Aggregate.SUM)
        exact = brute.range_aggregate(low, high, Aggregate.SUM)
        assert abs(index.query(query).value - exact) <= eps + 1e-6


class TestMaxGuaranteeProperty:
    @settings(max_examples=15, deadline=None)
    @given(data=_dataset_strategy(min_size=15, max_size=50),
           eps=st.floats(min_value=5.0, max_value=200.0))
    def test_absolute_max_guarantee(self, data, eps):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        measures = np.asarray(data[1], dtype=np.float64)
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.MAX,
                                   guarantee=Guarantee.absolute(eps))
        brute = BruteForceAggregator(keys, measures)
        low, high = float(keys[2]), float(keys[-3])
        exact = brute.range_aggregate(low, high, Aggregate.MAX)
        if np.isnan(exact):
            return
        result = index.query(RangeQuery(low, high, Aggregate.MAX))
        assert abs(result.value - exact) <= eps + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(data=_dataset_strategy(min_size=15, max_size=50),
           eps=st.floats(min_value=5.0, max_value=200.0))
    def test_absolute_min_guarantee(self, data, eps):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        measures = np.asarray(data[1], dtype=np.float64)
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.MIN,
                                   guarantee=Guarantee.absolute(eps))
        brute = BruteForceAggregator(keys, measures)
        low, high = float(keys[2]), float(keys[-3])
        exact = brute.range_aggregate(low, high, Aggregate.MIN)
        if np.isnan(exact):
            return
        result = index.query(RangeQuery(low, high, Aggregate.MIN))
        assert abs(result.value - exact) <= eps + 1e-6


def _extreme_reference(index, keys, measures, low, high):
    """Lemma 4's MAX/MIN answer by brute force: the covering segment's
    polynomial at every in-range sample of the two boundary segments, and
    the true extremes of the segments strictly between them."""
    pick = max if index.aggregate is Aggregate.MAX else min
    lo = int(np.searchsorted(keys, low, side="left"))
    hi = int(np.searchsorted(keys, high, side="right")) - 1
    if hi < lo:
        return float("nan")
    segments = index.segments
    starts = [segment.start for segment in segments]
    first = int(np.searchsorted(starts, lo, side="right")) - 1
    last = int(np.searchsorted(starts, hi, side="right")) - 1
    values = []
    for segment in (segments[row] for row in {first, last}):
        window = keys[max(lo, segment.start): min(hi, segment.stop - 1) + 1]
        values += np.atleast_1d(segment.polynomial(window)).tolist()
    for segment in segments[first + 1:last]:
        values.append(pick(measures[segment.start: segment.stop].tolist()))
    return float(pick(values))


def _extreme_bounds(keys, index, rng):
    """Query bounds of every shape the extreme path distinguishes: on-key,
    off-key, empty (between two samples), inside one segment, and outside
    the data on either side."""
    span = max(keys[-1] - keys[0], 1.0)
    lows, highs = [], []
    for _ in range(6):
        a, b = np.sort(rng.choice(keys, 2))
        lows.append(a)
        highs.append(b)
        a, b = np.sort(rng.uniform(keys[0] - 0.1 * span, keys[-1] + 0.1 * span, 2))
        lows.append(a)
        highs.append(b)
        segment = index.segments[rng.integers(index.num_segments)]
        inside = keys[segment.start: segment.stop]
        a, b = np.sort(rng.choice(inside, 2))
        lows.append(a)
        highs.append(b)
    if keys.size > 1:
        i = rng.integers(keys.size - 1)
        middle = (keys[i] + keys[i + 1]) / 2
        lows.append(middle)
        highs.append(middle)
    lows += [keys[-1] + 1.0, keys[0] - 2.0, keys[0] - 1.0]
    highs += [keys[-1] + 2.0, keys[0] - 1.0, keys[-1] + 1.0]
    return np.array(lows), np.array(highs)


class TestExtremeAnswerRule:
    """One MAX/MIN answer rule: the scalar oracle, the batch path and a
    brute-force reference agree bit for bit, stay within the certified
    bound, and survive a save/load round trip."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=_dataset_strategy(min_size=2, max_size=80),
        degree=st.integers(min_value=1, max_value=3),
        aggregate=st.sampled_from([Aggregate.MAX, Aggregate.MIN]),
        delta=st.floats(min_value=0.5, max_value=300.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # Halving this key span underflows to zero; the fit used to overflow.
    @example(data=([0.0, 5e-324], [1.0, 0.0]), degree=1, aggregate=Aggregate.MAX,
             delta=1.0, seed=0)
    def test_scalar_batch_reference_and_bound(self, data, degree, aggregate, delta, seed):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        measures = np.asarray(data[1], dtype=np.float64)
        config = IndexConfig(fit=FitConfig(degree=degree))
        index = PolyFitIndex.build(keys, measures, aggregate, delta=delta, config=config)
        lows, highs = _extreme_bounds(keys, index, np.random.default_rng(seed))

        batch = index.estimate_batch(lows, highs)
        scalar = np.array([index.estimate(RangeQuery(low, high, aggregate))
                           for low, high in zip(lows, highs)])
        reference = np.array([_extreme_reference(index, keys, measures, low, high)
                              for low, high in zip(lows, highs)])
        assert np.array_equal(batch, scalar, equal_nan=True)
        assert np.array_equal(batch, reference, equal_nan=True)

        exact = index.exact_batch(lows, highs)
        assert np.array_equal(np.isnan(batch), np.isnan(exact))
        answered = ~np.isnan(exact)
        slack = 1e-9 * np.maximum(1.0, np.abs(exact[answered]))
        assert np.all(np.abs(batch[answered] - exact[answered])
                      <= index.certified_bound + slack)

        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "index.pfbin")
            save_index(index, path)
            loaded = load_index(path, mmap=False)
        assert np.array_equal(loaded.estimate_batch(lows, highs), batch, equal_nan=True)


class TestExtremeBuildRobustness:
    """MAX/MIN builds whose polynomials sit at the edge of float range stay
    finite, warning-free (``pytest.ini`` turns RuntimeWarning into an
    error) and answer the same on the scalar and batch paths."""

    @pytest.mark.parametrize("aggregate", [Aggregate.MAX, Aggregate.MIN], ids=["max", "min"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize(
        "keys, measures, delta",
        [
            (np.array([0.0, 2.2e-313, 4.3e-306, 1.5, 2.0, 3.0, 388.0]),
             np.array([0.0, 5.0, -3.0, 1.0, 0.0, 2.0, 7.0]), 1.0),
            (np.linspace(0.0, 50.0, 40),
             np.where(np.arange(40) % 3 == 0, 1e300, -1e300), 1.0),
            (np.arange(12.0), np.array([0.0, 100.0] * 6), 0.5),
        ],
        ids=["subnormal-span", "pm1e300", "one-sample-segments"],
    )
    def test_build_and_answer(self, keys, measures, delta, degree, aggregate):
        config = IndexConfig(fit=FitConfig(degree=degree))
        index = PolyFitIndex.build(keys, measures, aggregate, delta=delta, config=config)
        lows = np.concatenate((keys, keys[:1], [keys[0] - 1.0]))
        highs = np.concatenate((keys, keys[-1:], [keys[-1] + 1.0]))
        batch = index.estimate_batch(lows, highs)
        scalar = [index.estimate(RangeQuery(low, high, aggregate))
                  for low, high in zip(lows, highs)]
        assert np.all(np.isfinite(batch))
        assert np.array_equal(batch, scalar)


class TestStructuralProperties:
    @settings(max_examples=15, deadline=None)
    @given(data=_dataset_strategy(), delta=st.floats(min_value=1.0, max_value=100.0))
    def test_segments_partition_domain(self, data, delta):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=delta)
        segments = index.segments
        assert segments[0].start == 0
        assert segments[-1].stop == keys.size
        for previous, current in zip(segments, segments[1:]):
            assert current.start == previous.stop
            assert current.key_low > previous.key_high

    @settings(max_examples=10, deadline=None)
    @given(data=_dataset_strategy())
    def test_index_smaller_with_larger_delta(self, data):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        tight = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=1.0)
        loose = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=100.0)
        assert loose.num_segments <= tight.num_segments
        assert loose.size_in_bytes() <= tight.size_in_bytes()
