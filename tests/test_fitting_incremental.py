"""Tests for the fast construction layer: incremental fitters, the Remez
exchange, the zero-solve GS passes, and the parallel quadtree build.

The LP of Equation 9 is the correctness oracle throughout: the incremental
degree-0/1 fitters and the Remez solver must reproduce its minimax error to
tolerance, and the accelerated Greedy Segmentation must reproduce the
segmentations of the LP-per-probe baseline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import QuadTreeConfig
from repro.datasets import osm_points, tweet_latitudes
from repro.errors import FittingError
from repro.fitting import (
    IncrementalConstantFitter,
    IncrementalLinearFitter,
    build_quadtree_surface,
    dp_segmentation,
    fit_incremental_polynomial,
    fit_minimax_polynomial,
    greedy_segmentation,
    longest_feasible_prefix,
)
from repro.fitting.quadtree import quadtree_build_signature
from repro.functions.cumulative2d import build_cumulative_2d


def _error_close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b)) + 1e-9 * max(1.0, scale)


def _random_function(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.uniform(0.0, 1000.0, n))
    keys += np.arange(n) * 1e-9
    values = np.cumsum(rng.uniform(0.0, 50.0, n))
    return keys, values


# Monotone random functions for the property tests; values are cumulative
# sums (the shape GS actually segments) and keys may contain exact ties.
_datasets = st.integers(min_value=3, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=0, max_value=1e3, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        ),
    )
)


def _make_function(raw_keys, raw_steps, keep_ties: bool):
    # Quantize keys to a 1/64 grid: this *creates* coincident keys (the tie
    # handling under test) while keeping every key gap representable — raw
    # hypothesis floats include spans like 5e-324 whose interpolating slope
    # overflows double precision, a regime where the LP baseline itself
    # breaks down and no boundary comparison is meaningful.
    keys = np.sort(np.round(np.asarray(raw_keys, dtype=np.float64) * 64.0) / 64.0)
    if not keep_ties:
        keys = keys + np.arange(keys.size) * 1e-7
    values = np.cumsum(np.abs(np.asarray(raw_steps, dtype=np.float64)))
    return keys, values


class TestIncrementalFittersMatchLP:
    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_lp_error_on_random_monotone_data(self, degree, seed):
        keys, values = _random_function(80, seed)
        incremental = fit_incremental_polynomial(keys, values, degree)
        lp = fit_minimax_polynomial(keys, values, degree, solver="lp")
        assert _error_close(incremental.max_error, lp.max_error, values[-1])

    @settings(max_examples=40, deadline=None)
    @given(data=_datasets, degree=st.integers(min_value=0, max_value=1),
           keep_ties=st.booleans())
    def test_matches_lp_error_property(self, data, degree, keep_ties):
        keys, values = _make_function(*data, keep_ties=keep_ties)
        incremental = fit_incremental_polynomial(keys, values, degree)
        lp = fit_minimax_polynomial(keys, values, degree, solver="lp")
        scale = float(np.max(np.abs(values))) if values.size else 1.0
        # One-sided by design: the hull fitter is exact, so it can only ever
        # *beat* the LP (by the LP's own conditioning noise), never lose.
        assert incremental.max_error <= lp.max_error + 1e-6 * max(1.0, scale)
        # Every reported error is achieved under Horner evaluation, so the
        # exact fitter cannot under-report either.
        residual = np.max(np.abs(values - np.asarray(incremental.polynomial(keys))))
        assert residual <= incremental.max_error + 1e-9 * max(1.0, scale)

    def test_degenerate_span_single_key(self):
        keys = np.full(7, 42.0)
        values = np.array([0.0, 5.0, 1.0, 9.0, 3.0, 9.0, 2.0])
        for degree in (0, 1):
            fit = fit_incremental_polynomial(keys, values, degree)
            assert fit.max_error == pytest.approx(4.5)

    def test_coincident_keys_mixed(self):
        keys = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 5.0])
        values = np.array([0.0, 1.0, 3.0, 2.0, 4.0, 4.0, 10.0])
        for degree in (0, 1):
            incremental = fit_incremental_polynomial(keys, values, degree)
            lp = fit_minimax_polynomial(keys, values, degree, solver="lp")
            assert _error_close(incremental.max_error, lp.max_error)

    def test_unsorted_input_accepted(self):
        rng = np.random.default_rng(9)
        keys = rng.uniform(0, 100, 50)
        values = rng.uniform(0, 10, 50)
        incremental = fit_incremental_polynomial(keys, values, 1)
        lp = fit_minimax_polynomial(keys, values, 1, solver="lp")
        assert _error_close(incremental.max_error, lp.max_error)

    def test_rejects_higher_degree(self):
        with pytest.raises(FittingError):
            fit_incremental_polynomial(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 2)

    def test_linear_fitter_rejects_unsorted_appends(self):
        fitter = IncrementalLinearFitter()
        fitter.append(1.0, 1.0)
        with pytest.raises(FittingError):
            fitter.append(0.5, 2.0)

    def test_constant_fitter_running_error(self):
        fitter = IncrementalConstantFitter()
        errors = []
        for y in (3.0, 7.0, 1.0, 5.0):
            fitter.append(0.0, y)
            errors.append(fitter.error())
        assert errors == [0.0, 2.0, 3.0, 3.0]
        assert fitter.error_with(11.0) == 5.0
        assert fitter.error() == 3.0  # error_with does not mutate


class TestRemezMatchesLP:
    @pytest.mark.parametrize("degree", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lp_error(self, degree, seed):
        keys, values = _random_function(150, seed)
        remez = fit_minimax_polynomial(keys, values, degree, solver="remez")
        lp = fit_minimax_polynomial(keys, values, degree, solver="lp")
        assert _error_close(remez.max_error, lp.max_error, values[-1])

    @settings(max_examples=25, deadline=None)
    @given(data=_datasets, degree=st.integers(min_value=2, max_value=3))
    def test_matches_lp_error_property(self, data, degree):
        keys, values = _make_function(*data, keep_ties=False)
        remez = fit_minimax_polynomial(keys, values, degree, solver="remez")
        lp = fit_minimax_polynomial(keys, values, degree, solver="lp")
        scale = float(np.max(np.abs(values))) if values.size else 1.0
        # One-sided: on badly conditioned references the LP itself can be the
        # suboptimal side (the exchange's interpolation fast path wins), so
        # the invariant is "never worse than the LP", with equality to
        # tolerance on well-posed inputs (covered by the seeded tests above).
        assert remez.max_error <= lp.max_error + 1e-5 * max(1.0, scale)

    def test_known_chebyshev_solution(self):
        # Best degree-2 approximation of x^3 on a dense symmetric grid: the
        # equioscillation error is 1/4 after mapping to [-1, 1].
        keys = np.linspace(-1.0, 1.0, 501)
        fit = fit_minimax_polynomial(keys, keys**3, degree=2, solver="remez")
        assert fit.max_error == pytest.approx(0.25, abs=1e-4)

    def test_coincident_keys_fall_back_to_lp(self):
        keys = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        values = np.array([0.0, 2.0, 4.0, 5.0, 5.5, 8.0, 13.0])
        remez = fit_minimax_polynomial(keys, values, degree=2, solver="remez")
        lp = fit_minimax_polynomial(keys, values, degree=2, solver="lp")
        assert _error_close(remez.max_error, lp.max_error)


class TestScannerMatchesLPBoundaries:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_prefix_boundary_is_exact(self, seed):
        keys, values = _random_function(200, seed)
        delta = 40.0
        stop = longest_feasible_prefix(keys.tolist(), values.tolist(), 0, keys.size, delta)
        feasible = fit_minimax_polynomial(keys[:stop], values[:stop], 1, solver="lp")
        assert feasible.max_error <= delta + 1e-9
        if stop < keys.size:
            infeasible = fit_minimax_polynomial(keys[: stop + 1], values[: stop + 1], 1, solver="lp")
            assert infeasible.max_error > delta - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(data=_datasets, degree=st.integers(min_value=0, max_value=1),
           delta=st.floats(min_value=0.5, max_value=120.0))
    def test_gs_identical_to_lp_baseline(self, data, degree, delta):
        keys, values = _make_function(*data, keep_ties=False)
        # Nudge delta off exactly representable ties so both solvers see the
        # same side of every feasibility comparison.
        delta = delta * 1.0000061 + 0.0173
        fast = greedy_segmentation(keys, values, delta=delta, degree=degree)
        baseline = greedy_segmentation(
            keys, values, delta=delta, degree=degree, solver="lp", early_accept=False
        )
        assert [s.stop for s in fast] == [s.stop for s in baseline]
        assert all(s.max_error <= delta + 1e-6 for s in fast)

    @settings(max_examples=20, deadline=None)
    @given(data=_datasets, delta=st.floats(min_value=0.5, max_value=120.0))
    def test_gs_with_coincident_keys(self, data, delta):
        keys, values = _make_function(*data, keep_ties=True)
        delta = delta * 1.0000061 + 0.0173
        fast = greedy_segmentation(keys, values, delta=delta, degree=1)
        baseline = greedy_segmentation(
            keys, values, delta=delta, degree=1, solver="lp", early_accept=False
        )
        assert [s.stop for s in fast] == [s.stop for s in baseline]
        assert fast[0].start == 0 and fast[-1].stop == keys.size
        for previous, current in zip(fast, fast[1:]):
            assert current.start == previous.stop

    @pytest.mark.parametrize("degree", [2, 3])
    def test_gs_degree2_equal_counts_and_budget(self, degree):
        keys, values = _random_function(400, seed=5)
        delta = 25.0
        fast = greedy_segmentation(keys, values, delta=delta, degree=degree)
        baseline = greedy_segmentation(
            keys, values, delta=delta, degree=degree, solver="lp", early_accept=False
        )
        assert len(fast) == len(baseline)
        assert all(s.max_error <= delta + 1e-9 for s in fast)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_tweet_count_function_matches_lp_baseline(self, degree):
        # The construction benchmark's workload: the COUNT cumulative
        # function of TWEET latitudes, at a budget off round float ties.
        keys, _ = tweet_latitudes(5_000, seed=101)
        values = np.arange(1, keys.size + 1, dtype=np.float64)
        delta = 100.0171
        fast = greedy_segmentation(keys, values, delta=delta, degree=degree)
        baseline = greedy_segmentation(
            keys, values, delta=delta, degree=degree, solver="lp", early_accept=False
        )
        assert all(s.max_error <= delta + 1e-9 for s in fast)
        assert len(fast) == len(baseline)
        if degree == 1:
            assert [s.stop for s in fast] == [s.stop for s in baseline]

    def test_early_accept_does_not_change_boundaries(self):
        keys, values = _random_function(300, seed=6)
        with_cert = greedy_segmentation(keys, values, delta=30.0, degree=2)
        without_cert = greedy_segmentation(
            keys, values, delta=30.0, degree=2, early_accept=False
        )
        assert [s.stop for s in with_cert] == [s.stop for s in without_cert]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_keys_regression(self):
        # A subnormal key span must not be magnified into an overflowing
        # local basis: evaluating an incumbent far outside its span stays
        # finite, so the early-accept certificate never sees inf or NaN.
        keys = np.sort(
            np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 388.0, 1.5, 4.3e-306, 2.2e-313])
        )
        values = np.zeros_like(keys)
        segments = greedy_segmentation(keys, values, delta=10.0, degree=2)
        for segment in segments:
            inside = keys[segment.start: segment.stop]
            evaluated = np.asarray(segment.polynomial(inside))
            assert np.all(np.isfinite(evaluated))
            assert np.max(np.abs(evaluated)) <= 10.0 + 1e-9

    def test_dp_matches_gs_on_moderate_input(self):
        # Also exercises the O(n) fit retention: 300 points would hold ~45k
        # cached fits under the old O(n^2) dict.
        keys, values = _random_function(300, seed=7)
        delta = 60.0
        gs = greedy_segmentation(keys, values, delta=delta, degree=1)
        dp = dp_segmentation(keys, values, delta=delta, degree=1)
        assert len(gs) == len(dp)
        assert all(s.max_error <= delta + 1e-9 for s in dp)


class TestParallelQuadtreeBuild:
    @pytest.fixture(scope="class")
    def sampled_grid(self):
        xs, ys = osm_points(6000, seed=13)
        exact = build_cumulative_2d(xs, ys)
        return exact.sample_grid(resolution=64)

    def test_parallel_build_bit_identical(self, sampled_grid):
        grid_x, grid_y, grid_cf = sampled_grid
        serial = build_quadtree_surface(
            grid_x, grid_y, grid_cf, QuadTreeConfig(delta=200.0)
        )
        parallel = build_quadtree_surface(
            grid_x,
            grid_y,
            grid_cf,
            QuadTreeConfig(delta=200.0, build_workers=2),
        )
        assert quadtree_build_signature(serial) == quadtree_build_signature(parallel)

    def test_sliced_sampling_matches_masked_sampling(self, sampled_grid):
        grid_x, grid_y, grid_cf = sampled_grid
        from repro.fitting.quadtree import _cell_samples

        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = np.sort(rng.uniform(grid_x[0], grid_x[-1], 2))
            c, d = np.sort(rng.uniform(grid_y[0], grid_y[-1], 2))
            us, vs, cf = _cell_samples(a, b, c, d, grid_x, grid_y, grid_cf)
            x_mask = (grid_x >= a) & (grid_x <= b)
            y_mask = (grid_y >= c) & (grid_y <= d)
            uu, vv = np.meshgrid(grid_x[x_mask], grid_y[y_mask], indexing="ij")
            assert np.array_equal(us, uu.ravel())
            assert np.array_equal(vs, vv.ravel())
            assert np.array_equal(cf, grid_cf[np.ix_(x_mask, y_mask)].ravel())


class TestExactBatchSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return osm_points(4000, seed=17)

    def _rectangles(self, xs, ys, n, seed):
        rng = np.random.default_rng(seed)
        ax = rng.uniform(xs.min() - 2, xs.max() + 2, (2, n))
        ay = rng.uniform(ys.min() - 2, ys.max() + 2, (2, n))
        x_lows, x_highs = np.minimum(*ax), np.maximum(*ax)
        y_lows, y_highs = np.minimum(*ay), np.maximum(*ay)
        # Edge cases: full span, empty slivers outside the data, exact hull.
        x_lows[:3] = [xs.min(), xs.max() + 1, xs.min()]
        x_highs[:3] = [xs.max(), xs.max() + 2, xs.min()]
        y_lows[:3] = [ys.min(), ys.min(), ys.min()]
        y_highs[:3] = [ys.max(), ys.max(), ys.max()]
        return x_lows, x_highs, y_lows, y_highs

    def test_count_bit_identical_to_scalar(self, points):
        xs, ys = points
        cumulative = build_cumulative_2d(xs, ys)
        bounds = self._rectangles(xs, ys, 300, seed=23)
        batch = cumulative.range_count_batch(*bounds)
        scalar = np.array(
            [cumulative.range_count(*(b[i] for b in bounds)) for i in range(300)]
        )
        assert np.array_equal(batch, scalar)

    def test_weighted_sum_matches_scalar(self, points):
        xs, ys = points
        weights = np.random.default_rng(29).uniform(0.0, 3.0, xs.size)
        cumulative = build_cumulative_2d(xs, ys, weights=weights)
        bounds = self._rectangles(xs, ys, 300, seed=31)
        batch = cumulative.range_count_batch(*bounds)
        scalar = np.array(
            [cumulative.range_count(*(b[i] for b in bounds)) for i in range(300)]
        )
        assert np.allclose(batch, scalar)

    def test_duplicate_coordinates(self):
        xs = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
        ys = np.array([5.0, 5.0, 1.0, 5.0, 2.0, 5.0])
        cumulative = build_cumulative_2d(xs, ys)
        bounds = (
            np.array([1.0, 1.0, 0.0, 2.0]),
            np.array([1.0, 3.0, 4.0, 2.0]),
            np.array([5.0, 5.0, 0.0, 2.0]),
            np.array([5.0, 5.0, 9.0, 5.0]),
        )
        batch = cumulative.range_count_batch(*bounds)
        scalar = np.array(
            [cumulative.range_count(*(b[i] for b in bounds)) for i in range(4)]
        )
        assert np.array_equal(batch, scalar)


class TestCorridorScannerResume:
    """The resumable scanner must be indistinguishable from one-shot scans."""

    @settings(max_examples=40, deadline=None)
    @given(data=_datasets, delta=st.floats(min_value=0.5, max_value=120.0),
           split=st.integers(min_value=0, max_value=39))
    def test_split_extend_equals_one_shot(self, data, delta, split):
        from repro.fitting import CorridorScanner

        raw_keys, raw_values = data
        keys = np.unique(np.asarray(raw_keys, dtype=np.float64))
        if keys.size < 1:
            return
        values = np.cumsum(np.asarray(raw_values[: keys.size], dtype=np.float64))
        keys = keys[: values.size]
        ks, vs = keys.tolist(), values.tolist()
        n = len(ks)
        one_shot = longest_feasible_prefix(ks, vs, 0, n, delta)

        cut = min(split % (n + 1), n)
        scanner = CorridorScanner(delta)
        first = scanner.extend(ks, vs, 0, cut)
        if first < cut:
            # Infeasibility inside the first chunk: identical stop, and the
            # scanner refuses to continue.
            assert first == one_shot
            assert not scanner.alive
            with pytest.raises(FittingError):
                scanner.extend(ks, vs, first, n)
        else:
            resumed = scanner.extend(ks, vs, cut, n)
            assert resumed == one_shot

    def test_resume_across_many_chunks(self):
        from repro.fitting import CorridorScanner

        keys, values = _random_function(400, seed=77)
        ks, vs = keys.tolist(), values.tolist()
        delta = 40.0
        one_shot = longest_feasible_prefix(ks, vs, 0, len(ks), delta)
        scanner = CorridorScanner(delta)
        position = 0
        result = len(ks)
        for chunk_end in list(range(13, len(ks), 13)) + [len(ks)]:
            stop = scanner.extend(ks, vs, position, chunk_end)
            if stop < chunk_end:
                result = stop
                break
            position = chunk_end
        assert result == one_shot
