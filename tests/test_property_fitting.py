"""Property-based tests (hypothesis) for the fitting layer."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.fitting import (
    Polynomial1D,
    fit_lstsq_polynomial,
    fit_minimax_polynomial,
)

# Strategy: a modest number of distinct, finite keys plus bounded values.
_point_sets = st.integers(min_value=2, max_value=25).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
            unique=True,
        ),
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        ),
    )
)


class TestMinimaxProperties:
    @settings(max_examples=40, deadline=None)
    @given(points=_point_sets, degree=st.integers(min_value=0, max_value=3))
    def test_reported_error_matches_residual(self, points, degree):
        keys, values = map(np.asarray, points)
        fit = fit_minimax_polynomial(keys, values, degree)
        residual = np.max(np.abs(values - np.asarray(fit.polynomial(keys))))
        assert fit.max_error == pytest.approx(residual, rel=1e-6, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(points=_point_sets, degree=st.integers(min_value=0, max_value=3))
    def test_minimax_no_worse_than_least_squares(self, points, degree):
        keys, values = map(np.asarray, points)
        minimax = fit_minimax_polynomial(keys, values, degree, solver="lp")
        lstsq = fit_lstsq_polynomial(keys, values, degree)
        assert minimax.max_error <= lstsq.max_error + 1e-6 + 1e-9 * abs(lstsq.max_error)

    @settings(max_examples=30, deadline=None)
    @given(points=_point_sets)
    def test_higher_degree_never_hurts(self, points):
        keys, values = map(np.asarray, points)
        errors = [
            fit_minimax_polynomial(keys, values, degree, solver="lp").max_error
            for degree in (0, 1, 2)
        ]
        # The relative term absorbs the LP's conditioning noise: with nearly
        # coincident scaled keys HiGHS can be ~1e-7-relative suboptimal at one
        # degree and near-exact at the next.
        assert errors[1] <= errors[0] * (1 + 1e-7) + 1e-6
        assert errors[2] <= errors[1] * (1 + 1e-7) + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(points=_point_sets, degree=st.integers(min_value=1, max_value=3))
    def test_interpolation_when_degree_sufficient(self, points, degree):
        keys, values = map(np.asarray, points)
        if keys.size > degree + 1:
            keys = keys[: degree + 1]
            values = values[: degree + 1]
        # Interpolation is only numerically achievable when keys are well
        # separated relative to their span.
        span = float(keys.max() - keys.min())
        gaps = np.diff(np.sort(keys))
        assume(span > 0 and gaps.min() > 1e-6 * span)
        fit = fit_minimax_polynomial(keys, values, degree)
        scale = max(1.0, np.max(np.abs(values)))
        assert fit.max_error <= 1e-6 * scale

    @settings(max_examples=30, deadline=None)
    @given(
        coeffs=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=1,
            max_size=4,
        ),
        shift=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_fit_recovers_exact_polynomials(self, coeffs, shift):
        """Fitting samples of a polynomial of degree d with degree d gives ~0 error."""
        poly = Polynomial1D(np.asarray(coeffs), shift=shift, scale=10.0)
        keys = np.linspace(shift - 20, shift + 20, 30)
        values = np.asarray(poly(keys))
        fit = fit_minimax_polynomial(keys, values, degree=len(coeffs) - 1, solver="lp")
        scale = max(1.0, np.max(np.abs(values)))
        assert fit.max_error <= 1e-5 * scale


class TestPolynomialProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        coeffs=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
        low=st.floats(min_value=-100, max_value=99, allow_nan=False),
        width=st.floats(min_value=0.001, max_value=50, allow_nan=False),
    )
    def test_extreme_bounds_dense_sampling(self, coeffs, low, width):
        poly = Polynomial1D(np.asarray(coeffs), shift=0.0, scale=25.0)
        high = low + width
        grid = np.linspace(low, high, 2001)
        sampled = np.asarray(poly(grid))
        _, maximum = poly.extreme_on(low, high, maximize=True)
        _, minimum = poly.extreme_on(low, high, maximize=False)
        tolerance = 1e-6 * max(1.0, np.max(np.abs(sampled)))
        assert maximum >= sampled.max() - tolerance
        assert minimum <= sampled.min() + tolerance
