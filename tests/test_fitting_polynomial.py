"""Tests for Polynomial1D / Polynomial2D evaluation, derivatives and extrema."""

import numpy as np
import pytest

from repro.errors import FittingError, QueryError
from repro.fitting import Polynomial1D, Polynomial2D


class TestPolynomial1DEvaluation:
    def test_constant(self):
        poly = Polynomial1D(np.array([3.0]))
        assert poly(0.0) == 3.0
        assert poly(123.0) == 3.0

    def test_linear(self):
        poly = Polynomial1D(np.array([1.0, 2.0]))  # 1 + 2k
        assert poly(0.0) == 1.0
        assert poly(3.0) == 7.0

    def test_quadratic_with_scaling(self):
        # P(k) = t^2 where t = (k - 10) / 5
        poly = Polynomial1D(np.array([0.0, 0.0, 1.0]), shift=10.0, scale=5.0)
        assert poly(10.0) == 0.0
        assert poly(15.0) == 1.0
        assert poly(0.0) == 4.0

    def test_vectorized_evaluation(self):
        poly = Polynomial1D(np.array([0.0, 1.0]))
        np.testing.assert_array_equal(poly(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_scalar_output_type(self):
        poly = Polynomial1D(np.array([1.0, 1.0]))
        assert isinstance(poly(2.0), float)

    def test_degree_property(self):
        assert Polynomial1D(np.array([1.0, 2.0, 3.0])).degree == 2

    def test_rejects_empty_coeffs(self):
        with pytest.raises(FittingError):
            Polynomial1D(np.array([]))

    def test_rejects_nan_coeffs(self):
        with pytest.raises(FittingError):
            Polynomial1D(np.array([1.0, np.nan]))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(FittingError):
            Polynomial1D(np.array([1.0]), scale=0.0)

    def test_num_parameters(self):
        assert Polynomial1D(np.array([1.0, 2.0, 3.0])).num_parameters == 5


class TestPolynomial1DDerivative:
    def test_derivative_of_constant_is_zero(self):
        deriv = Polynomial1D(np.array([7.0])).derivative()
        assert deriv(3.0) == 0.0

    def test_derivative_of_quadratic(self):
        # P(k) = 1 + 2k + 3k^2 -> P'(k) = 2 + 6k
        deriv = Polynomial1D(np.array([1.0, 2.0, 3.0])).derivative()
        assert deriv(0.0) == 2.0
        assert deriv(1.0) == 8.0

    def test_derivative_respects_scaling(self):
        # P(k) = t^2, t = k / 2 -> dP/dk = 2t * (1/2) = k / 2
        poly = Polynomial1D(np.array([0.0, 0.0, 1.0]), shift=0.0, scale=2.0)
        deriv = poly.derivative()
        assert deriv(2.0) == pytest.approx(1.0)
        assert deriv(4.0) == pytest.approx(2.0)

    def test_numerical_agreement(self):
        rng = np.random.default_rng(0)
        poly = Polynomial1D(rng.normal(size=5), shift=3.0, scale=2.0)
        deriv = poly.derivative()
        for k in rng.uniform(-10, 10, size=10):
            h = 1e-6
            numeric = (poly(k + h) - poly(k - h)) / (2 * h)
            assert deriv(k) == pytest.approx(numeric, rel=1e-4, abs=1e-6)


class TestPolynomial1DExtreme:
    def test_linear_maximum_at_endpoint(self):
        poly = Polynomial1D(np.array([0.0, 1.0]))  # increasing
        arg, value = poly.extreme_on(0.0, 10.0, maximize=True)
        assert arg == 10.0 and value == 10.0

    def test_linear_minimum_at_endpoint(self):
        poly = Polynomial1D(np.array([0.0, 1.0]))
        arg, value = poly.extreme_on(0.0, 10.0, maximize=False)
        assert arg == 0.0 and value == 0.0

    def test_parabola_interior_maximum(self):
        # P(k) = -(k - 5)^2 + 25 = -k^2 + 10k
        poly = Polynomial1D(np.array([0.0, 10.0, -1.0]))
        arg, value = poly.extreme_on(0.0, 10.0, maximize=True)
        assert arg == pytest.approx(5.0)
        assert value == pytest.approx(25.0)

    def test_parabola_clipped_interval(self):
        poly = Polynomial1D(np.array([0.0, 10.0, -1.0]))
        arg, value = poly.extreme_on(6.0, 10.0, maximize=True)
        assert arg == pytest.approx(6.0)
        assert value == pytest.approx(24.0)

    def test_cubic_extrema(self):
        # P(k) = k^3 - 3k has local max at k=-1 (value 2), local min at k=1 (-2)
        poly = Polynomial1D(np.array([0.0, -3.0, 0.0, 1.0]))
        _, max_value = poly.extreme_on(-2.0, 2.0, maximize=True)
        _, min_value = poly.extreme_on(-2.0, 2.0, maximize=False)
        assert max_value == pytest.approx(2.0)
        assert min_value == pytest.approx(-2.0)

    def test_constant_extreme(self):
        poly = Polynomial1D(np.array([4.0]))
        _, value = poly.extreme_on(0.0, 1.0)
        assert value == 4.0

    def test_invalid_interval(self):
        poly = Polynomial1D(np.array([1.0]))
        with pytest.raises(QueryError):
            poly.extreme_on(2.0, 1.0)

    def test_extreme_matches_dense_sampling(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            poly = Polynomial1D(rng.normal(size=4), shift=rng.uniform(-5, 5), scale=2.0)
            low, high = np.sort(rng.uniform(-10, 10, size=2))
            grid = np.linspace(low, high, 5001)
            _, maximum = poly.extreme_on(low, high, maximize=True)
            assert maximum >= np.max(poly(grid)) - 1e-6


class TestPolynomial2D:
    def test_term_count_matches_total_degree(self):
        # degree 2: terms 1, u, v, u^2, uv, v^2 -> 6 coefficients
        poly = Polynomial2D(np.zeros(6), degree=2)
        assert len(poly.terms) == 6

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(FittingError):
            Polynomial2D(np.zeros(5), degree=2)

    def test_evaluation(self):
        # P(u, v) = 1 + 2u + 3v  (degree-1 terms order: 1, u, v)
        poly = Polynomial2D(np.array([1.0, 2.0, 3.0]), degree=1)
        assert poly(0.0, 0.0) == 1.0
        assert poly(1.0, 1.0) == 6.0

    def test_scaling(self):
        # P = s * t with s = u/2, t = v/4; degree 2 order: 1, u, v, u2, uv, v2
        poly = Polynomial2D(
            np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
            degree=2,
            scale_u=2.0,
            scale_v=4.0,
        )
        assert poly(2.0, 4.0) == pytest.approx(1.0)
        assert poly(4.0, 8.0) == pytest.approx(4.0)

    def test_vectorized(self):
        poly = Polynomial2D(np.array([0.0, 1.0, 1.0]), degree=1)
        values = poly(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        np.testing.assert_allclose(values, [4.0, 6.0])

    def test_round_trip_serialization(self):
        poly = Polynomial2D(np.arange(6.0), degree=2, shift_u=1.0, scale_u=2.0)
        clone = Polynomial2D.from_dict(poly.to_dict())
        assert clone(0.3, 0.7) == pytest.approx(poly(0.3, 0.7))

    def test_rejects_nan(self):
        with pytest.raises(FittingError):
            Polynomial2D(np.array([np.nan, 0.0, 0.0]), degree=1)

    def test_num_parameters(self):
        assert Polynomial2D(np.zeros(6), degree=2).num_parameters == 10
