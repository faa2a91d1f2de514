"""Minimax (L-infinity / Chebyshev) polynomial fitting.

The core fitting problem of the paper (Definition 2 / Equation 9): given
points ``(k_i, F(k_i))`` in an interval, find polynomial coefficients that
minimize the *maximum* absolute deviation.  This is a linear program in the
coefficients plus the slack ``t``:

    minimize  t
    s.t.      -t <= F(k_i) - P(k_i) <= t      for every point i

We solve it with scipy's HiGHS solver — but the LP is the *fallback*, not the
default.  Construction-time fitting goes through cheaper exact or
near-exact solvers first:

* ``degree <= 1`` — the closed-form incremental fitter
  (:mod:`repro.fitting.incremental`): running midrange for degree 0 and the
  convex-hull / rotating-calipers optimum for degree 1.  Exact, no LP.
* ``degree >= 2`` — a discrete Remez exchange: iterate tiny
  ``(degree + 2) x (degree + 2)`` linear systems on an alternating reference
  set instead of a ``2n``-row LP, exchanging the reference against the
  residual extrema until equioscillation.  The HiGHS LP remains the
  correctness oracle and automatic fallback whenever the exchange degenerates
  (coincident scaled keys, singular systems, non-convergence).
* ``degree >= n - 1`` — the polynomial interpolates all points exactly
  (error 0), so we solve the Vandermonde system directly.
* ``n == 1`` — a constant through the single point.

For the two-key case the LP over the bivariate monomial basis is kept (no
bivariate equioscillation theory backs a 2-D exchange).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ..errors import FittingError
from .polynomial import Polynomial1D, Polynomial2D, _total_degree_terms

__all__ = [
    "MinimaxFit",
    "fit_minimax_polynomial",
    "fit_lstsq_polynomial",
    "fit_minimax_surface",
]


@dataclass(frozen=True)
class MinimaxFit:
    """Result of a minimax fit.

    Attributes
    ----------
    polynomial:
        The fitted :class:`Polynomial1D` or :class:`Polynomial2D`.
    max_error:
        The achieved maximum absolute deviation ``E(I)`` over the fitted
        points (Equation 8).
    """

    polynomial: Polynomial1D | Polynomial2D
    max_error: float


def _scaling(values: np.ndarray) -> tuple[float, float]:
    """Affine map sending ``[min, max]`` of ``values`` to ``[-1, 1]``.

    Identical values fall back to unit scale so the resulting polynomial is
    always well defined; a span so small that halving it underflows to zero
    is scaled by the whole span.
    """
    low = float(values.min())
    high = float(values.max())
    half_span = (high - low) / 2.0
    if half_span == 0.0 and high > low:
        # Halving the smallest subnormal span underflows: map it to [0, 1]
        # instead, since a unit scale would leave slopes of order 1e323.
        return low, high - low
    if not np.isfinite(half_span) or half_span <= 0.0:
        return low, 1.0
    return (low + high) / 2.0, half_span


def _design_matrix_1d(keys: np.ndarray, degree: int, shift: float, scale: float) -> np.ndarray:
    t = (keys - shift) / scale
    return np.vander(t, N=degree + 1, increasing=True)


def _max_abs_residual(design: np.ndarray, values: np.ndarray, coeffs: np.ndarray) -> float:
    return float(np.max(np.abs(values - design @ coeffs))) if values.size else 0.0


def _solve_lstsq_safe(design: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Least-squares solve that degrades to a constant fit when the SVD fails.

    Pathological inputs (subnormal keys mixed with normal ones, exactly
    coincident scaled keys) can make LAPACK's SVD fail to converge; a constant
    polynomial through the mean is always a valid fallback because the caller
    recomputes the achieved error afterwards.
    """
    try:
        coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
        if np.all(np.isfinite(coeffs)):
            return coeffs
    except np.linalg.LinAlgError:
        pass
    fallback = np.zeros(design.shape[1])
    fallback[0] = float(values.mean()) if values.size else 0.0
    return fallback


def _achieved_error(polynomial, keys: np.ndarray, values: np.ndarray) -> float:
    """Maximum absolute residual of the fitted polynomial, evaluated the same
    way queries evaluate it (Horner on the scaled basis), so the reported
    error always matches what callers will observe."""
    residual = np.abs(values - np.asarray(polynomial(keys)))
    return float(residual.max()) if residual.size else 0.0


def _solve_minimax_lp(design: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``min_t  s.t. |values - design @ a| <= t`` with HiGHS.

    Variables are ``[a_0 ... a_p, t]``.  Coefficients are free; ``t >= 0``.
    """
    n_points, n_coeffs = design.shape
    n_vars = n_coeffs + 1
    objective = np.zeros(n_vars)
    objective[-1] = 1.0

    # design @ a - t <= values      (residual >= -t)
    # -design @ a - t <= -values    (residual <= t)
    upper = np.hstack([design, -np.ones((n_points, 1))])
    lower = np.hstack([-design, -np.ones((n_points, 1))])
    a_ub = np.vstack([upper, lower])
    b_ub = np.concatenate([values, -values])

    bounds = [(None, None)] * n_coeffs + [(0.0, None)]
    result = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise FittingError(f"minimax LP failed: {result.message}")
    coeffs = result.x[:n_coeffs]
    return coeffs, float(result.x[-1])


class _RemezFailure(Exception):
    """Internal: the exchange degenerated; the caller falls back to the LP."""


def _horner(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    result = np.full_like(t, coeffs[-1])
    for coefficient in coeffs[-2::-1]:
        result = result * t + coefficient
    return result


def _initial_reference(t: np.ndarray, m: int) -> np.ndarray:
    """Chebyshev-extrema indices into the sorted scaled keys, made strictly
    increasing (the classic warm start for the exchange)."""
    n = t.size
    theta = np.pi * np.arange(m) / (m - 1)
    targets = (t[0] + t[-1]) / 2.0 - np.cos(theta) * (t[-1] - t[0]) / 2.0
    ref = np.clip(np.searchsorted(t, targets), 0, n - 1).astype(np.intp)
    for i in range(1, m):
        if ref[i] <= ref[i - 1]:
            ref[i] = ref[i - 1] + 1
    for i in range(m - 2, -1, -1):
        if ref[i] >= ref[i + 1]:
            ref[i] = ref[i + 1] - 1
    if ref[0] < 0 or ref[-1] >= n:
        raise _RemezFailure("cannot seat the reference set")
    return ref


def _exchange_reference(residual: np.ndarray, m: int) -> np.ndarray:
    """New reference: ``m`` consecutive alternating residual extrema.

    One extremum per sign run (vectorized via ``maximum.reduceat``); any
    window of ``m`` consecutive run extrema alternates in sign, so the
    surplus is resolved by choosing the window that contains the global
    maximum *and* maximizes the smallest magnitude inside it.  Discrete
    residuals are noisy (sampled target functions produce clusters of tiny
    oscillations around each zero crossing); maximizing the window minimum
    rejects those clusters, which would otherwise collapse the reference
    onto adjacent points and stall the exchange.
    """
    signs = residual >= 0.0
    flips = np.nonzero(signs[1:] != signs[:-1])[0] + 1
    starts = np.concatenate(([0], flips))
    if starts.size < m:
        raise _RemezFailure("fewer alternations than reference points")
    run_id = np.zeros(residual.size, dtype=np.intp)
    run_id[flips] = 1
    run_id = np.cumsum(run_id)
    magnitude = np.abs(residual)
    run_max = np.maximum.reduceat(magnitude, starts)
    candidates = np.nonzero(magnitude >= run_max[run_id])[0]
    _, first = np.unique(run_id[candidates], return_index=True)
    extrema = candidates[first]
    values = magnitude[extrema]
    if extrema.size == m:
        return extrema
    windows = np.lib.stride_tricks.sliding_window_view(values, m)
    window_mins = windows.min(axis=1)
    peak = int(np.argmax(values))
    lo = max(0, peak - m + 1)
    hi = min(values.size - m, peak)
    best = lo + int(np.argmax(window_mins[lo: hi + 1]))
    return extrema[best: best + m]


def _single_exchange(
    ref: np.ndarray, residual: np.ndarray, peak: int
) -> np.ndarray:
    """Stiefel single-point exchange: swap the residual peak into the
    reference while preserving sign alternation.

    The retained points keep ``|r| = |E|`` and the peak exceeds it, so the de
    la Vallee Poussin lower bound increases monotonically — the robust (if
    slower) fallback when no multipoint window passes the safeguard.
    """
    ref = ref.copy()
    peak_positive = residual[peak] >= 0.0
    pos = int(np.searchsorted(ref, peak))
    if pos == 0:
        if (residual[ref[0]] >= 0.0) == peak_positive:
            ref[0] = peak
        else:
            ref[1:] = ref[:-1]
            ref[0] = peak
    elif pos == ref.size:
        if (residual[ref[-1]] >= 0.0) == peak_positive:
            ref[-1] = peak
        else:
            ref[:-1] = ref[1:]
            ref[-1] = peak
    elif (residual[ref[pos - 1]] >= 0.0) == peak_positive:
        ref[pos - 1] = peak
    else:
        ref[pos] = peak
    return ref


def _solve_remez(
    t: np.ndarray,
    values: np.ndarray,
    degree: int,
    *,
    max_iterations: int = 100,
) -> np.ndarray:
    """Discrete Remez exchange over sorted, strictly increasing scaled keys.

    Each iteration solves the ``(degree + 2)``-point equioscillation system
    ``P(t_i) + (-1)^i E = y_i`` (one tiny dense solve), evaluates the
    residual over *all* points with one Horner pass, and exchanges the
    reference against the residual extrema.  Converged when the global
    residual matches the levelled error ``|E|`` up to round-off; raises
    :class:`_RemezFailure` otherwise so the caller can fall back to the LP.
    """
    n = t.size
    m = degree + 2
    if n < m:
        raise _RemezFailure("not enough points for a reference set")
    ref = np.arange(m, dtype=np.intp) if n == m else _initial_reference(t, m)
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    tolerance = 1e-12 * (1.0 + float(np.max(np.abs(values))))
    for _ in range(max_iterations):
        system = np.empty((m, m))
        system[:, : degree + 1] = np.vander(t[ref], N=degree + 1, increasing=True)
        system[:, degree + 1] = signs
        try:
            solution = np.linalg.solve(system, values[ref])
        except np.linalg.LinAlgError as exc:
            raise _RemezFailure(str(exc)) from exc
        if not np.all(np.isfinite(solution)):
            raise _RemezFailure("non-finite exchange solution")
        coeffs = solution[: degree + 1]
        levelled = abs(float(solution[degree + 1]))
        residual = values - _horner(coeffs, t)
        worst = float(np.max(np.abs(residual)))
        if worst <= levelled + 1e-8 * worst + tolerance:
            return coeffs
        # Multipoint exchange with the de la Vallee Poussin safeguard: the
        # weakest point of the new reference must not fall below the current
        # levelled error, or convergence is lost (nearly coincident scaled
        # keys make clustered extrema with tiny alternating residuals).
        # Otherwise fall back to the monotone single-point exchange.
        try:
            new_ref = _exchange_reference(residual, m)
            if float(np.min(np.abs(residual[new_ref]))) < levelled * (1.0 - 1e-9):
                new_ref = _single_exchange(ref, residual, int(np.argmax(np.abs(residual))))
        except _RemezFailure:
            new_ref = _single_exchange(ref, residual, int(np.argmax(np.abs(residual))))
        if np.array_equal(new_ref, ref):
            raise _RemezFailure("exchange stalled short of equioscillation")
        ref = new_ref
    raise _RemezFailure("exchange did not converge")


def fit_lstsq_polynomial(
    keys: np.ndarray,
    values: np.ndarray,
    degree: int,
    *,
    rescale: bool = True,
) -> MinimaxFit:
    """Least-squares polynomial fit (not minimax-optimal).

    Used as a cheap warm start and as the ablation comparator: its max error
    is an upper bound witness for the true minimax error.
    """
    keys, values = _validate_points(keys, values)
    shift, scale = _scaling(keys) if rescale else (0.0, 1.0)
    effective_degree = min(degree, keys.size - 1)
    design = _design_matrix_1d(keys, effective_degree, shift, scale)
    coeffs = _solve_lstsq_safe(design, values)
    coeffs = _pad_coeffs(coeffs, degree)
    poly = Polynomial1D(coeffs, shift, scale)
    return MinimaxFit(polynomial=poly, max_error=_achieved_error(poly, keys, values))


def fit_minimax_polynomial(
    keys: np.ndarray,
    values: np.ndarray,
    degree: int,
    *,
    rescale: bool = True,
    solver: str = "auto",
) -> MinimaxFit:
    """Minimax polynomial fit of the points ``(keys, values)``.

    Parameters
    ----------
    keys, values:
        The points to fit (keys need not be sorted).
    degree:
        Polynomial degree ``deg``.
    rescale:
        Map keys affinely to ``[-1, 1]`` before fitting (recommended).
    solver:
        ``"auto"`` (interpolation fast path, then the exact incremental
        fitter for degree <= 1 and the Remez exchange with LP fallback for
        degree >= 2), ``"incremental"`` (force the hull fitter; degree <= 1
        only), ``"remez"`` (force the exchange, still with LP fallback on
        degeneracy), ``"lp"`` (the HiGHS LP of Eq. 9 whenever the points
        outnumber the coefficients), or ``"lstsq"`` (plain least squares;
        *not* minimax optimal — ablations only).  Every minimax solver
        interpolates when ``len(keys) <= degree + 1``.

    Returns
    -------
    MinimaxFit
        The fitted polynomial and its achieved maximum absolute error.

    Raises
    ------
    FittingError
        If the points are malformed or the LP solver fails.
    """
    keys, values = _validate_points(keys, values)
    if degree < 0:
        raise FittingError(f"degree must be >= 0, got {degree}")
    if solver not in ("auto", "incremental", "remez", "lp", "lstsq"):
        raise FittingError(f"unknown solver {solver!r}")

    if solver == "lstsq":
        return fit_lstsq_polynomial(keys, values, degree, rescale=rescale)

    if solver == "incremental" or (solver == "auto" and degree <= 1 and keys.size > degree + 1):
        from .incremental import fit_incremental_polynomial

        return fit_incremental_polynomial(keys, values, degree, rescale=rescale)

    shift, scale = _scaling(keys) if rescale else (0.0, 1.0)

    # Fast path: the polynomial has at least as many parameters as points, so
    # it can interpolate them (near-)exactly.  Least squares is used instead
    # of an exact solve so nearly-coincident keys (singular Vandermonde
    # matrices) degrade gracefully instead of raising.
    if keys.size <= degree + 1:
        effective_degree = keys.size - 1
        design = _design_matrix_1d(keys, effective_degree, shift, scale)
        if keys.size > 1:
            coeffs = _solve_lstsq_safe(design, values)
        else:
            coeffs = values.copy()
        coeffs = _pad_coeffs(coeffs, degree)
        poly = Polynomial1D(coeffs, shift, scale)
        return MinimaxFit(polynomial=poly, max_error=_achieved_error(poly, keys, values))

    if solver in ("auto", "remez"):
        if np.all(np.diff(keys) >= 0):
            sorted_keys, sorted_values = keys, values
        else:
            order = np.argsort(keys, kind="stable")
            sorted_keys, sorted_values = keys[order], values[order]
        t = (sorted_keys - shift) / scale
        if t.size < 2 or np.all(np.diff(t) > 0):
            try:
                coeffs = _solve_remez(t, sorted_values, degree)
                poly = Polynomial1D(coeffs, shift, scale)
                return MinimaxFit(
                    polynomial=poly, max_error=_achieved_error(poly, keys, values)
                )
            except _RemezFailure:
                pass  # coincident/ill-posed reference: fall back to the LP.

    design = _design_matrix_1d(keys, degree, shift, scale)
    coeffs, error = _solve_minimax_lp(design, values)
    # The LP reports the optimal t; recompute the residual with the same
    # evaluation scheme queries use and report the larger of the two, so the
    # stored error is never optimistic.
    poly = Polynomial1D(coeffs, shift, scale)
    return MinimaxFit(polynomial=poly, max_error=max(error, _achieved_error(poly, keys, values)))


def fit_minimax_surface(
    us: np.ndarray,
    vs: np.ndarray,
    values: np.ndarray,
    degree: int,
    *,
    rescale: bool = True,
    solver: str = "auto",
) -> MinimaxFit:
    """Minimax fit of a bivariate polynomial surface (Section VI).

    Same LP as the 1-D case but over the total-degree monomial basis
    ``u^i v^j`` with ``i + j <= degree``.
    """
    us = np.asarray(us, dtype=np.float64).ravel()
    vs = np.asarray(vs, dtype=np.float64).ravel()
    values = np.asarray(values, dtype=np.float64).ravel()
    if us.size == 0:
        raise FittingError("cannot fit an empty point set")
    if not (us.size == vs.size == values.size):
        raise FittingError("coordinate and value arrays must have equal length")
    if not (
        np.all(np.isfinite(us)) and np.all(np.isfinite(vs)) and np.all(np.isfinite(values))
    ):
        raise FittingError("inputs contain NaN or infinite values")
    if degree < 0:
        raise FittingError("degree must be >= 0")

    shift_u, scale_u = _scaling(us) if rescale else (0.0, 1.0)
    shift_v, scale_v = _scaling(vs) if rescale else (0.0, 1.0)
    template = Polynomial2D(
        coeffs=np.zeros(len(_total_degree_terms(degree))),
        degree=degree,
        shift_u=shift_u,
        scale_u=scale_u,
        shift_v=shift_v,
        scale_v=scale_v,
    )
    design = template.design_matrix(us, vs)

    if solver == "lstsq" or (solver == "auto" and us.size <= design.shape[1]):
        coeffs = _solve_lstsq_safe(design, values)
        error = _max_abs_residual(design, values, coeffs)
    else:
        coeffs, lp_error = _solve_minimax_lp(design, values)
        error = max(lp_error, _max_abs_residual(design, values, coeffs))
    surface = Polynomial2D(
        coeffs=coeffs,
        degree=degree,
        shift_u=shift_u,
        scale_u=scale_u,
        shift_v=shift_v,
        scale_v=scale_v,
    )
    return MinimaxFit(polynomial=surface, max_error=error)


def _validate_points(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys = np.asarray(keys, dtype=np.float64).ravel()
    values = np.asarray(values, dtype=np.float64).ravel()
    if keys.size == 0:
        raise FittingError("cannot fit an empty point set")
    if keys.size != values.size:
        raise FittingError("keys and values must have equal length")
    if not (np.all(np.isfinite(keys)) and np.all(np.isfinite(values))):
        raise FittingError("inputs contain NaN or infinite values")
    return keys, values


def _pad_coeffs(coeffs: np.ndarray, degree: int) -> np.ndarray:
    """Zero-pad coefficients up to ``degree + 1`` entries."""
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=np.float64))
    if coeffs.size < degree + 1:
        coeffs = np.concatenate([coeffs, np.zeros(degree + 1 - coeffs.size)])
    return coeffs
