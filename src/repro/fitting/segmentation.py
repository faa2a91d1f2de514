"""Segmentation of a 1-D target function into error-bounded intervals.

Implements the paper's Greedy Segmentation (GS, Algorithm 1): grow an
interval point by point until its optimal minimax fit exceeds the budget
``delta``, emit the previous interval, and continue.  Because the minimax
error is monotone in the point set (Lemma 1), GS produces the minimum number
of segments (Theorem 1).

Construction is tiered by how the longest feasible prefix is located:

* **degree <= 1** — a single linear pass with zero solver calls: the exact
  online feasibility scanner of :mod:`repro.fitting.incremental` walks the
  points once per segment (amortized O(1) each) and the emitted polynomial is
  the closed-form hull optimum.  Boundaries are identical to the LP-per-probe
  method because both evaluate the same exact predicate "some degree-1
  polynomial fits the prefix within ``delta``".
* **degree >= 2** — exponential + binary search over the segment end (the
  paper's remark referencing unbounded search) with two accelerations: an
  *early-accept certificate* (re-evaluate the incumbent polynomial on just
  the extension; if its residual stays within ``delta`` the longer prefix is
  feasible with no solve at all) and the Remez-exchange solver in place of
  the per-probe LP (see :mod:`repro.fitting.minimax`).
* **Dynamic-programming optimum** (``dp_segmentation``): the quadratic
  reference algorithm; used in tests and the ablation bench to confirm that
  GS matches the optimal segment count.  It stores only the fits on the
  optimal parent chain — O(n) polynomials, not the O(n^2) cache of every
  feasible interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SegmentationError
from .incremental import (
    IncrementalConstantFitter,
    fit_incremental_polynomial,
    longest_feasible_prefix,
)
from .minimax import MinimaxFit, fit_minimax_polynomial
from .polynomial import Polynomial1D

__all__ = ["Segment", "greedy_segmentation", "dp_segmentation", "segment_count"]


@dataclass(frozen=True)
class Segment:
    """One fitted interval of the piecewise model.

    Attributes
    ----------
    key_low, key_high:
        The key span covered by the segment (inclusive on both ends).
    start, stop:
        Index range ``[start, stop)`` of the fitted points in the sampled
        target function.
    polynomial:
        The fitted :class:`Polynomial1D`.
    max_error:
        Achieved minimax error over the fitted points.
    """

    key_low: float
    key_high: float
    start: int
    stop: int
    polynomial: Polynomial1D
    max_error: float

    @property
    def num_points(self) -> int:
        """Number of fitted points."""
        return self.stop - self.start

    def covers(self, key: float) -> bool:
        """Whether ``key`` falls inside the segment's key span."""
        return self.key_low <= key <= self.key_high


def _validate_inputs(keys: np.ndarray, values: np.ndarray, delta: float, degree: int) -> None:
    if keys.ndim != 1 or values.ndim != 1:
        raise SegmentationError("keys and values must be 1-D arrays")
    if keys.size == 0:
        raise SegmentationError("cannot segment an empty point set")
    if keys.size != values.size:
        raise SegmentationError("keys and values must have equal length")
    if np.any(np.diff(keys) < 0):
        raise SegmentationError("keys must be sorted ascending")
    if delta < 0:
        raise SegmentationError("delta must be non-negative")
    if degree < 0:
        raise SegmentationError("degree must be non-negative")


def _make_segment(
    keys: np.ndarray, start: int, stop: int, fit: MinimaxFit
) -> Segment:
    return Segment(
        key_low=float(keys[start]),
        key_high=float(keys[stop - 1]),
        start=start,
        stop=stop,
        polynomial=fit.polynomial,
        max_error=fit.max_error,
    )


def greedy_segmentation(
    keys: np.ndarray,
    values: np.ndarray,
    delta: float,
    degree: int,
    *,
    use_exponential_search: bool = True,
    solver: str = "auto",
    early_accept: bool = True,
) -> list[Segment]:
    """Greedy Segmentation (GS, Algorithm 1) of the sampled function.

    Parameters
    ----------
    keys, values:
        Sampled target function, keys sorted ascending.
    delta:
        Bounded delta-error constraint per segment (Definition 3).
    degree:
        Degree of the per-segment polynomials.
    use_exponential_search:
        Locate segment ends with exponential + binary search instead of
        one-point-at-a-time growth.  Produces the same segmentation because
        the fitting error is monotone in the point set (Lemma 1).  Ignored by
        the degree <= 1 linear pass, which needs no search at all.
    solver:
        Forwarded to :func:`fit_minimax_polynomial`.  ``"auto"`` routes
        degree <= 1 through the exact one-pass scanner and degree >= 2
        through the Remez exchange; ``"lp"`` restores the per-probe LP
        baseline.
    early_accept:
        Re-evaluate the incumbent polynomial on each probe's extension and
        accept without solving when its residual stays within ``delta``.
        Never changes boundaries (a witness polynomial within ``delta`` is a
        proof of feasibility); disable only for baseline benchmarking.

    Returns
    -------
    list[Segment]
        Segments covering all points, each satisfying ``max_error <= delta``.

    Notes
    -----
    GS is optimal: it produces the minimum possible number of segments
    (Theorem 1 of the paper).
    """
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    _validate_inputs(keys, values, delta, degree)

    if solver in ("auto", "incremental") and degree <= 1:
        if degree == 0:
            return _constant_pass(keys, values, delta)
        if not _has_duplicate_keys(keys):
            return _linear_pass(keys, values, delta)
        # Coincident keys: the O(1) corridor scanner assumes strictly
        # increasing keys, so locate boundaries with the search loop but keep
        # the exact hull fitter as the per-probe solver.
        solver = "incremental"

    segments: list[Segment] = []
    n = keys.size
    start = 0
    while start < n:
        searcher = _PrefixSearcher(keys, values, start, delta, degree, solver, early_accept)
        if use_exponential_search:
            stop, fit = searcher.run_exponential()
        else:
            stop, fit = searcher.run_linear()
        segments.append(_make_segment(keys, start, stop, fit))
        start = stop
    return segments


def _has_duplicate_keys(keys: np.ndarray) -> bool:
    return keys.size > 1 and bool(np.any(keys[1:] == keys[:-1]))


_CONSTANT_SCAN_CHUNK = 2048


def _constant_pass(keys: np.ndarray, values: np.ndarray, delta: float) -> list[Segment]:
    """One-pass GS for degree 0: running midrange, zero solver calls.

    The boundary scan runs on chunked ``maximum/minimum.accumulate`` windows
    (the running spread is monotone, so the first chunk position whose spread
    exceeds ``2 * delta`` is the boundary), keeping the whole pass in NumPy:
    O(n + chunk * num_segments) total work, no per-point Python.
    """
    segments: list[Segment] = []
    n = keys.size
    width = 2.0 * delta
    start = 0
    while start < n:
        low = high = values[start]
        stop = start + 1
        while stop < n:
            chunk = values[stop: stop + _CONSTANT_SCAN_CHUNK]
            running_high = np.maximum(high, np.maximum.accumulate(chunk))
            running_low = np.minimum(low, np.minimum.accumulate(chunk))
            over_budget = (running_high - running_low) > width
            if np.any(over_budget):
                stop += int(np.argmax(over_budget))
                break
            high = float(running_high[-1])
            low = float(running_low[-1])
            stop += chunk.size
        fit = fit_incremental_polynomial(keys[start:stop], values[start:stop], 0)
        segments.append(_make_segment(keys, start, stop, fit))
        start = stop
    return segments


def _linear_pass(keys: np.ndarray, values: np.ndarray, delta: float) -> list[Segment]:
    """One-pass GS for degree 1: exact corridor scan, zero solver calls.

    The scanner decides every boundary; the emitted polynomial is the
    closed-form hull optimum refit on the closed slice (one extra O(length)
    pass per segment, so the whole build stays linear).
    """
    segments: list[Segment] = []
    ks = keys.tolist()
    vs = values.tolist()
    n = keys.size
    start = 0
    while start < n:
        stop = longest_feasible_prefix(ks, vs, start, n, delta)
        fit = fit_incremental_polynomial(keys[start:stop], values[start:stop], 1)
        segments.append(_make_segment(keys, start, stop, fit))
        start = stop
    return segments


class _PrefixSearcher:
    """Locates the longest feasible prefix from ``start`` for one segment.

    Wraps the monotone feasibility predicate (Lemma 1) with two construction
    accelerations that never change its value:

    * **Early-accept certificate** — before solving for a longer prefix,
      evaluate the incumbent feasible polynomial on just the new points; if
      the running residual stays within ``delta``, the incumbent is a witness
      that the longer prefix is feasible, so the solve is skipped entirely.
      The residual high-water mark is carried across probes, so certificate
      evaluations touch each point at most once per incumbent, and a segment
      whose final acceptance came from the certificate is refit once at
      emission (:meth:`_emit`) so the stored polynomial is still the
      accepted prefix's optimum.
    * **No per-probe matrix builds** — the default (Remez) solver evaluates
      residuals with Horner passes over the prefix, so probes never
      materialize the 2n-row LP design matrices the baseline rebuilt from
      scratch on every probe.
    """

    def __init__(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        start: int,
        delta: float,
        degree: int,
        solver: str,
        early_accept: bool,
    ) -> None:
        self._keys = keys
        self._values = values
        self._start = start
        self._delta = delta
        self._degree = degree
        self._solver = solver
        self._early_accept = early_accept
        self._best: MinimaxFit | None = None
        self._best_stop = start
        self._cert_error = 0.0
        self._best_is_certificate = False

    # ------------------------------------------------------------------ #
    # Feasibility predicate
    # ------------------------------------------------------------------ #

    def _feasible(self, stop: int) -> bool:
        """Whether ``[start, stop)`` admits a fit within delta (Lemma 1)."""
        # The incumbent only certifies an extension it can evaluate: a fit
        # over a near-subnormal key span would overflow far outside it.
        if (
            self._early_accept
            and self._best is not None
            and stop > self._best_stop
            and self._best.polynomial.finite_on(
                self._keys[self._best_stop], self._keys[stop - 1]
            )
        ):
            extension = slice(self._best_stop, stop)
            residual = np.abs(
                self._values[extension]
                - np.asarray(self._best.polynomial(self._keys[extension]))
            )
            # A non-finite residual must fail the certificate, and Python's
            # ``max(0.0, nan)`` would silently return 0.0.
            worst_new = float(residual.max())
            extended = max(self._cert_error, worst_new)
            if np.isfinite(worst_new) and extended <= self._delta:
                # The incumbent polynomial itself certifies feasibility.
                self._best = MinimaxFit(
                    polynomial=self._best.polynomial, max_error=extended
                )
                self._cert_error = extended
                self._best_stop = stop
                self._best_is_certificate = True
                return True
        fit = fit_minimax_polynomial(
            self._keys[self._start: stop],
            self._values[self._start: stop],
            self._degree,
            solver=self._solver,
        )
        if fit.max_error <= self._delta:
            self._best = fit
            self._cert_error = fit.max_error
            self._best_stop = stop
            self._best_is_certificate = False
            return True
        return False

    def _emit(self, stop: int) -> tuple[int, MinimaxFit]:
        """Final (stop, fit) for the segment, refitting certificate survivors.

        A certificate-accepted incumbent was only *solved* on a shorter
        prefix — it witnesses feasibility but is not the accepted prefix's
        minimax optimum.  One final solve per segment restores the fit
        quality of the solve-per-probe baseline at negligible cost (the
        certificate still saved every intermediate probe).  The refit is
        kept only when it honors the budget: solver round-off must never
        push an accepted segment over delta.
        """
        assert self._best is not None
        if self._best_is_certificate:
            refit = fit_minimax_polynomial(
                self._keys[self._start: stop],
                self._values[self._start: stop],
                self._degree,
                solver=self._solver,
            )
            if refit.max_error <= max(self._delta, self._best.max_error):
                self._best = refit
                self._best_is_certificate = False
        return stop, self._best

    def _require_single_point(self) -> tuple[int, MinimaxFit]:
        stop = self._start + 1
        self._best = None
        feasible = self._feasible(stop)
        assert feasible or self._best is None
        if self._best is None:
            # A single point always fits exactly; delta smaller than the
            # round-off of the solve chain still accepts it.
            fit = fit_minimax_polynomial(
                self._keys[self._start: stop],
                self._values[self._start: stop],
                self._degree,
                solver=self._solver,
            )
            self._best = fit
            self._best_stop = stop
            self._best_is_certificate = False
        return stop, self._best

    # ------------------------------------------------------------------ #
    # Search strategies
    # ------------------------------------------------------------------ #

    def run_linear(self) -> tuple[int, MinimaxFit]:
        """Grow the segment one point at a time (the paper's Algorithm 1)."""
        n = self._keys.size
        stop, _ = self._require_single_point()
        while stop < n and self._feasible(stop + 1):
            stop += 1
        return self._emit(stop)

    def run_exponential(self) -> tuple[int, MinimaxFit]:
        """Exponential + binary search over the segment end.

        Correctness relies on Lemma 1 (monotonicity of the minimax error in
        the point set): the predicate "prefix of length L is feasible" is
        monotone in ``L``, so doubling followed by bisection finds the same
        boundary as the linear scan.
        """
        n = self._keys.size
        start = self._start
        # Any prefix of at most degree + 1 points has error 0 <= delta.
        low = min(start + self._degree + 1, n)
        if not self._feasible(low):
            # Degenerate budget (delta smaller than interpolation round-off):
            # fall back to a single-point segment which always has zero error.
            stop, fit = self._require_single_point()
            low = stop
        if low >= n:
            return self._emit(low)

        # Doubling phase: find an infeasible stop (or reach the end).
        step = max(low - start, 1)
        high_infeasible = None
        while True:
            step *= 2
            candidate = min(start + step, n)
            if candidate <= low:
                candidate = min(low + 1, n)
            if self._feasible(candidate):
                low = candidate
                if candidate == n:
                    return self._emit(low)
            else:
                high_infeasible = candidate
                break

        # Bisection phase on (low, high_infeasible).
        lo, hi = low, high_infeasible
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._feasible(mid):
                lo = mid
            else:
                hi = mid
        return self._emit(lo)


def _feasible_reach(
    keys: np.ndarray, values: np.ndarray, delta: float, degree: int
) -> np.ndarray:
    """``reach[s]`` = exclusive stop of the longest feasible prefix from ``s``.

    Used by the DP reference for degree <= 1: one exact scanner pass per
    start replaces the per-interval solver calls entirely.
    """
    n = keys.size
    ks = keys.tolist()
    vs = values.tolist()
    reach = np.empty(n, dtype=np.intp)
    if degree == 0:
        for start in range(n):
            fitter = IncrementalConstantFitter()
            stop = start
            while stop < n and fitter.error_with(vs[stop]) <= delta:
                fitter.append(0.0, vs[stop])
                stop += 1
            reach[start] = max(stop, start + 1)
    else:
        for start in range(n):
            reach[start] = longest_feasible_prefix(ks, vs, start, n, delta)
    return reach


def dp_segmentation(
    keys: np.ndarray,
    values: np.ndarray,
    delta: float,
    degree: int,
    *,
    solver: str = "auto",
) -> list[Segment]:
    """Optimal segmentation by dynamic programming (the paper's DP reference).

    Runs in ``O(n^2)`` feasibility checks, so it is only practical for small
    inputs; it is used by tests and the ablation benchmark to verify that GS
    achieves the same (minimum) number of segments.  Memory is O(n): only the
    fit of each stop's optimal parent interval is retained (the fits off the
    optimal parent chain can never appear in the reconstruction), instead of
    caching every feasible ``(start, stop)`` polynomial.
    """
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    _validate_inputs(keys, values, delta, degree)

    n = keys.size
    # best[i] = minimum number of segments covering points [0, i)
    best = np.full(n + 1, np.inf)
    best[0] = 0.0
    parent = np.full(n + 1, -1, dtype=int)

    use_scanner = (
        solver in ("auto", "incremental")
        and degree <= 1
        and (degree == 0 or not _has_duplicate_keys(keys))
    )
    if use_scanner:
        # Degree <= 1: feasibility of [start, stop) is exactly
        # "stop <= reach[start]" — the same exact predicate GS's scanner
        # uses, evaluated with zero solver calls.
        reach = _feasible_reach(keys, values, delta, degree)
        for stop in range(1, n + 1):
            for start in range(stop - 1, -1, -1):
                if reach[start] < stop:
                    # Lemma 1: extending further left only increases the error.
                    break
                if best[start] + 1 < best[stop]:
                    best[stop] = best[start] + 1
                    parent[stop] = start
        fit_for = None
    else:
        fit_for: list[MinimaxFit | None] = [None] * (n + 1)
        for stop in range(1, n + 1):
            for start in range(stop - 1, -1, -1):
                fit = fit_minimax_polynomial(
                    keys[start:stop], values[start:stop], degree, solver=solver
                )
                if fit.max_error > delta:
                    # Lemma 1: extending further left only increases the error.
                    break
                if best[start] + 1 < best[stop]:
                    best[stop] = best[start] + 1
                    parent[stop] = start
                    fit_for[stop] = fit

    if not np.isfinite(best[n]):
        raise SegmentationError("DP failed to cover the point set")

    segments: list[Segment] = []
    stop = n
    while stop > 0:
        start = int(parent[stop])
        if fit_for is not None and fit_for[stop] is not None:
            fit = fit_for[stop]
        else:
            fit = fit_minimax_polynomial(
                keys[start:stop], values[start:stop], degree, solver=solver
            )
        segments.append(_make_segment(keys, start, stop, fit))
        stop = start
    segments.reverse()
    return segments


def segment_count(segments: list[Segment]) -> int:
    """Number of segments (``h`` in the paper's Figure 6)."""
    return len(segments)
