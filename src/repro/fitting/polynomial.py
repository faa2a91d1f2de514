"""Polynomial representations used by PolyFit segments and surfaces.

Segments store their polynomial in a *scaled* basis: keys are affinely mapped
to ``[-1, 1]`` over the segment's key span before evaluation.  This keeps the
Vandermonde systems well conditioned for real-world keys (timestamps in the
hundreds of thousands raised to the 3rd or 4th power overflow double precision
precision budgets quickly).  The scaling is part of the polynomial object, so
callers always evaluate in raw key space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import FittingError, QueryError

__all__ = ["Polynomial1D", "Polynomial2D", "PolynomialBank", "SurfaceBank"]

_FLOAT_MAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class Polynomial1D:
    """A univariate polynomial with an affine input scaling.

    The value at a raw key ``k`` is ``sum_j coeffs[j] * t**j`` where
    ``t = (k - shift) / scale``.

    Attributes
    ----------
    coeffs:
        Coefficients in increasing-degree order (length ``degree + 1``).
    shift, scale:
        Affine input mapping; ``scale`` must be positive.
    """

    coeffs: np.ndarray
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise FittingError("coefficients must be a non-empty 1-D array")
        if not np.all(np.isfinite(coeffs)):
            raise FittingError("coefficients contain NaN or infinite values")
        if self.scale <= 0:
            raise FittingError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_coeff_list", [float(c) for c in coeffs])

    @property
    def degree(self) -> int:
        """Degree of the polynomial (number of coefficients minus one)."""
        return int(self.coeffs.size - 1)

    def finite_on(self, low: float, high: float) -> bool:
        """Whether Horner evaluation provably stays finite on raw ``[low, high]``.

        Every Horner partial sum is bounded by ``sum|c| * max(1, |t|)**degree``,
        so local coordinates up to ``(max_float / (2 sum|c|)) ** (1/degree)``
        are safe.  A near-subnormal key span has a tiny ``scale``, which
        sends a key even a unit away past that radius: evaluating there
        would overflow to inf or NaN.
        """
        magnitude = max(sum(abs(c) for c in self._coeff_list), 1.0)
        radius = (_FLOAT_MAX / (2.0 * magnitude)) ** (1.0 / max(self.degree, 1))
        reach = radius * self.scale
        return abs(low - self.shift) <= reach and abs(high - self.shift) <= reach

    def _to_local(self, k: np.ndarray | float) -> np.ndarray | float:
        return (np.asarray(k, dtype=np.float64) - self.shift) / self.scale

    def __call__(self, k: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the polynomial at raw key(s) ``k`` (Horner's scheme).

        Scalar inputs take a pure-Python fast path: query-time evaluations are
        single keys, and plain float arithmetic avoids per-call numpy
        dispatch overhead without changing the result.
        """
        if isinstance(k, (int, float)):
            t = (float(k) - self.shift) / self.scale
            result = 0.0
            for coefficient in self._coeff_list[::-1]:
                result = result * t + coefficient
            return result
        t = self._to_local(k)
        result = np.zeros_like(t, dtype=np.float64)
        for coefficient in self.coeffs[::-1]:
            result = result * t + coefficient
        if np.isscalar(k) or np.ndim(k) == 0:
            return float(result)
        return result

    def derivative(self) -> "Polynomial1D":
        """Return the derivative with respect to the *raw* key.

        The chain rule contributes a factor ``1/scale``; the returned
        polynomial keeps the same input scaling.
        """
        if self.degree == 0:
            return Polynomial1D(np.zeros(1), self.shift, self.scale)
        powers = np.arange(1, self.coeffs.size, dtype=np.float64)
        deriv = self.coeffs[1:] * powers / self.scale
        return Polynomial1D(deriv, self.shift, self.scale)

    def critical_points(self) -> np.ndarray:
        """Raw keys at which the derivative may vanish.

        The finite entries of this polynomial's row in
        :meth:`PolynomialBank.critical_points`.
        """
        roots = PolynomialBank.from_polynomials([self]).critical_points()[0]
        return roots[~np.isnan(roots)]

    @property
    def num_parameters(self) -> int:
        """Number of stored float parameters (coefficients + scaling)."""
        return self.coeffs.size + 2


class PolynomialBank:
    """Flat coefficient-matrix layout over a family of :class:`Polynomial1D`.

    Stores all coefficients of ``h`` polynomials in one contiguous
    ``(h, width)`` matrix (rows zero-padded up to the largest degree) plus
    ``(h,)`` shift/scale vectors, so a batch of evaluations — one polynomial
    row per input key — runs as a single vectorized Horner recurrence over the
    matrix columns instead of ``h`` Python-level calls.  This is the flat
    array layout learned indexes (RMI, FITing-tree) use to reach their query
    throughput, applied to PolyFit's per-segment polynomials.
    """

    __slots__ = ("_coeffs", "_shifts", "_scales")

    def __init__(self, coeffs: np.ndarray, shifts: np.ndarray, scales: np.ndarray) -> None:
        coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        shifts = np.ascontiguousarray(shifts, dtype=np.float64)
        scales = np.ascontiguousarray(scales, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.shape[1] == 0:
            raise FittingError("coefficient matrix must be 2-D with at least one column")
        if shifts.shape != (coeffs.shape[0],) or scales.shape != (coeffs.shape[0],):
            raise FittingError("shifts/scales must have one entry per polynomial row")
        if not np.all(np.isfinite(coeffs)):
            raise FittingError("coefficient matrix contains NaN or infinite values")
        if np.any(scales <= 0):
            raise FittingError("scales must be positive")
        self._coeffs = coeffs
        self._shifts = shifts
        self._scales = scales

    @classmethod
    def from_polynomials(cls, polynomials: Sequence[Polynomial1D]) -> "PolynomialBank":
        """Pack polynomials (possibly of mixed degree) into one flat matrix."""
        if not polynomials:
            raise FittingError("cannot build a bank from zero polynomials")
        width = max(polynomial.coeffs.size for polynomial in polynomials)
        coeffs = np.zeros((len(polynomials), width), dtype=np.float64)
        shifts = np.empty(len(polynomials), dtype=np.float64)
        scales = np.empty(len(polynomials), dtype=np.float64)
        for row, polynomial in enumerate(polynomials):
            coeffs[row, : polynomial.coeffs.size] = polynomial.coeffs
            shifts[row] = polynomial.shift
            scales[row] = polynomial.scale
        return cls(coeffs=coeffs, shifts=shifts, scales=scales)

    @property
    def num_polynomials(self) -> int:
        """Number of rows (polynomials) in the bank."""
        return int(self._coeffs.shape[0])

    @property
    def width(self) -> int:
        """Columns of the coefficient matrix (max degree + 1)."""
        return int(self._coeffs.shape[1])

    @property
    def coeffs(self) -> np.ndarray:
        """The ``(h, width)`` coefficient matrix (read-only view)."""
        view = self._coeffs.view()
        view.flags.writeable = False
        return view

    @property
    def shifts(self) -> np.ndarray:
        """The ``(h,)`` per-row input shifts (read-only view)."""
        view = self._shifts.view()
        view.flags.writeable = False
        return view

    @property
    def scales(self) -> np.ndarray:
        """The ``(h,)`` per-row input scales (read-only view)."""
        view = self._scales.view()
        view.flags.writeable = False
        return view

    def evaluate(self, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Evaluate ``polynomial[rows[i]](keys[i])`` for all ``i`` at once.

        A single Horner recurrence over the gathered coefficient rows: for N
        keys this costs ``width`` fused multiply-adds over length-N arrays —
        O(1) NumPy calls regardless of N.  Zero padding in high-order columns
        is harmless because Horner starts from the highest column.
        """
        rows = np.asarray(rows, dtype=np.intp)
        keys = np.asarray(keys, dtype=np.float64)
        if rows.shape != keys.shape:
            raise QueryError("rows and keys must have matching shapes")
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_polynomials):
            raise QueryError("polynomial row index out of range")
        gathered = self._coeffs[rows]  # (N, width)
        t = (keys - self._shifts[rows]) / self._scales[rows]
        result = gathered[..., -1].copy()
        for column in range(self.width - 2, -1, -1):
            result = result * t + gathered[..., column]
        return result

    def critical_points(self) -> np.ndarray:
        """Raw keys at which each row's derivative may vanish.

        Returns an ``(h, width - 2)`` array, NaN-padded.  Each derivative is
        normalized, and terms below ``1e-14`` of its largest are trimmed, so
        extreme coefficient magnitudes stay finite; rows of one trimmed
        degree share a single stacked companion-matrix ``eigvals`` call.
        Complex roots keep their real part and roots that map outside the
        float range become NaN: every caller only adds candidate points, and
        an extra candidate is harmless.
        """
        h, width = self._coeffs.shape
        roots = np.full((h, max(width - 2, 0)), np.nan)
        if width < 3:
            return roots
        tail = self._coeffs[:, 1:]
        magnitude = np.max(np.abs(tail), axis=1, keepdims=True)
        deriv = tail / np.where(magnitude > 0, magnitude, 1.0) * np.arange(1, width)
        significant = np.abs(deriv) > 1e-14 * np.max(np.abs(deriv), axis=1, keepdims=True)
        # Degree of each trimmed derivative (0 when it vanishes entirely).
        order = np.where(
            significant.any(axis=1), width - 2 - np.argmax(significant[:, ::-1], axis=1), 0
        )
        with np.errstate(all="ignore"):
            for m in range(1, width - 1):
                rows = np.flatnonzero(order == m)
                # np.roots' companion layout: first row -a[m-1..0] / a[m].
                companion = np.zeros((rows.size, m, m))
                companion[:, 0, :] = -(deriv[rows, :m] / deriv[rows, m:m + 1])[:, ::-1]
                companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
                local = np.linalg.eigvals(companion).real
                roots[rows, :m] = local * self._scales[rows, None] + self._shifts[rows, None]
        roots[~np.isfinite(roots)] = np.nan
        return roots

    def size_in_bytes(self) -> int:
        """Footprint of the flat arrays."""
        return int(self._coeffs.nbytes + self._shifts.nbytes + self._scales.nbytes)


def _total_degree_terms(degree: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j) with ``i + j <= degree``, in a fixed order."""
    return [(i, j) for total in range(degree + 1) for i in range(total + 1) for j in [total - i]]


@dataclass(frozen=True)
class Polynomial2D:
    """A bivariate polynomial of bounded total degree with input scaling.

    The value at raw coordinates ``(u, v)`` is ``sum a_ij * s**i * t**j`` over
    all exponent pairs with ``i + j <= degree``, where ``s`` and ``t`` are the
    affinely scaled coordinates.

    Attributes
    ----------
    coeffs:
        Coefficients in the order produced by :func:`_total_degree_terms`.
    degree:
        Total degree bound.
    shift_u, scale_u, shift_v, scale_v:
        Per-axis affine input mapping.
    """

    coeffs: np.ndarray
    degree: int
    shift_u: float = 0.0
    scale_u: float = 1.0
    shift_v: float = 0.0
    scale_v: float = 1.0

    def __post_init__(self) -> None:
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        expected = len(_total_degree_terms(self.degree))
        if coeffs.size != expected:
            raise FittingError(
                f"expected {expected} coefficients for total degree {self.degree}, got {coeffs.size}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise FittingError("coefficients contain NaN or infinite values")
        if self.scale_u <= 0 or self.scale_v <= 0:
            raise FittingError("scales must be positive")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_coeff_list", [float(c) for c in coeffs])
        object.__setattr__(self, "_term_list", _total_degree_terms(self.degree))

    @property
    def terms(self) -> list[tuple[int, int]]:
        """The exponent pairs, aligned with :attr:`coeffs`."""
        return _total_degree_terms(self.degree)

    def design_matrix(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vandermonde-style design matrix for scaled coordinates."""
        s = (np.asarray(us, dtype=np.float64) - self.shift_u) / self.scale_u
        t = (np.asarray(vs, dtype=np.float64) - self.shift_v) / self.scale_v
        columns = [s**i * t**j for i, j in self.terms]
        return np.column_stack(columns)

    def __call__(self, u: np.ndarray | float, v: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the surface at raw coordinates ``(u, v)``.

        Scalar inputs take a pure-Python fast path (query-time corner
        evaluations are single points); array inputs go through the design
        matrix.
        """
        if isinstance(u, (int, float)) and isinstance(v, (int, float)):
            s = (float(u) - self.shift_u) / self.scale_u
            t = (float(v) - self.shift_v) / self.scale_v
            total = 0.0
            for coefficient, (i, j) in zip(self._coeff_list, self._term_list):
                total += coefficient * (s**i) * (t**j)
            return total
        scalar = np.isscalar(u) and np.isscalar(v)
        us = np.atleast_1d(np.asarray(u, dtype=np.float64))
        vs = np.atleast_1d(np.asarray(v, dtype=np.float64))
        values = self.design_matrix(us, vs) @ self.coeffs
        if scalar:
            return float(values[0])
        return values

    def to_dict(self) -> dict:
        """Serialize to plain Python types."""
        return {
            "coeffs": self.coeffs.tolist(),
            "degree": int(self.degree),
            "shift_u": float(self.shift_u),
            "scale_u": float(self.scale_u),
            "shift_v": float(self.shift_v),
            "scale_v": float(self.scale_v),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Polynomial2D":
        """Inverse of :meth:`to_dict`."""
        return cls(
            coeffs=np.asarray(payload["coeffs"], dtype=np.float64),
            degree=int(payload["degree"]),
            shift_u=float(payload["shift_u"]),
            scale_u=float(payload["scale_u"]),
            shift_v=float(payload["shift_v"]),
            scale_v=float(payload["scale_v"]),
        )

    @property
    def num_parameters(self) -> int:
        """Number of stored float parameters (coefficients + scaling)."""
        return self.coeffs.size + 4


class SurfaceBank:
    """Flat coefficient-tensor layout over a family of :class:`Polynomial2D`.

    The bivariate analogue of :class:`PolynomialBank`: coefficients of ``h``
    surfaces live in one contiguous ``(h, width, width)`` tensor where entry
    ``[r, i, j]`` multiplies ``s**i * t**j`` (zero where ``i + j`` exceeds the
    surface's total degree), plus per-row shift/scale vectors for both axes.
    A batch of evaluations — one surface row per input point — runs as a
    nested Horner recurrence over the gathered tensor rows: ``width**2`` fused
    multiply-adds over length-N arrays, O(1) NumPy calls regardless of N.

    Rows may be ``None`` (cells that answer exactly store no surface); such
    rows are zero-filled and must never be selected by :meth:`evaluate`.
    """

    __slots__ = ("_coeffs", "_shift_u", "_scale_u", "_shift_v", "_scale_v")

    def __init__(
        self,
        coeffs: np.ndarray,
        shift_u: np.ndarray,
        scale_u: np.ndarray,
        shift_v: np.ndarray,
        scale_v: np.ndarray,
    ) -> None:
        coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2] or coeffs.shape[1] == 0:
            raise FittingError("coefficient tensor must be (h, width, width) with width >= 1")
        vectors = []
        for vector in (shift_u, scale_u, shift_v, scale_v):
            vector = np.ascontiguousarray(vector, dtype=np.float64)
            if vector.shape != (coeffs.shape[0],):
                raise FittingError("shift/scale vectors must have one entry per surface row")
            vectors.append(vector)
        if not np.all(np.isfinite(coeffs)):
            raise FittingError("coefficient tensor contains NaN or infinite values")
        if np.any(vectors[1] <= 0) or np.any(vectors[3] <= 0):
            raise FittingError("scales must be positive")
        self._coeffs = coeffs
        self._shift_u, self._scale_u, self._shift_v, self._scale_v = vectors

    @classmethod
    def from_surfaces(cls, surfaces: Sequence[Polynomial2D | None]) -> "SurfaceBank":
        """Pack surfaces (possibly of mixed degree, possibly absent) flat."""
        if not surfaces:
            raise FittingError("cannot build a bank from zero surfaces")
        width = max((s.degree + 1 for s in surfaces if s is not None), default=1)
        h = len(surfaces)
        coeffs = np.zeros((h, width, width), dtype=np.float64)
        shift_u = np.zeros(h, dtype=np.float64)
        scale_u = np.ones(h, dtype=np.float64)
        shift_v = np.zeros(h, dtype=np.float64)
        scale_v = np.ones(h, dtype=np.float64)
        for row, surface in enumerate(surfaces):
            if surface is None:
                continue
            for coefficient, (i, j) in zip(surface.coeffs, surface.terms):
                coeffs[row, i, j] = coefficient
            shift_u[row] = surface.shift_u
            scale_u[row] = surface.scale_u
            shift_v[row] = surface.shift_v
            scale_v[row] = surface.scale_v
        return cls(coeffs, shift_u, scale_u, shift_v, scale_v)

    @property
    def num_surfaces(self) -> int:
        """Number of rows (surfaces) in the bank."""
        return int(self._coeffs.shape[0])

    @property
    def width(self) -> int:
        """Per-axis width of the coefficient tensor (max total degree + 1)."""
        return int(self._coeffs.shape[1])

    @property
    def coeffs(self) -> np.ndarray:
        """The ``(h, width, width)`` coefficient tensor (read-only view)."""
        view = self._coeffs.view()
        view.flags.writeable = False
        return view

    def evaluate(self, rows: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Evaluate ``surface[rows[i]](us[i], vs[i])`` for all ``i`` at once.

        Nested Horner: for every ``s`` power the inner recurrence collapses
        the ``t`` axis, then the outer recurrence collapses the ``s`` axis.
        Zero padding is harmless because Horner starts at the highest column.
        """
        rows = np.asarray(rows, dtype=np.intp)
        us = np.asarray(us, dtype=np.float64)
        vs = np.asarray(vs, dtype=np.float64)
        if rows.shape != us.shape or rows.shape != vs.shape:
            raise QueryError("rows, us and vs must have matching shapes")
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_surfaces):
            raise QueryError("surface row index out of range")
        gathered = self._coeffs[rows]  # (N, width, width)
        s = (us - self._shift_u[rows]) / self._scale_u[rows]
        t = (vs - self._shift_v[rows]) / self._scale_v[rows]
        width = self.width
        result = np.zeros_like(s)
        for i in range(width - 1, -1, -1):
            inner = gathered[..., i, width - 1].copy()
            for j in range(width - 2, -1, -1):
                inner = inner * t + gathered[..., i, j]
            result = result * s + inner
        return result

    def size_in_bytes(self) -> int:
        """Footprint of the flat arrays."""
        return int(
            self._coeffs.nbytes
            + self._shift_u.nbytes
            + self._scale_u.nbytes
            + self._shift_v.nbytes
            + self._scale_v.nbytes
        )

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The flat arrays by field name (shared layout with the binary codec)."""
        return {
            "coeffs": self._coeffs,
            "shift_u": self._shift_u,
            "scale_u": self._scale_u,
            "shift_v": self._shift_v,
            "scale_v": self._scale_v,
        }

    @classmethod
    def from_arrays(cls, arrays: dict) -> "SurfaceBank":
        """Rebuild a bank directly from its flat arrays (inverse of :meth:`to_arrays`)."""
        return cls(
            coeffs=arrays["coeffs"],
            shift_u=arrays["shift_u"],
            scale_u=arrays["scale_u"],
            shift_v=arrays["shift_v"],
            scale_v=arrays["scale_v"],
        )
