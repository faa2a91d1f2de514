"""Flat cell-directory core shared by the one-key and two-key PolyFit indexes.

Both PolyFit indexes answer a query by *locating* the cell (1-D segment or
2-D quadtree leaf) covering a point and *evaluating* that cell's polynomial
model.  This module gives the two indexes one flat-array implementation of
that directory so batch queries run as O(1) NumPy calls instead of per-point
Python work, and so the hot read path lives entirely in contiguous read-only
arrays (the representation threads and mmap can share):

* :class:`CellDirectory` — the common layout: a sorted ``searchsorted``-able
  key per cell, cell boundary arrays, certified per-cell error bounds and
  exact-fallback markers.
* :class:`SegmentDirectory` — the 1-D specialization built from the greedy
  segmentation's segment list; keys are segment lower bounds and the
  polynomial payload is a :class:`~repro.fitting.polynomial.PolynomialBank`.
* :class:`QuadDirectory` — the 2-D specialization: the quadtree's leaves
  linearized in Morton/Z-order (a *linear quadtree*).  Locating N points is a
  vectorized midpoint descent to the finest leaf depth (bit-exact with the
  pointer tree's ``locate``), one Morton interleave and one ``searchsorted``
  into the sorted leaf keys; evaluation gathers coefficient rows into a
  single nested-Horner pass, with exact cells answered by a vectorized
  nearest-grid-sample gather.
* :class:`SegmentExtremeDirectory` — per-segment prefix/suffix extreme
  arrays plus range-extreme tables that make the MAX/MIN batch path O(1)
  NumPy calls as well.
* :class:`RectangleExtremeTree` — the 2-D analogue: a dyadic x-rank merge
  structure whose levels carry y-sorted blocks with range-extreme tables,
  answering N rectangle MAX/MIN queries in O(log^2 n) NumPy passes while
  staying bit-identical to the scalar leaf-merge oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import Aggregate
from ..errors import QueryError, SegmentationError
from ..fitting.polynomial import PolynomialBank, SurfaceBank
from ..fitting.quadtree import QuadCell, linearize_quadtree, morton_interleave2
from ..fitting.segmentation import Segment

__all__ = [
    "CellDirectory",
    "SegmentDirectory",
    "QuadDirectory",
    "QuadLeafExtremes",
    "RectangleExtremeTree",
    "SegmentExtremeDirectory",
    "RangeExtremeTable",
]


class CellDirectory:
    """Common flat layout over the cells of a piecewise-polynomial index.

    Attributes
    ----------
    keys:
        ``(h,)`` sorted locate keys — segment lower bounds (1-D) or Morton
        codes of the linearized quadtree leaves (2-D).  Cell location is one
        ``searchsorted`` over this array.
    lows, highs:
        Cell boundary arrays; ``(h,)`` key spans in 1-D, ``(h, 2)`` rectangle
        corners in 2-D.
    errors:
        ``(h,)`` certified per-cell minimax error bounds (0 for exact cells).
    exact_mask:
        ``(h,)`` markers for cells answered exactly from stored samples
        instead of a fitted polynomial.
    """

    def __init__(
        self,
        keys: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        errors: np.ndarray,
        exact_mask: np.ndarray,
    ) -> None:
        self.keys = np.ascontiguousarray(keys)
        self.lows = np.ascontiguousarray(lows, dtype=np.float64)
        self.highs = np.ascontiguousarray(highs, dtype=np.float64)
        self.errors = np.ascontiguousarray(errors, dtype=np.float64)
        self.exact_mask = np.ascontiguousarray(exact_mask, dtype=bool)
        h = self.keys.shape[0]
        if any(a.shape[0] != h for a in (self.lows, self.highs, self.errors, self.exact_mask)):
            raise QueryError("directory arrays must have one entry per cell")
        if h == 0:
            raise QueryError("directory must cover at least one cell")

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    @property
    def num_cells(self) -> int:
        """Number of cells in the directory."""
        return len(self)

    @property
    def num_exact_cells(self) -> int:
        """Cells answered from stored samples instead of a fitted polynomial."""
        return int(np.count_nonzero(self.exact_mask))

    def size_in_bytes(self) -> int:
        """Footprint of the common flat arrays."""
        return int(
            self.keys.nbytes
            + self.lows.nbytes
            + self.highs.nbytes
            + self.errors.nbytes
            + self.exact_mask.nbytes
        )


class SegmentDirectory(CellDirectory):
    """Flat searchable directory over 1-D segment key spans.

    Keys falling in the gap between two segments (possible because the
    sampled target function has gaps between consecutive data keys) map to
    the earlier segment, matching step-function semantics; keys outside the
    covered span clamp to the first/last segment.
    """

    def __init__(self, segments: Sequence[Segment]) -> None:
        segments = list(segments)
        if not segments:
            raise QueryError("cannot build a directory from zero segments")
        super().__init__(
            keys=np.array([s.key_low for s in segments], dtype=np.float64),
            lows=np.array([s.key_low for s in segments], dtype=np.float64),
            highs=np.array([s.key_high for s in segments], dtype=np.float64),
            errors=np.array([s.max_error for s in segments], dtype=np.float64),
            exact_mask=np.zeros(len(segments), dtype=bool),
        )
        self.segments = segments
        self.starts = np.array([s.start for s in segments], dtype=np.intp)
        self.stops = np.array([s.stop for s in segments], dtype=np.intp)
        self.bank = PolynomialBank.from_polynomials([s.polynomial for s in segments])
        self.extremes: SegmentExtremeDirectory | None = None

    @classmethod
    def from_segments(cls, segments: Sequence[Segment]) -> "SegmentDirectory":
        """Build the flat directory from a fitted segment list."""
        return cls(segments)

    def locate(self, key: float) -> int:
        """Index of the segment whose span contains ``key``."""
        position = int(np.searchsorted(self.keys, key, side="right")) - 1
        return int(np.clip(position, 0, len(self) - 1))

    def locate_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`locate`: one ``searchsorted`` for all keys."""
        positions = np.searchsorted(self.keys, keys, side="right") - 1
        # maximum/minimum, not np.clip: under NumPy 2 each clip call builds
        # finfo/iinfo objects, a fixed cost that dominates small batches.
        return np.minimum(np.maximum(positions, 0), len(self) - 1)

    def covering_range(self, low: float, high: float) -> tuple[int, int]:
        """Indices (first, last) of segments intersecting ``[low, high]``."""
        return self.locate(low), self.locate(high)

    def attach_extremes(
        self, sample_keys: np.ndarray, measures: np.ndarray, aggregate: Aggregate
    ) -> None:
        """Build the MAX/MIN extreme payload over the sampled target function.

        Evaluates every segment's polynomial at its own sampled keys with one
        flat bank pass, then derives the per-segment prefix/suffix extreme
        arrays and range-extreme tables the vectorized extreme path consumes.
        Idempotent for the same aggregate; re-attaching under the opposite
        extremum is rejected (the payload's merge direction is baked in).
        """
        if not aggregate.is_extremum:
            raise QueryError("extreme payload applies to MAX/MIN directories only")
        maximize = aggregate is Aggregate.MAX
        if self.extremes is not None:
            if self.extremes.maximize is not maximize:
                raise QueryError(
                    "directory already carries extremes for the opposite aggregate"
                )
            return
        rows = np.repeat(np.arange(len(self), dtype=np.intp), self.stops - self.starts)
        if rows.size != sample_keys.size:
            raise QueryError("segments do not partition the sampled keys")
        poly_values = self.bank.evaluate(rows, sample_keys)
        segment_extremes = np.empty(len(self), dtype=np.float64)
        for row, (start, stop) in enumerate(zip(self.starts, self.stops)):
            window = measures[start:stop]
            segment_extremes[row] = window.max() if maximize else window.min()
        self.extremes = SegmentExtremeDirectory(
            starts=self.starts,
            stops=self.stops,
            poly_values=poly_values,
            segment_extremes=segment_extremes,
            maximize=maximize,
        )

    def size_in_bytes(self) -> int:
        """Footprint of the flat arrays (boundary, error and coefficient)."""
        return super().size_in_bytes() + self.bank.size_in_bytes()


class QuadDirectory(CellDirectory):
    """Linear quadtree: the 2-D leaf directory flattened into Morton order.

    The pointer quadtree remains the build-time structure and the scalar
    oracle; this directory is the read-optimized view batch queries consume.
    ``keys`` holds each leaf's Morton code at the finest leaf depth, so
    locating N points is a vectorized descent (bit-exact with the pointer
    tree's midpoint comparisons), one bit interleave, and one
    ``searchsorted``.

    Exact cells reference the cumulative-function sample grid the surfaces
    were fitted on: each stores its inclusive index rectangle
    ``(ix0, ix1, iy0, iy1)`` into ``grid_x``/``grid_y``, and the nearest
    stored sample of a point decomposes into independent nearest-index
    lookups per axis (the samples form a product grid), which vectorizes.
    """

    def __init__(
        self,
        *,
        keys: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        errors: np.ndarray,
        exact_mask: np.ndarray,
        depth: int,
        root_bounds: tuple[float, float, float, float],
        surfaces: SurfaceBank,
        exact_ranges: np.ndarray,
        grid_x: np.ndarray,
        grid_y: np.ndarray,
        grid_cf: np.ndarray,
    ) -> None:
        super().__init__(keys=keys.astype(np.uint64), lows=lows, highs=highs,
                         errors=errors, exact_mask=exact_mask)
        if self.keys.size > 1 and not np.all(self.keys[1:] > self.keys[:-1]):
            # from_quadtree guarantees Z-order; this guards deserialized or
            # hand-built payloads, whose searchsorted lookups would otherwise
            # silently map points to wrong leaves.
            raise QueryError("leaf Morton keys must be strictly increasing")
        if surfaces.num_surfaces != len(self):
            raise QueryError("surface bank must have one row per cell")
        exact_ranges = np.ascontiguousarray(exact_ranges, dtype=np.intp)
        if exact_ranges.shape != (len(self), 4):
            raise QueryError("exact_ranges must be (num_cells, 4)")
        self.depth = int(depth)
        self.root_bounds = tuple(float(b) for b in root_bounds)
        self.surfaces = surfaces
        # Dyadic boundaries of the depth-level virtual grid (endpoints
        # included), built with the same recursive-midpoint arithmetic as the
        # tree so locating against them reproduces the descent bit-exactly
        # (one O(2^depth) array per axis; deep trees fall back to the level
        # loop).  When the boundaries are close enough to uniform — validated
        # here, true for every non-pathological domain — the cell index is an
        # O(1) floor-scale candidate corrected by at most one step, instead
        # of a searchsorted.
        xmin, xmax, ymin, ymax = self.root_bounds
        self._x_boundaries = _dyadic_boundaries(xmin, xmax, self.depth)
        self._y_boundaries = _dyadic_boundaries(ymin, ymax, self.depth)
        self._x_scale = _validated_grid_scale(self._x_boundaries, xmin, xmax, self.depth)
        self._y_scale = _validated_grid_scale(self._y_boundaries, ymin, ymax, self.depth)
        # Dense Morton-code -> leaf-row cache for shallow trees: one gather
        # replaces the searchsorted over leaf keys.
        if self.depth <= _MAX_ROW_TABLE_DEPTH:
            all_codes = np.arange(4 ** self.depth, dtype=np.uint64)
            table = np.searchsorted(self.keys, all_codes, side="right") - 1
            self._row_table = np.clip(table, 0, len(self) - 1).astype(np.int32)
        else:
            self._row_table = None
        self.exact_ranges = exact_ranges
        self.grid_x = np.ascontiguousarray(grid_x, dtype=np.float64)
        self.grid_y = np.ascontiguousarray(grid_y, dtype=np.float64)
        self.grid_cf = np.ascontiguousarray(grid_cf, dtype=np.float64)
        spans = exact_ranges[self.exact_mask]
        self.num_exact_samples = int(
            ((spans[:, 1] - spans[:, 0] + 1) * (spans[:, 3] - spans[:, 2] + 1)).sum()
        ) if spans.size else 0
        # Optional rectangle MAX/MIN payload (attach_extremes), mirroring the
        # 1-D directory's lazily attached extreme payload.
        self.point_extremes: QuadLeafExtremes | None = None

    @classmethod
    def from_quadtree(
        cls,
        root: QuadCell,
        grid_x: np.ndarray,
        grid_y: np.ndarray,
        grid_cf: np.ndarray,
    ) -> "QuadDirectory":
        """Linearize a built quadtree over its fitting grid into flat arrays."""
        leaves, codes, depth = linearize_quadtree(root)
        h = len(leaves)
        lows = np.array([[leaf.x_low, leaf.y_low] for leaf in leaves], dtype=np.float64)
        highs = np.array([[leaf.x_high, leaf.y_high] for leaf in leaves], dtype=np.float64)
        errors = np.array([leaf.max_error for leaf in leaves], dtype=np.float64)
        exact_mask = np.array([leaf.is_exact for leaf in leaves], dtype=bool)
        exact_ranges = np.full((h, 4), -1, dtype=np.intp)
        for row, leaf in enumerate(leaves):
            if not leaf.is_exact:
                continue
            us, vs, _ = leaf.exact_points
            ix0 = int(np.searchsorted(grid_x, us.min(), side="left"))
            ix1 = int(np.searchsorted(grid_x, us.max(), side="left"))
            iy0 = int(np.searchsorted(grid_y, vs.min(), side="left"))
            iy1 = int(np.searchsorted(grid_y, vs.max(), side="left"))
            if (ix1 - ix0 + 1) * (iy1 - iy0 + 1) != us.size:
                raise SegmentationError(
                    "exact leaf samples do not form a contiguous grid rectangle"
                )
            exact_ranges[row] = (ix0, ix1, iy0, iy1)
        surfaces = SurfaceBank.from_surfaces([leaf.surface for leaf in leaves])
        return cls(
            keys=codes,
            lows=lows,
            highs=highs,
            errors=errors,
            exact_mask=exact_mask,
            depth=depth,
            root_bounds=(root.x_low, root.x_high, root.y_low, root.y_high),
            surfaces=surfaces,
            exact_ranges=exact_ranges,
            grid_x=grid_x,
            grid_y=grid_y,
            grid_cf=grid_cf,
        )

    def locate_batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Rows of the leaves covering N points — pure NumPy, no descent loop.

        Each point is mapped to its virtual-grid cell at the finest leaf
        depth, Morton-encoded, and binary-searched against the sorted leaf
        keys.  The grid coordinate comes from one ``searchsorted`` per axis
        over the precomputed dyadic boundary arrays, which hold the *same*
        floating-point midpoint values the pointer tree splits on, so ties
        at shared cell edges resolve identically to :meth:`QuadCell.locate`
        (points on an edge go to the low-side cell).  Very deep trees fall
        back to a vectorized midpoint descent whose loop runs once per tree
        LEVEL (<= 32), never per point.
        """
        us = np.asarray(us, dtype=np.float64)
        vs = np.asarray(vs, dtype=np.float64)
        if us.shape != vs.shape:
            raise QueryError("us and vs must have matching shapes")
        if self._x_boundaries is not None and self._y_boundaries is not None:
            gx = _axis_cells(us, self._x_boundaries, self._x_scale).astype(np.uint64)
            gy = _axis_cells(vs, self._y_boundaries, self._y_scale).astype(np.uint64)
        else:
            gx, gy = self._locate_descent(us, vs)
        codes = morton_interleave2(gx, gy)
        if self._row_table is not None:
            return self._row_table[codes].astype(np.intp)
        rows = np.searchsorted(self.keys, codes, side="right") - 1
        return np.clip(rows, 0, len(self) - 1)

    def _locate_descent(self, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Virtual-grid coordinates by vectorized midpoint descent (fallback)."""
        xmin, xmax, ymin, ymax = self.root_bounds
        x_lo = np.full(us.shape, xmin)
        x_hi = np.full(us.shape, xmax)
        y_lo = np.full(us.shape, ymin)
        y_hi = np.full(us.shape, ymax)
        gx = np.zeros(us.shape, dtype=np.uint64)
        gy = np.zeros(us.shape, dtype=np.uint64)
        one = np.uint64(1)
        for _ in range(self.depth):
            x_mid = (x_lo + x_hi) / 2.0
            right = us > x_mid
            gx = (gx << one) | right.astype(np.uint64)
            x_lo = np.where(right, x_mid, x_lo)
            x_hi = np.where(right, x_hi, x_mid)
            y_mid = (y_lo + y_hi) / 2.0
            upper = vs > y_mid
            gy = (gy << one) | upper.astype(np.uint64)
            y_lo = np.where(upper, y_mid, y_lo)
            y_hi = np.where(upper, y_hi, y_mid)
        return gx, gy

    def evaluate_batch(self, rows: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Evaluate each point's cell model — fitted and exact cells batched.

        Fitted cells go through one gathered nested-Horner pass over the
        surface bank.  Exact cells snap each point to its cell's nearest
        stored grid sample: the candidate set reduces to the <=4 neighbours
        from per-axis ``searchsorted`` (clamped to the cell's index
        rectangle), with ties broken exactly like the scalar ``np.argmin``
        over the cell's flattened sample grid.
        """
        rows = np.asarray(rows, dtype=np.intp)
        us = np.asarray(us, dtype=np.float64)
        vs = np.asarray(vs, dtype=np.float64)
        out = np.empty(us.shape, dtype=np.float64)
        exact = self.exact_mask[rows]
        fitted = ~exact
        if np.any(fitted):
            out[fitted] = self.surfaces.evaluate(rows[fitted], us[fitted], vs[fitted])
        if np.any(exact):
            r = rows[exact]
            u = us[exact]
            v = vs[exact]
            ranges = self.exact_ranges[r]
            p = np.searchsorted(self.grid_x, u)
            i0 = np.clip(p - 1, ranges[:, 0], ranges[:, 1])
            i1 = np.clip(p, ranges[:, 0], ranges[:, 1])
            q = np.searchsorted(self.grid_y, v)
            j0 = np.clip(q - 1, ranges[:, 2], ranges[:, 3])
            j1 = np.clip(q, ranges[:, 2], ranges[:, 3])
            du0 = (self.grid_x[i0] - u) ** 2
            du1 = (self.grid_x[i1] - u) ** 2
            dv0 = (self.grid_y[j0] - v) ** 2
            dv1 = (self.grid_y[j1] - v) ** 2
            # Candidates in the cell's flattened (i, j) sample order so the
            # first-minimum tie-break matches the scalar argmin exactly.
            distances = np.stack((du0 + dv0, du0 + dv1, du1 + dv0, du1 + dv1))
            choice = np.argmin(distances, axis=0)
            ii = np.where(choice >= 2, i1, i0)
            jj = np.where(choice % 2 == 1, j1, j0)
            out[exact] = self.grid_cf[ii, jj]
        return out

    def attach_extremes(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        measures: np.ndarray,
        aggregate: Aggregate,
    ) -> "QuadLeafExtremes":
        """Build the rectangle MAX/MIN payload over a point set.

        The 1-D :class:`SegmentExtremeDirectory` pattern lifted to the leaf
        grid: every point is assigned to its covering leaf with one
        vectorized :meth:`locate_batch` pass, the per-leaf extreme measures
        become the stored payload (exact — the 2-D analogue of the 1-D
        per-segment true extremes), and a CSR grouping of the points by leaf
        row serves the partially covered boundary leaves.  Idempotent for
        the same aggregate; re-attaching the opposite extremum is rejected.
        """
        if not aggregate.is_extremum:
            raise QueryError("extreme payload applies to MAX/MIN only")
        maximize = aggregate is Aggregate.MAX
        if self.point_extremes is not None:
            if self.point_extremes.maximize is not maximize:
                raise QueryError(
                    "directory already carries extremes for the opposite aggregate"
                )
            return self.point_extremes
        rows = self.locate_batch(xs, ys)
        self.point_extremes = QuadLeafExtremes(
            xs=np.asarray(xs, dtype=np.float64),
            ys=np.asarray(ys, dtype=np.float64),
            measures=np.asarray(measures, dtype=np.float64),
            rows=rows,
            num_cells=len(self),
            maximize=maximize,
        )
        return self.point_extremes

    def range_extreme(
        self, x_low: float, x_high: float, y_low: float, y_high: float
    ) -> float:
        """Exact rectangle MAX/MIN via the per-leaf extreme payload (scalar).

        Leaves fully inside the query rectangle contribute their stored
        extreme; partially covered boundary leaves scan only their own
        points (CSR slice).  NaN for an empty rectangle, matching the 1-D
        empty-range convention.  Requires :meth:`attach_extremes`.
        """
        if x_high < x_low or y_high < y_low:
            raise QueryError("invalid rectangle bounds")
        if self.point_extremes is None:
            raise QueryError("call attach_extremes() before range_extreme()")
        lows = self.lows
        highs = self.highs
        intersecting = (
            (lows[:, 0] <= x_high)
            & (highs[:, 0] >= x_low)
            & (lows[:, 1] <= y_high)
            & (highs[:, 1] >= y_low)
        )
        covered = (
            intersecting
            & (lows[:, 0] >= x_low)
            & (highs[:, 0] <= x_high)
            & (lows[:, 1] >= y_low)
            & (highs[:, 1] <= y_high)
        )
        return self.point_extremes.merge(
            covered, np.nonzero(intersecting & ~covered)[0], x_low, x_high, y_low, y_high
        )

    def range_extreme_batch(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
        *,
        force_scalar: bool = False,
    ) -> np.ndarray:
        """Exact rectangle MAX/MIN for N rectangles — fully vectorized.

        Answers through the payload's :class:`RectangleExtremeTree` (built
        lazily on first call): a dyadic decomposition of each query's x-rank
        window into <= 2 blocks per level, each resolved by one bisection
        into the level's y-order and one range-extreme table gather, so the
        whole batch runs in O(log^2 n) NumPy passes with no per-query loop.
        MAX/MIN over the same point subset is the same float whatever the
        cover, so answers are bit-identical to :meth:`range_extreme`
        (including NaN for empty rectangles).  ``force_scalar=True`` keeps
        the per-query oracle loop reachable for pinning tests and benches.
        """
        x_lows = np.atleast_1d(np.asarray(x_lows, dtype=np.float64))
        x_highs = np.atleast_1d(np.asarray(x_highs, dtype=np.float64))
        y_lows = np.atleast_1d(np.asarray(y_lows, dtype=np.float64))
        y_highs = np.atleast_1d(np.asarray(y_highs, dtype=np.float64))
        if not (x_lows.shape == x_highs.shape == y_lows.shape == y_highs.shape):
            raise QueryError("rectangle bound arrays must have matching shapes")
        if np.any(x_highs < x_lows) or np.any(y_highs < y_lows):
            raise QueryError("invalid rectangle bounds")
        if self.point_extremes is None:
            raise QueryError("call attach_extremes() before range_extreme_batch()")
        if force_scalar:
            out = np.empty(x_lows.size, dtype=np.float64)
            for i, bounds in enumerate(zip(x_lows, x_highs, y_lows, y_highs)):
                out[i] = self.range_extreme(*bounds)
            return out
        return self.point_extremes.range_extreme_batch(x_lows, x_highs, y_lows, y_highs)

    def size_in_bytes(self) -> int:
        """Footprint of the flat directory (8 bytes per stored float).

        Counts the linearized leaf keys, cell boundaries, certified error
        bounds, exact markers, the coefficient tensor with its scaling
        vectors, the exact-cell index rectangles, and — mirroring the
        pointer tree's Figure-19 accounting — 3 floats per sample retained
        by an exact cell.  The full CF sample grid outside exact cells is
        build scaffolding and is excluded, like the 1-D exact fallback.
        """
        return int(
            super().size_in_bytes()
            + self.surfaces.size_in_bytes()
            + self.exact_ranges.nbytes
            + 3 * 8 * self.num_exact_samples
        )


class QuadLeafExtremes:
    """Per-leaf extreme payload for rectangle MAX/MIN over a 2-D point set.

    Stores the exact extreme measure of every leaf plus a CSR grouping of
    the points by leaf row (points sorted by leaf, one offsets array), so a
    rectangle query resolves fully covered leaves from the stored extremes
    and scans only the boundary leaves' own points — the leaf-grid analogue
    of the 1-D interior-table + boundary-segment merge.
    """

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        measures: np.ndarray,
        rows: np.ndarray,
        num_cells: int,
        maximize: bool,
    ) -> None:
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        measures = np.ascontiguousarray(measures, dtype=np.float64)
        if not (xs.ndim == 1 and xs.shape == ys.shape == measures.shape):
            raise QueryError("points and measures must be equal-length 1-D arrays")
        rows = np.asarray(rows, dtype=np.intp)
        order = np.argsort(rows, kind="stable")
        self.xs = xs[order]
        self.ys = ys[order]
        self.measures = measures[order]
        self.offsets = np.zeros(num_cells + 1, dtype=np.intp)
        counts = np.bincount(rows, minlength=num_cells)
        np.cumsum(counts, out=self.offsets[1:])
        self.maximize = bool(maximize)
        fill = -np.inf if maximize else np.inf
        self.leaf_extremes = np.full(num_cells, fill, dtype=np.float64)
        if rows.size:
            combine_at = np.maximum.at if maximize else np.minimum.at
            combine_at(self.leaf_extremes, rows, measures)
        self._fill = fill
        self._tree: RectangleExtremeTree | None = None

    def range_extreme_batch(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> np.ndarray:
        """Vectorized rectangle extremes over the payload's point set.

        Lazily builds the :class:`RectangleExtremeTree` (so scalar-only use
        pays nothing) and reuses it across calls.
        """
        if self._tree is None:
            self._tree = RectangleExtremeTree(
                self.xs, self.ys, self.measures, self.maximize
            )
        return self._tree.query(x_lows, x_highs, y_lows, y_highs)

    def merge(
        self,
        covered: np.ndarray,
        partial_rows: np.ndarray,
        x_low: float,
        x_high: float,
        y_low: float,
        y_high: float,
    ) -> float:
        """Merge stored extremes of covered leaves with boundary-leaf scans."""
        reduce = np.max if self.maximize else np.min
        best = self._fill
        occupied = covered & (self.offsets[1:] > self.offsets[:-1])
        if np.any(occupied):
            best = float(reduce(self.leaf_extremes[occupied]))
        for row in partial_rows:
            start, stop = self.offsets[row], self.offsets[row + 1]
            if stop <= start:
                continue
            inside = (
                (self.xs[start:stop] >= x_low)
                & (self.xs[start:stop] <= x_high)
                & (self.ys[start:stop] >= y_low)
                & (self.ys[start:stop] <= y_high)
            )
            if np.any(inside):
                value = float(reduce(self.measures[start:stop][inside]))
                best = max(best, value) if self.maximize else min(best, value)
        if not np.isfinite(best):
            return float("nan")
        return best

    def size_in_bytes(self) -> int:
        """Footprint of the payload arrays."""
        return int(
            self.xs.nbytes
            + self.ys.nbytes
            + self.measures.nbytes
            + self.offsets.nbytes
            + self.leaf_extremes.nbytes
            + (self._tree.size_in_bytes() if self._tree is not None else 0)
        )


class RectangleExtremeTree:
    """Batch rectangle MAX/MIN over a 2-D point set without per-query loops.

    The 2-D analogue of :class:`SegmentExtremeDirectory`: points are sorted
    by x, and every dyadic level re-sorts aligned x-rank blocks (64-point
    base blocks, doubling up to a block covering everything) by y, storing
    the level's measures under a :class:`RangeExtremeTable` in that y-order.
    A rectangle query selects its x-window with two ``searchsorted`` calls,
    covers the window with <= 2 aligned blocks per level (the canonical
    dyadic decomposition) plus two masked base-block partials, and resolves
    each block with integer ``searchsorted`` calls into the level's sorted
    ``(block, y-rank)`` composites followed by one table query — O(log n)
    C-level passes for the whole batch.

    Exactness: MAX/MIN over a point subset is the same float under any
    cover (even an overlapping one), so answers are bit-identical to the
    brute-force scan and to the scalar leaf-merge oracle — including the
    NaN convention for rectangles containing no point.  Memory is roughly
    ``4 * n * num_levels`` floats; levels start at 64-point blocks to keep
    the multiplier at ``~4 * log2(n / 64)``.
    """

    #: log2 of the base block size.  X-window pieces narrower than a base
    #: block (head/tail remainders and level-0 emissions) are answered by a
    #: fixed-width masked gather over the x-order, so no y-sorted level is
    #: stored for spans <= 32.
    BASE_SHIFT = 5

    #: Queries are processed in chunks of this size so the widest transient
    #: (the ``2*chunk x 32`` fused head/tail gather) stays under ~17 MiB.
    CHUNK = 32_768

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        measures: np.ndarray,
        maximize: bool,
    ) -> None:
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        measures = np.ascontiguousarray(measures, dtype=np.float64)
        if not (xs.ndim == 1 and xs.shape == ys.shape == measures.shape):
            raise QueryError("points and measures must be equal-length 1-D arrays")
        order = np.argsort(xs, kind="stable")
        self._xs = xs[order]
        self._maximize = bool(maximize)
        self._combine = np.maximum if maximize else np.minimum
        self._fill = -np.inf if maximize else np.inf
        n = self._xs.size
        base = 1 << self.BASE_SHIFT
        # NaN/fill padding lets the fixed-width gathers index past the end
        # without clamping; padded lanes fail every y-window comparison.
        self._ys_padded = np.concatenate([ys[order], np.full(base, np.nan)])
        self._measures_padded = np.concatenate(
            [measures[order], np.full(base, self._fill)]
        )
        self._levels: list[tuple[np.ndarray, RangeExtremeTable]] = []
        if n == 0:
            self._num_levels = 0
            return
        num_blocks = -(-n // base)
        self._num_levels = int(num_blocks).bit_length()
        x_ranks = np.arange(n, dtype=np.int64)
        ys_sorted = self._ys_padded[:n]
        measures_sorted = self._measures_padded[:n]
        # Global y-ranks: within any block, rank order equals y order (the
        # rank permutation sorts y), so the composite ``(block << shift) |
        # rank`` is globally sorted per level and an in-block y-window
        # endpoint is one integer ``searchsorted`` — no per-query bisection.
        y_order = np.argsort(ys_sorted, kind="stable")
        y_ranks = np.empty(n, dtype=np.int64)
        y_ranks[y_order] = np.arange(n, dtype=np.int64)
        self._ys_by_y = ys_sorted[y_order]
        self._rank_shift = int(n).bit_length()
        for level in range(1, self._num_levels):
            block_ids = x_ranks >> (self.BASE_SHIFT + level)
            composite = (block_ids << self._rank_shift) | y_ranks
            level_order = np.argsort(composite)
            self._levels.append(
                (
                    composite[level_order],
                    RangeExtremeTable(measures_sorted[level_order], self._maximize),
                )
            )

    def query(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> np.ndarray:
        """Extremes over N closed rectangles; NaN where no point falls inside."""
        x_lows = np.atleast_1d(np.asarray(x_lows, dtype=np.float64))
        x_highs = np.atleast_1d(np.asarray(x_highs, dtype=np.float64))
        y_lows = np.atleast_1d(np.asarray(y_lows, dtype=np.float64))
        y_highs = np.atleast_1d(np.asarray(y_highs, dtype=np.float64))
        total = x_lows.size
        if self._xs.size == 0:
            return np.full(total, np.nan)
        out = np.empty(total, dtype=np.float64)
        for start in range(0, total, self.CHUNK):
            stop = min(start + self.CHUNK, total)
            sl = slice(start, stop)
            out[sl] = self._query_chunk(
                x_lows[sl], x_highs[sl], y_lows[sl], y_highs[sl]
            )
        return out

    def _query_chunk(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> np.ndarray:
        base = 1 << self.BASE_SHIFT
        lo = np.searchsorted(self._xs, x_lows, side="left")
        hi = np.searchsorted(self._xs, x_highs, side="right")
        best = np.full(x_lows.shape, self._fill, dtype=np.float64)
        # Partial base blocks at the window's head and tail (masked gathers).
        first_block = -(-lo // base)
        last_block = hi // base
        head_stop = np.minimum(hi, first_block * base)
        tail_start = np.maximum(head_stop, last_block * base)
        partial_values = self._window_values(
            np.concatenate([lo, tail_start]),
            np.concatenate([head_stop, hi]),
            np.concatenate([y_lows, y_lows]),
            np.concatenate([y_highs, y_highs]),
        )
        n_queries = x_lows.size
        best = self._combine(best, partial_values[:n_queries])
        best = self._combine(best, partial_values[n_queries:])
        # The y-window endpoints in global y-rank space, shared by every
        # level (the per-level composite searchsorted consumes ranks).
        r_left = np.searchsorted(self._ys_by_y, y_lows, side="left").astype(np.int64)
        r_right = np.searchsorted(self._ys_by_y, y_highs, side="right").astype(np.int64)
        # Canonical dyadic cover of the fully contained base-block range,
        # emitting <= 2 aligned blocks per level (classic bottom-up walk);
        # both sides of a level resolve in one gather-or-table pass, then
        # scatter separately (one query may emit on both sides of a level).
        left = first_block
        right = np.maximum(last_block, first_block)
        for level in range(self._num_levels):
            take = (left < right) & ((left & 1) == 1)
            rows_l = np.nonzero(take)[0]
            blocks_l = left[rows_l]
            left = left + take
            take = (left < right) & ((right & 1) == 1)
            right = right - take
            rows_r = np.nonzero(take)[0]
            blocks_r = right[rows_r]
            if rows_l.size or rows_r.size:
                emit_rows = np.concatenate([rows_l, rows_r])
                blocks = np.concatenate([blocks_l, blocks_r])
                if level == 0:
                    shift = self.BASE_SHIFT
                    starts = blocks << shift
                    stops = np.minimum((blocks + 1) << shift, self._xs.size)
                    values = self._window_values(
                        starts, stops, y_lows[emit_rows], y_highs[emit_rows]
                    )
                else:
                    values = self._level_values(
                        level, blocks, r_left[emit_rows], r_right[emit_rows]
                    )
                split = rows_l.size
                best[rows_l] = self._combine(best[rows_l], values[:split])
                best[rows_r] = self._combine(best[rows_r], values[split:])
            left >>= 1
            right >>= 1
        return np.where(np.isfinite(best), best, np.nan)

    def _window_values(
        self,
        starts: np.ndarray,
        stops: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> np.ndarray:
        """Extremes over x-rank windows ``[starts, stops)`` (width <= 64).

        One masked fixed-width gather over the padded x-order; windows with
        no qualifying point yield the fill identity.
        """
        values = np.full(starts.shape, self._fill, dtype=np.float64)
        have = np.nonzero(stops > starts)[0]
        if have.size == 0:
            return values
        s = starts[have]
        width = int((stops[have] - s).max())
        idx = s[:, None] + np.arange(width, dtype=np.intp)
        ys = self._ys_padded[idx]
        inside = (
            (idx < stops[have, None])
            & (ys >= y_lows[have, None])
            & (ys <= y_highs[have, None])
        )
        reduce = np.maximum.reduce if self._maximize else np.minimum.reduce
        values[have] = reduce(
            self._measures_padded[idx], axis=1, where=inside, initial=self._fill
        )
        return values

    def _level_values(
        self,
        level: int,
        blocks: np.ndarray,
        r_left: np.ndarray,
        r_right: np.ndarray,
    ) -> np.ndarray:
        """Extremes over one level's aligned blocks clipped to the y-windows.

        ``r_left``/``r_right`` are the y-window endpoints as global y-ranks.
        The level array holds ``(block << rank_shift) | rank`` composites in
        ascending order, and the points of block ``b`` with rank below ``r``
        are exactly the composites below ``(b << rank_shift) + r``, so both
        window endpoints are plain integer ``searchsorted`` calls.
        """
        composite, table = self._levels[level - 1]
        keys = blocks.astype(np.int64) << self._rank_shift
        lo_pos = np.searchsorted(composite, keys + r_left, side="left")
        hi_pos = np.searchsorted(composite, keys + r_right, side="left")
        values = np.full(blocks.shape, self._fill, dtype=np.float64)
        nonempty = np.nonzero(hi_pos > lo_pos)[0]
        if nonempty.size:
            values[nonempty] = table.query(lo_pos[nonempty], hi_pos[nonempty] - 1)
        return values

    def size_in_bytes(self) -> int:
        """Footprint of the level stack plus the x-sorted point arrays."""
        total = self._xs.nbytes + self._ys_padded.nbytes + self._measures_padded.nbytes
        total += self._ys_by_y.nbytes if self._levels else 0
        for composite, table in self._levels:
            # composite counted twice: the table holds its own same-length
            # copy of the level's measures.
            total += 2 * composite.nbytes + table.size_in_bytes()
        return int(total)


#: Finest virtual-grid depth for which the per-axis dyadic boundary arrays
#: are materialized (2^depth + 1 floats per axis); deeper trees use the
#: per-level descent instead.
_MAX_BOUNDARY_DEPTH = 20

#: Finest depth for which the dense Morton-code -> leaf-row cache (4^depth
#: int32 entries) is materialized; deeper trees binary-search the leaf keys.
_MAX_ROW_TABLE_DEPTH = 10


def _dyadic_boundaries(low: float, high: float, depth: int) -> np.ndarray | None:
    """Split values of the depth-level dyadic grid over ``[low, high]``.

    Built by the same repeated ``(a + b) / 2`` midpoint arithmetic the
    quadtree uses, so each value is bit-identical to the corresponding tree
    split.  Includes both endpoints (``2^depth + 1`` values).  Returns
    ``None`` when the grid is too deep to materialize or the boundaries fail
    to be strictly increasing (degenerate domains), in which case callers
    must use the descent fallback.
    """
    if depth > _MAX_BOUNDARY_DEPTH:
        return None
    bounds = np.array([low, high], dtype=np.float64)
    for _ in range(depth):
        mids = (bounds[:-1] + bounds[1:]) / 2.0
        merged = np.empty(bounds.size + mids.size, dtype=np.float64)
        merged[0::2] = bounds
        merged[1::2] = mids
        bounds = merged
    if bounds.size > 1 and not np.all(bounds[1:] > bounds[:-1]):
        return None
    return bounds


def _validated_grid_scale(
    boundaries: np.ndarray | None, low: float, high: float, depth: int
) -> float | None:
    """Scale factor for O(1) arithmetic cell candidates, or ``None``.

    The dyadic boundaries deviate from the ideal uniform grid only by
    floating-point rounding, so ``floor((u - low) * scale)`` is the true
    cell index up to one step — *provided* every boundary value itself maps
    no further than one cell off, which this validates.  When validation
    fails (pathological domains) callers fall back to ``searchsorted``.
    """
    if boundaries is None or not high > low:
        return None
    num_cells = boundaries.size - 1
    scale = num_cells / (high - low)
    candidates = np.floor((boundaries - low) * scale)
    indices = np.arange(num_cells + 1, dtype=np.float64)
    if np.all(candidates >= indices - 1) and np.all(candidates <= indices):
        return float(scale)
    return None


def _axis_cells(coords: np.ndarray, boundaries: np.ndarray, scale: float | None) -> np.ndarray:
    """Cell index per coordinate on one axis of the dyadic virtual grid.

    The tie rule matches the tree descent: cell ``k`` owns the half-open
    span ``(B[k], B[k+1]]``, with out-of-range coordinates clamped to the
    first/last cell.  With a validated ``scale`` the index is an arithmetic
    candidate corrected by at most one step against the exact boundary
    values; otherwise one ``searchsorted`` counts the interior boundaries
    strictly below each coordinate.
    """
    num_cells = boundaries.size - 1
    if scale is None:
        cells = np.searchsorted(boundaries[1:-1], coords, side="left")
        return cells.astype(np.intp)
    cells = np.floor((coords - boundaries[0]) * scale).astype(np.intp)
    np.clip(cells, 0, num_cells - 1, out=cells)
    cells -= coords <= boundaries[cells]
    np.clip(cells, 0, num_cells - 1, out=cells)
    cells += coords > boundaries[cells + 1]
    np.clip(cells, 0, num_cells - 1, out=cells)
    return cells


class RangeExtremeTable:
    """Vectorized inclusive range-extreme queries over a fixed value array.

    Block decomposition with block size ``BLOCK``: per-block extremes carry a
    sparse table for the full blocks strictly inside a window, in-block
    prefix/suffix extreme arrays answer the partial end blocks, and windows
    inside a single block reduce over a masked fixed-width gather.  Every
    path is O(1) NumPy calls for N windows.
    """

    BLOCK = 32

    def __init__(self, values: np.ndarray, maximize: bool) -> None:
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise QueryError("values must be a non-empty 1-D array")
        self._values = values
        self._maximize = bool(maximize)
        self._combine = np.maximum if maximize else np.minimum
        fill = -np.inf if maximize else np.inf
        block = self.BLOCK
        n = values.size
        num_blocks = -(-n // block)
        padded = np.full(num_blocks * block, fill, dtype=np.float64)
        padded[:n] = values
        grid = padded.reshape(num_blocks, block)
        accumulate = np.maximum.accumulate if maximize else np.minimum.accumulate
        # Fill-padded copy for the fixed-width same-block gather: one spare
        # block lets a gather starting at the last element stay in bounds.
        self._values_padded = np.concatenate([padded, np.full(block, fill)])
        self._block_extremes = grid.max(axis=1) if maximize else grid.min(axis=1)
        self._prefix_in_block = accumulate(grid, axis=1).reshape(-1)[:n]
        self._suffix_in_block = accumulate(grid[:, ::-1], axis=1)[:, ::-1].reshape(-1)[:n]
        self._table = self._build_sparse_table(self._block_extremes)
        self._fill = fill

    def _build_sparse_table(self, values: np.ndarray) -> np.ndarray:
        """``table[k, i]`` = extreme over ``values[i : i + 2**k]`` (clamped)."""
        n = values.size
        levels = max(1, int(np.log2(n)) + 1)
        table = np.empty((levels, n), dtype=np.float64)
        table[0] = values
        for k in range(1, levels):
            span = 1 << (k - 1)
            table[k, : n - span] = self._combine(table[k - 1, : n - span], table[k - 1, span:])
            table[k, n - span:] = table[k - 1, n - span:]
        return table

    def _sparse_query(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Range extreme over whole blocks ``[lo, hi]`` (inclusive, lo <= hi)."""
        length = hi - lo + 1
        k = np.floor(np.log2(length)).astype(np.intp)
        offset = hi - (np.left_shift(1, k)) + 1
        return self._combine(self._table[k, lo], self._table[k, offset])

    def query(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Extremes over the inclusive index windows ``[lo[i], hi[i]]``."""
        lo = np.asarray(lo, dtype=np.intp)
        hi = np.asarray(hi, dtype=np.intp)
        if lo.shape != hi.shape:
            raise QueryError("lo and hi must have matching shapes")
        if lo.size and (lo.min() < 0 or hi.max() >= self._values.size or np.any(hi < lo)):
            raise QueryError("window indices out of range")
        block = self.BLOCK
        b_lo = lo // block
        b_hi = hi // block
        out = np.empty(lo.shape, dtype=np.float64)
        same = b_lo == b_hi
        if np.any(same):
            win_lo = lo[same]
            win_hi = hi[same]
            idx = win_lo[:, None] + np.arange(block, dtype=np.intp)[None, :]
            reduce = np.maximum.reduce if self._maximize else np.minimum.reduce
            out[same] = reduce(
                self._values_padded[idx],
                axis=1,
                where=idx <= win_hi[:, None],
                initial=self._fill,
            )
        spanning = ~same
        if np.any(spanning):
            win_lo = lo[spanning]
            win_hi = hi[spanning]
            value = self._combine(self._suffix_in_block[win_lo], self._prefix_in_block[win_hi])
            first_full = b_lo[spanning] + 1
            last_full = b_hi[spanning] - 1
            has_middle = last_full >= first_full
            if np.any(has_middle):
                middle = self._sparse_query(first_full[has_middle], last_full[has_middle])
                value[has_middle] = self._combine(value[has_middle], middle)
            out[spanning] = value
        return out

    def size_in_bytes(self) -> int:
        """Footprint of the table arrays (excluding the values themselves)."""
        return int(
            self._block_extremes.nbytes
            + self._prefix_in_block.nbytes
            + self._suffix_in_block.nbytes
            + self._table.nbytes
        )


class SegmentExtremeDirectory:
    """Flat extreme payload for the MAX/MIN batch path.

    Stores, over the sampled target function of a MAX/MIN index:

    * per-segment *prefix* extreme array — ``prefix[k]`` is the extreme of
      the covering segment's polynomial values over sample indices
      ``[start(seg(k)), k]`` — and the matching *suffix* array, which answer
      the two boundary segments of a spanning query in one gather each;
    * a range-extreme table over the per-segment TRUE measure extremes for
      the fully covered interior segments (replacing the per-query aggregate
      tree descent);
    * a range-extreme table over the polynomial values for queries whose
      window falls inside a single segment (arbitrary sub-windows).
    """

    def __init__(
        self,
        starts: np.ndarray,
        stops: np.ndarray,
        poly_values: np.ndarray,
        segment_extremes: np.ndarray,
        maximize: bool,
    ) -> None:
        poly_values = np.ascontiguousarray(poly_values, dtype=np.float64)
        self._maximize = bool(maximize)
        self._combine = np.maximum if maximize else np.minimum
        accumulate = np.maximum.accumulate if maximize else np.minimum.accumulate
        self.prefix = np.empty(poly_values.size, dtype=np.float64)
        self.suffix = np.empty(poly_values.size, dtype=np.float64)
        for start, stop in zip(starts, stops):
            window = poly_values[start:stop]
            self.prefix[start:stop] = accumulate(window)
            self.suffix[start:stop] = accumulate(window[::-1])[::-1]
        self.segment_extremes = np.ascontiguousarray(segment_extremes, dtype=np.float64)
        self._interior = RangeExtremeTable(self.segment_extremes, maximize)
        self._values = RangeExtremeTable(poly_values, maximize)

    @property
    def maximize(self) -> bool:
        """Whether the payload merges with max (MAX index) or min (MIN)."""
        return self._maximize

    def query(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        first: np.ndarray,
        last: np.ndarray,
    ) -> np.ndarray:
        """Batch extreme over sample windows ``[lo, hi]`` (inclusive).

        ``first``/``last`` are the segments covering the window's endpoints.
        Spanning windows combine the first segment's suffix extreme, the last
        segment's prefix extreme and (when at least one segment is fully
        covered) the interior table over true extremes; single-segment
        windows reduce over the polynomial-value table.  Matches the scalar
        merge of :meth:`PolyFitIndex._approximate_extreme` value for value.
        """
        lo = np.asarray(lo, dtype=np.intp)
        hi = np.asarray(hi, dtype=np.intp)
        first = np.asarray(first, dtype=np.intp)
        last = np.asarray(last, dtype=np.intp)
        out = np.empty(lo.shape, dtype=np.float64)
        same = first == last
        spanning = ~same
        if np.any(spanning):
            value = self._combine(self.suffix[lo[spanning]], self.prefix[hi[spanning]])
            covered = last[spanning] - first[spanning] > 1
            if np.any(covered):
                interior = self._interior.query(
                    first[spanning][covered] + 1, last[spanning][covered] - 1
                )
                value[covered] = self._combine(value[covered], interior)
            out[spanning] = value
        if np.any(same):
            out[same] = self._values.query(lo[same], hi[same])
        return out

    def size_in_bytes(self) -> int:
        """Footprint of the extreme payload arrays."""
        return int(
            self.prefix.nbytes
            + self.suffix.nbytes
            + self.segment_extremes.nbytes
            + self._interior.size_in_bytes()
            + self._values.size_in_bytes()
        )
