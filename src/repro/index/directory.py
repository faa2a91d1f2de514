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
* :class:`RangeExtremeTable` — vectorized range-extreme queries over a
  fixed value array: a MAX/MIN index's h per-segment extremes, and an
  overlay's delta-buffer measures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import QueryError, SegmentationError
from ..fitting.polynomial import PolynomialBank, SurfaceBank
from ..fitting.quadtree import QuadCell, linearize_quadtree, morton_interleave2
from ..fitting.segmentation import Segment

__all__ = [
    "CellDirectory",
    "SegmentDirectory",
    "QuadDirectory",
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

    A window of at most ``BLOCK`` values reads a sparse table cut at
    ``log2(BLOCK) + 1`` levels: two gathers.  A longer window spans two or
    more blocks of size ``BLOCK``: the in-block suffix and prefix extremes
    answer its two end blocks, and a sparse table over per-block extremes
    answers the full blocks between.  Every path is O(1) NumPy calls for N
    windows, in O(n) space.
    """

    BLOCK = 32

    def __init__(self, values: np.ndarray, maximize: bool) -> None:
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise QueryError("values must be a non-empty 1-D array")
        self._size = values.size
        self._combine = np.maximum if maximize else np.minimum
        fill = -np.inf if maximize else np.inf
        block = self.BLOCK
        n = values.size
        num_blocks = -(-n // block)
        padded = np.full(num_blocks * block, fill, dtype=np.float64)
        padded[:n] = values
        grid = padded.reshape(num_blocks, block)
        accumulate = self._combine.accumulate
        self._short = self._build_sparse_table(values, block.bit_length())
        self._block_extremes = self._combine.reduce(grid, axis=1)
        self._prefix_in_block = accumulate(grid, axis=1).reshape(-1)[:n]
        self._suffix_in_block = accumulate(grid[:, ::-1], axis=1)[:, ::-1].reshape(-1)[:n]
        self._table = self._build_sparse_table(self._block_extremes, num_blocks.bit_length())

    def _build_sparse_table(self, values: np.ndarray, levels: int) -> np.ndarray:
        """``table[k, i]`` = extreme over ``values[i : i + 2**k]`` (clamped).

        ``levels`` is capped at ``log2(n) + 1``, which covers every window.
        """
        n = values.size
        levels = min(levels, n.bit_length())
        table = np.empty((levels, n), dtype=np.float64)
        table[0] = values
        for k in range(1, levels):
            span = 1 << (k - 1)
            table[k, : n - span] = self._combine(table[k - 1, : n - span], table[k - 1, span:])
            table[k, n - span:] = table[k - 1, n - span:]
        return table

    def _sparse_query(self, table: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Extreme over ``[lo, hi]`` (inclusive, lo <= hi) from a sparse table."""
        k = np.log2(hi - lo + 1).astype(np.intp)
        return self._combine(table[k, lo], table[k, hi - np.left_shift(1, k) + 1])

    def query(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Extremes over the inclusive index windows ``[lo[i], hi[i]]``."""
        lo = np.asarray(lo, dtype=np.intp)
        hi = np.asarray(hi, dtype=np.intp)
        if lo.shape != hi.shape:
            raise QueryError("lo and hi must have matching shapes")
        if lo.size and (lo.min() < 0 or hi.max() >= self._size or np.any(hi < lo)):
            raise QueryError("window indices out of range")
        block = self.BLOCK
        out = np.empty(lo.shape, dtype=np.float64)
        short = hi - lo < block
        out[short] = self._sparse_query(self._short, lo[short], hi[short])
        spanning = ~short
        win_lo = lo[spanning]
        win_hi = hi[spanning]
        value = self._combine(self._suffix_in_block[win_lo], self._prefix_in_block[win_hi])
        first_full = win_lo // block + 1
        last_full = win_hi // block - 1
        middle = last_full >= first_full
        value[middle] = self._combine(
            value[middle], self._sparse_query(self._table, first_full[middle], last_full[middle])
        )
        out[spanning] = value
        return out

    def size_in_bytes(self) -> int:
        """Footprint of the table arrays (the short table includes the values)."""
        return int(
            self._short.nbytes
            + self._block_extremes.nbytes
            + self._prefix_in_block.nbytes
            + self._suffix_in_block.nbytes
            + self._table.nbytes
        )
