"""Quadtree segmentation for two-key cumulative surfaces (Section VI).

For two keys the GS algorithm would cost at least ``O(n^2)``, so the paper
partitions the key plane with a quadtree: start from the bounding rectangle,
fit a bivariate polynomial surface to the cumulative-count samples inside the
cell, and split the cell into four children whenever the minimax error
exceeds the budget ``delta`` (Figure 13).  Splitting stops when every leaf
satisfies the budget, the leaf contains too few samples to be worth fitting,
or the maximum depth is reached (in which case the leaf stores its samples
exactly so guarantees still hold).

Construction is organized around :func:`_cell_outcome`, a pure function of a
cell's rectangle: it slices the cell's CF-grid samples directly out of the
sorted grid arrays (two ``searchsorted`` probes per axis instead of
full-grid boolean masks) and decides leaf-vs-split.  The serial build
recurses over it; the parallel build evaluates whole refinement frontiers of
it at once across a thread pool — cells on a frontier are independent, so
the parallel tree is bit-identical to the serial one regardless of
scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..config import QuadTreeConfig
from ..errors import SegmentationError
from .minimax import fit_minimax_surface
from .polynomial import Polynomial2D

__all__ = [
    "QuadCell",
    "build_quadtree_surface",
    "linearize_quadtree",
    "quadtree_build_signature",
]

#: Deepest quadtree supported by the 64-bit Morton codes of the linearized
#: leaf directory (32 bits per axis).
MAX_LINEARIZABLE_DEPTH = 32


@dataclass
class QuadCell:
    """One quadtree cell.

    A cell is either an internal node with four ``children`` or a leaf.  A
    leaf stores either a fitted polynomial surface (with its achieved error)
    or, when it has very few samples or splitting bottomed out, the raw
    samples for exact evaluation.

    Attributes
    ----------
    x_low, x_high, y_low, y_high:
        The rectangle covered by the cell.
    depth:
        Depth in the quadtree (root is 0).
    surface:
        Fitted :class:`Polynomial2D`, or ``None`` for exact leaves and
        internal nodes.
    max_error:
        Minimax error of the fitted surface over the cell's samples (0 for
        exact leaves).
    children:
        Four child cells for internal nodes, empty for leaves.
    exact_points:
        ``(us, vs, cf_values)`` stored by exact leaves.
    """

    x_low: float
    x_high: float
    y_low: float
    y_high: float
    depth: int
    surface: Polynomial2D | None = None
    max_error: float = 0.0
    children: list["QuadCell"] = field(default_factory=list)
    exact_points: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def is_leaf(self) -> bool:
        """True when the cell has no children."""
        return not self.children

    @property
    def is_exact(self) -> bool:
        """True when the leaf answers from stored samples instead of a fit."""
        return self.exact_points is not None

    def contains(self, u: float, v: float) -> bool:
        """Whether the point ``(u, v)`` lies inside the cell's rectangle."""
        return self.x_low <= u <= self.x_high and self.y_low <= v <= self.y_high

    def evaluate(self, u: float, v: float) -> float:
        """Evaluate the cell's model of the cumulative function at ``(u, v)``.

        Exact leaves answer with the nearest sampled cumulative value (the
        samples form a dense grid inside the cell, so this is exact up to the
        sampling resolution); fitted leaves evaluate their surface.
        """
        if self.is_exact:
            us, vs, cf = self.exact_points
            distances = (us - u) ** 2 + (vs - v) ** 2
            return float(cf[int(np.argmin(distances))])
        if self.surface is None:
            raise SegmentationError("internal quadtree cell evaluated directly")
        return float(self.surface(u, v))

    def locate(self, u: float, v: float) -> "QuadCell":
        """Descend to the leaf cell containing ``(u, v)``.

        Children are laid out by :func:`_refine_cell` in quadrant order
        (SW, SE, NW, NE), so the containing child can be picked with two
        comparisons against the cell midpoint instead of scanning.
        """
        cell = self
        while not cell.is_leaf:
            if len(cell.children) == 4:
                x_mid = (cell.x_low + cell.x_high) / 2.0
                y_mid = (cell.y_low + cell.y_high) / 2.0
                index = (1 if u > x_mid else 0) + (2 if v > y_mid else 0)
                cell = cell.children[index]
                continue
            found = None
            for child in cell.children:
                if child.contains(u, v):
                    found = child
                    break
            if found is None:
                # Clamp to the nearest child (points exactly on shared edges).
                found = min(
                    cell.children,
                    key=lambda c: max(c.x_low - u, u - c.x_high, 0.0)
                    + max(c.y_low - v, v - c.y_high, 0.0),
                )
            cell = found
        return cell

    def leaves(self) -> list["QuadCell"]:
        """All leaf cells below (and including) this cell."""
        if self.is_leaf:
            return [self]
        result: list[QuadCell] = []
        for child in self.children:
            result.extend(child.leaves())
        return result

    @property
    def num_parameters(self) -> int:
        """Float parameters stored by this subtree (used for Figure 19-style size accounting)."""
        own = 4  # rectangle bounds
        if self.is_exact and self.exact_points is not None:
            own += 3 * self.exact_points[0].size
        elif self.surface is not None:
            own += self.surface.num_parameters
        return own + sum(child.num_parameters for child in self.children)


def linearize_quadtree(root: QuadCell) -> tuple[list[QuadCell], np.ndarray, int]:
    """Linearize the quadtree's leaves into Morton/Z-order (linear quadtree).

    Walks the tree in child order (SW, SE, NW, NE) tracking each cell's
    integer coordinates at its own depth; every leaf at depth ``d`` covers the
    dyadic block ``[cx, cx+1) x [cy, cy+1)`` of the ``2^d x 2^d`` grid, which
    at the finest leaf depth ``D`` becomes the contiguous Morton-code range
    ``[interleave(cx << (D-d), cy << (D-d)), ... + 4^(D-d))``.  Because the
    child order matches the bit interleave (x bit low, y bit high), the DFS
    emits leaves with strictly increasing codes — the sorted key array a
    ``searchsorted`` leaf directory needs.

    Returns
    -------
    (leaves, codes, depth):
        The leaves in Z-order, their ``uint64`` Morton keys (the code of each
        leaf's lowest corner at depth ``depth``), and the finest leaf depth.
    """
    records: list[tuple[QuadCell, int, int, int]] = []

    def walk(cell: QuadCell, cx: int, cy: int, depth: int) -> None:
        if cell.is_leaf:
            records.append((cell, cx, cy, depth))
            return
        if len(cell.children) != 4:
            raise SegmentationError(
                f"cannot linearize a quadtree node with {len(cell.children)} children"
            )
        for quadrant, child in enumerate(cell.children):
            walk(child, 2 * cx + (quadrant & 1), 2 * cy + (quadrant >> 1), depth + 1)

    walk(root, 0, 0, 0)
    depth = max(record[3] for record in records)
    if depth > MAX_LINEARIZABLE_DEPTH:
        raise SegmentationError(
            f"quadtree depth {depth} exceeds the Morton code budget "
            f"({MAX_LINEARIZABLE_DEPTH} levels)"
        )
    leaves = [record[0] for record in records]
    gx = np.array([cx << (depth - d) for _, cx, _, d in records], dtype=np.uint64)
    gy = np.array([cy << (depth - d) for _, _, cy, d in records], dtype=np.uint64)
    codes = morton_interleave2(gx, gy)
    if codes.size > 1 and not np.all(codes[1:] > codes[:-1]):
        raise SegmentationError("quadtree leaves are not in strict Z-order")
    return leaves, codes, depth


def quadtree_build_signature(root: QuadCell) -> list:
    """Canonical byte-level signature of a built quadtree.

    Covers everything construction decides: the Z-order leaf codes and
    depth, every leaf's rectangle/depth/error, exact payloads and surface
    coefficients with their scalings.  Two builds are bit-identical iff
    their signatures compare equal — the single definition shared by the
    parallel-build tests and the build-time benchmark gate, so the notion
    of "bit-identical" cannot drift between them.
    """
    leaves, codes, depth = linearize_quadtree(root)
    signature: list = [codes.tobytes(), depth]
    for leaf in leaves:
        signature.append(
            (leaf.x_low, leaf.x_high, leaf.y_low, leaf.y_high, leaf.depth, leaf.max_error)
        )
        if leaf.is_exact:
            us, vs, cf = leaf.exact_points
            signature.append((us.tobytes(), vs.tobytes(), cf.tobytes()))
        else:
            surface = leaf.surface
            signature.append(
                (
                    surface.coeffs.tobytes(),
                    surface.degree,
                    surface.shift_u,
                    surface.scale_u,
                    surface.shift_v,
                    surface.scale_v,
                )
            )
    return signature


def morton_interleave2(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Interleave two <=32-bit integer coordinate arrays into Morton codes.

    Bit ``k`` of ``gx`` lands at position ``2k`` and bit ``k`` of ``gy`` at
    ``2k + 1``, matching the quadtree's (SW, SE, NW, NE) child order: the
    child index at every level is ``x_bit + 2 * y_bit``.
    """

    def spread(a: np.ndarray) -> np.ndarray:
        a = a.astype(np.uint64) & np.uint64(0xFFFFFFFF)
        a = (a | (a << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        a = (a | (a << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        a = (a | (a << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        a = (a | (a << np.uint64(2))) & np.uint64(0x3333333333333333)
        a = (a | (a << np.uint64(1))) & np.uint64(0x5555555555555555)
        return a

    return spread(np.asarray(gx)) | (spread(np.asarray(gy)) << np.uint64(1))


def build_quadtree_surface(
    grid_x: np.ndarray,
    grid_y: np.ndarray,
    grid_cf: np.ndarray,
    config: QuadTreeConfig,
) -> QuadCell:
    """Build the quadtree of polynomial surfaces over a sampled CF grid.

    Parameters
    ----------
    grid_x, grid_y:
        Grid coordinates (ascending) at which the cumulative function was
        sampled.
    grid_cf:
        ``grid_cf[i, j] = CF(grid_x[i], grid_y[j])``.
    config:
        Split budget, depth limit, degree and exact-leaf threshold.

    Returns
    -------
    QuadCell
        The root cell; every leaf either satisfies ``max_error <= delta`` or
        stores its samples exactly.
    """
    grid_x = np.asarray(grid_x, dtype=np.float64)
    grid_y = np.asarray(grid_y, dtype=np.float64)
    grid_cf = np.asarray(grid_cf, dtype=np.float64)
    if grid_x.ndim != 1 or grid_y.ndim != 1 or grid_cf.ndim != 2:
        raise SegmentationError("grid_x/grid_y must be 1-D and grid_cf 2-D")
    if grid_cf.shape != (grid_x.size, grid_y.size):
        raise SegmentationError(
            f"grid_cf shape {grid_cf.shape} does not match grid sizes "
            f"({grid_x.size}, {grid_y.size})"
        )
    if grid_x.size < 2 or grid_y.size < 2:
        raise SegmentationError("need at least a 2x2 sample grid")

    root = QuadCell(
        x_low=float(grid_x[0]),
        x_high=float(grid_x[-1]),
        y_low=float(grid_y[0]),
        y_high=float(grid_y[-1]),
        depth=0,
    )
    if config.build_workers == 1:
        _refine_cell(root, grid_x, grid_y, grid_cf, config)
    else:
        _refine_frontier_parallel(root, grid_x, grid_y, grid_cf, config)
    return root


def _cell_samples(
    x_low: float,
    x_high: float,
    y_low: float,
    y_high: float,
    grid_x: np.ndarray,
    grid_y: np.ndarray,
    grid_cf: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened (u, v, cf) samples inside the rectangle.

    The grid axes are sorted, so the covered sample block is a contiguous
    slice per axis — two ``searchsorted`` probes replace the full-grid
    boolean masks, making per-cell sampling O(cell) instead of O(grid).
    """
    i0 = int(np.searchsorted(grid_x, x_low, side="left"))
    i1 = int(np.searchsorted(grid_x, x_high, side="right"))
    j0 = int(np.searchsorted(grid_y, y_low, side="left"))
    j1 = int(np.searchsorted(grid_y, y_high, side="right"))
    nx = i1 - i0
    ny = j1 - j0
    if nx <= 0 or ny <= 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty, empty
    us = np.repeat(grid_x[i0:i1], ny)
    vs = np.tile(grid_y[j0:j1], nx)
    return us, vs, grid_cf[i0:i1, j0:j1].ravel()


def _cell_outcome(
    spec: tuple[float, float, float, float, int],
    grid_x: np.ndarray,
    grid_y: np.ndarray,
    grid_cf: np.ndarray,
    config: QuadTreeConfig,
) -> tuple:
    """Decide one cell's fate — a pure function of its rectangle.

    Returns one of ``("empty",)``, ``("exact", us, vs, cf)``,
    ``("surface", polynomial, max_error)`` or ``("split",)``.  Both the
    serial recursion and the parallel frontier driver consume exactly this,
    which is what makes parallel builds bit-identical to serial ones.
    """
    x_low, x_high, y_low, y_high, depth = spec
    us, vs, cf = _cell_samples(x_low, x_high, y_low, y_high, grid_x, grid_y, grid_cf)
    if us.size == 0:
        return ("empty",)
    if us.size <= config.min_cell_points:
        return ("exact", us, vs, cf)
    fit = fit_minimax_surface(us, vs, cf, config.degree, solver=config.solver)
    if fit.max_error <= config.delta:
        return ("surface", fit.polynomial, fit.max_error)
    if depth >= config.max_depth:
        # Depth budget exhausted without meeting the error budget: store
        # samples exactly so the index can still certify guarantees.
        return ("exact", us, vs, cf)
    return ("split",)


def _apply_outcome(
    cell: QuadCell,
    outcome: tuple,
    grid_x: np.ndarray,
    grid_y: np.ndarray,
    grid_cf: np.ndarray,
) -> list[QuadCell]:
    """Record a cell's outcome; returns the children of split cells."""
    kind = outcome[0]
    if kind == "empty":
        # Empty cells (no grid samples) become exact leaves with a single
        # synthetic corner sample taken from the nearest grid point.
        xi = int(np.clip(np.searchsorted(grid_x, cell.x_low), 0, grid_x.size - 1))
        yi = int(np.clip(np.searchsorted(grid_y, cell.y_low), 0, grid_y.size - 1))
        cell.exact_points = (
            np.array([grid_x[xi]]),
            np.array([grid_y[yi]]),
            np.array([grid_cf[xi, yi]]),
        )
        return []
    if kind == "exact":
        cell.exact_points = (outcome[1], outcome[2], outcome[3])
        return []
    if kind == "surface":
        cell.surface = outcome[1]
        cell.max_error = outcome[2]
        return []
    x_mid = (cell.x_low + cell.x_high) / 2.0
    y_mid = (cell.y_low + cell.y_high) / 2.0
    quadrants = [
        (cell.x_low, x_mid, cell.y_low, y_mid),
        (x_mid, cell.x_high, cell.y_low, y_mid),
        (cell.x_low, x_mid, y_mid, cell.y_high),
        (x_mid, cell.x_high, y_mid, cell.y_high),
    ]
    for x_low, x_high, y_low, y_high in quadrants:
        cell.children.append(
            QuadCell(
                x_low=x_low,
                x_high=x_high,
                y_low=y_low,
                y_high=y_high,
                depth=cell.depth + 1,
            )
        )
    return cell.children


def _refine_cell(
    cell: QuadCell,
    grid_x: np.ndarray,
    grid_y: np.ndarray,
    grid_cf: np.ndarray,
    config: QuadTreeConfig,
) -> None:
    spec = (cell.x_low, cell.x_high, cell.y_low, cell.y_high, cell.depth)
    outcome = _cell_outcome(spec, grid_x, grid_y, grid_cf, config)
    for child in _apply_outcome(cell, outcome, grid_x, grid_y, grid_cf):
        _refine_cell(child, grid_x, grid_y, grid_cf, config)


# --------------------------------------------------------------------- #
# Parallel frontier build
# --------------------------------------------------------------------- #

def _refine_frontier_parallel(
    root: QuadCell,
    grid_x: np.ndarray,
    grid_y: np.ndarray,
    grid_cf: np.ndarray,
    config: QuadTreeConfig,
) -> None:
    """Breadth-first refinement with each frontier fanned across a thread pool.

    Every frontier cell's outcome depends only on its own rectangle, so the
    fits are evaluated concurrently and applied in frontier order — the
    resulting tree is bit-identical to the serial recursion.  Threads share
    the grids in place (the LP/lstsq kernels release the GIL inside
    scipy/BLAS).
    """
    pool = ThreadPoolExecutor(
        max_workers=config.build_workers, thread_name_prefix="repro-build"
    )
    outcome = partial(
        _cell_outcome, grid_x=grid_x, grid_y=grid_y, grid_cf=grid_cf, config=config
    )
    try:
        frontier = [root]
        while frontier:
            specs = [
                (cell.x_low, cell.x_high, cell.y_low, cell.y_high, cell.depth)
                for cell in frontier
            ]
            next_frontier: list[QuadCell] = []
            for cell, result in zip(frontier, pool.map(outcome, specs)):
                next_frontier.extend(
                    _apply_outcome(cell, result, grid_x, grid_y, grid_cf)
                )
            frontier = next_frontier
    finally:
        pool.shutdown()
