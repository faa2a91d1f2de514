"""The two-key PolyFit index (Section VI of the paper).

:class:`PolyFit2DIndex` answers rectangle COUNT (and SUM) queries over 2-D
points by approximating the two-key cumulative function ``CF(u, v)`` with
polynomial surfaces fitted on quadtree cells, and combining four corner
evaluations by inclusion-exclusion:

    R([x1, x2] x [y1, y2]) =  CF(x2, y2) - CF(x1, y2) - CF(x2, y1) + CF(x1, y1)

Each corner evaluation errs by at most the cell budget ``delta``, so the
answer errs by at most ``4 * delta`` (Lemma 6); the relative-error
certificate is Lemma 7, with a fall back to the exact structure when it
fails.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..config import Aggregate, GuaranteeKind, QuadTreeConfig
from ..errors import GuaranteeNotSatisfiedError, NotSupportedError, QueryError
from ..fitting.quadtree import QuadCell, build_quadtree_surface
from ..functions.cumulative2d import Cumulative2D, build_cumulative_2d
from ..queries.batch import DEFAULT_TILE_SIZE, iter_tiles, resolve_batch_certificates
from ..queries.types import BatchQueryResult, Guarantee, QueryResult, RangeQuery2D
from .directory import QuadDirectory
from .guarantees import certified_absolute_bound, certify_relative, delta_for_absolute

__all__ = ["PolyFit2DIndex"]


class PolyFit2DIndex:
    """Quadtree-of-surfaces index for two-key range COUNT/SUM queries."""

    def __init__(
        self,
        root: QuadCell,
        exact: Cumulative2D,
        delta: float,
        aggregate: Aggregate,
        config: QuadTreeConfig,
        grid_resolution: int,
        *,
        directory: QuadDirectory | None = None,
        grid: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        tile_size: int = DEFAULT_TILE_SIZE,
    ) -> None:
        self._root = root
        self._exact = exact
        self._delta = float(delta)
        self._aggregate = aggregate
        self._config = config
        self._grid_resolution = grid_resolution
        self._tile_size = int(tile_size)
        if self._tile_size < 1:
            raise QueryError(f"tile_size must be >= 1, got {tile_size}")
        # Bounding box cached once; corner evaluation clamps against it on
        # every query and must not rescan the coordinate arrays.
        self._bounds = exact.bounds
        # The read path runs on the linearized leaf directory (Morton-ordered
        # flat arrays); the pointer tree above stays as the scalar oracle.
        if directory is None:
            if grid is None:
                grid = exact.sample_grid(resolution=grid_resolution)
            directory = QuadDirectory.from_quadtree(root, *grid)
        self._directory = directory
        # The certified bound is a construction-time constant; computing it
        # once keeps it off the per-query hot path.
        self._certified_bound = certified_absolute_bound(self._delta, aggregate, num_keys=2)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        xs: np.ndarray,
        ys: np.ndarray,
        measures: np.ndarray | None = None,
        *,
        delta: float | None = None,
        guarantee: Guarantee | None = None,
        config: QuadTreeConfig | None = None,
        grid_resolution: int = 96,
        aggregate: Aggregate = Aggregate.COUNT,
    ) -> "PolyFit2DIndex":
        """Build the two-key index from point coordinates.

        Parameters
        ----------
        xs, ys:
            Point coordinates (first and second key).
        measures:
            Per-point measures; required for SUM, ignored for COUNT.
        delta:
            Per-cell fitting budget.  Either ``delta`` or an *absolute*
            ``guarantee`` must be given; Lemma 6 sets ``delta = eps_abs / 4``.
        guarantee:
            Absolute guarantee used to derive delta.
        config:
            Quadtree splitting configuration; its ``delta`` is overridden by
            the derived value.
        grid_resolution:
            Resolution of the CF sample grid the surfaces are fitted on.
        aggregate:
            COUNT (default, the case the paper evaluates) or SUM.
        """
        if aggregate not in (Aggregate.COUNT, Aggregate.SUM):
            raise NotSupportedError("two-key PolyFit supports COUNT and SUM")
        if aggregate is Aggregate.SUM and measures is None:
            raise QueryError("SUM requires per-point measures")
        if delta is None:
            if guarantee is None:
                raise QueryError("provide either delta or an absolute guarantee")
            if guarantee.kind is not GuaranteeKind.ABSOLUTE:
                raise QueryError(
                    "only absolute guarantees determine delta at build time; "
                    "pass delta explicitly for relative-error workloads"
                )
            delta = delta_for_absolute(guarantee.epsilon, aggregate, num_keys=2)
        base = config or QuadTreeConfig()
        config = replace(base, delta=delta)

        weights = measures if aggregate is Aggregate.SUM else None
        exact = build_cumulative_2d(xs, ys, weights=weights)
        grid_x, grid_y, grid_cf = exact.sample_grid(resolution=grid_resolution)
        root = build_quadtree_surface(grid_x, grid_y, grid_cf, config)
        return cls(
            root=root,
            exact=exact,
            delta=delta,
            aggregate=aggregate,
            config=config,
            grid_resolution=grid_resolution,
            grid=(grid_x, grid_y, grid_cf),
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def delta(self) -> float:
        """Per-cell fitting budget."""
        return self._delta

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the index answers."""
        return self._aggregate

    @property
    def certified_bound(self) -> float:
        """Construction-time certified absolute error bound (Lemma 6)."""
        return self._certified_bound

    @property
    def num_leaves(self) -> int:
        """Number of quadtree leaf cells."""
        return len(self._root.leaves())

    @property
    def num_fitted_leaves(self) -> int:
        """Leaves carrying a fitted surface (the rest answer exactly)."""
        return sum(1 for leaf in self._root.leaves() if not leaf.is_exact)

    @property
    def config(self) -> QuadTreeConfig:
        """Quadtree configuration used at build time."""
        return self._config

    @property
    def directory(self) -> QuadDirectory:
        """The linearized (Morton-ordered) flat leaf directory."""
        return self._directory

    @property
    def grid_resolution(self) -> int:
        """Resolution of the CF sample grid the surfaces were fitted on."""
        return self._grid_resolution

    def size_in_bytes(self) -> int:
        """Footprint of the flat leaf directory (8 bytes per stored float).

        Counts what the index actually serves queries from: the Morton key
        array, cell boundaries, certified error bounds, exact markers, the
        coefficient tensor with its scaling vectors and the exact-cell
        sample payload — not the pointer tree, which is only the build-time
        scaffolding and scalar oracle.
        """
        return self._directory.size_in_bytes()

    # ------------------------------------------------------------------ #
    # Query answering
    # ------------------------------------------------------------------ #

    def _corner(self, u: float, v: float) -> float:
        """Approximate ``CF(u, v)`` via the covering leaf's model."""
        xmin, xmax, ymin, ymax = self._bounds
        if u < xmin or v < ymin:
            return 0.0
        u = xmax if u > xmax else float(u)
        v = ymax if v > ymax else float(v)
        leaf = self._root.locate(u, v)
        return leaf.evaluate(u, v)

    def estimate(self, query: RangeQuery2D) -> float:
        """Approximate rectangle aggregate by 4-corner inclusion-exclusion."""
        if query.aggregate is not self._aggregate:
            raise NotSupportedError("aggregate mismatch")
        return (
            self._corner(query.x_high, query.y_high)
            - self._corner(query.x_low, query.y_high)
            - self._corner(query.x_high, query.y_low)
            + self._corner(query.x_low, query.y_low)
        )

    def exact(self, query: RangeQuery2D) -> float:
        """Exact rectangle count from the underlying cumulative structure."""
        return self._exact.range_count(query.x_low, query.x_high, query.y_low, query.y_high)

    def _corner_batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Approximate ``CF`` at N corner points — pure NumPy, no descent loop.

        One vectorized Morton locate into the linearized leaf directory, one
        gather of coefficient rows, one nested-Horner pass for fitted cells
        and one nearest-grid-sample gather for exact cells.  Leaf location
        never touches the pointer tree.
        """
        xmin, xmax, ymin, ymax = self._bounds
        us = np.asarray(us, dtype=np.float64)
        vs = np.asarray(vs, dtype=np.float64)
        zero = (us < xmin) | (vs < ymin)
        cu = np.clip(us, xmin, xmax)
        cv = np.clip(vs, ymin, ymax)
        rows = self._directory.locate_batch(cu, cv)
        values = self._directory.evaluate_batch(rows, cu, cv)
        return np.where(zero, 0.0, values)

    def estimate_batch(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> np.ndarray:
        """Approximate N rectangle aggregates by batched 4-corner evaluation.

        Large workloads are processed in tiles of ``tile_size`` queries so
        the transient corner/gather arrays stay bounded regardless of N; the
        tile loop runs once per tile, never per query.
        """
        x_lows, x_highs, y_lows, y_highs = self._validate_rectangles(
            x_lows, x_highs, y_lows, y_highs
        )
        return self._estimate_batch_validated(x_lows, x_highs, y_lows, y_highs)

    def _estimate_batch_validated(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> np.ndarray:
        """The tiled corner path over already-validated bound arrays."""
        n = x_lows.size
        out = np.empty(n, dtype=np.float64)
        for start, stop in iter_tiles(n, self._tile_size):
            us = np.concatenate(
                (x_highs[start:stop], x_lows[start:stop],
                 x_highs[start:stop], x_lows[start:stop])
            )
            vs = np.concatenate(
                (y_highs[start:stop], y_highs[start:stop],
                 y_lows[start:stop], y_lows[start:stop])
            )
            corners = self._corner_batch(us, vs)
            m = stop - start
            out[start:stop] = (
                corners[:m] - corners[m: 2 * m] - corners[2 * m: 3 * m] + corners[3 * m:]
            )
        return out

    def exact_batch(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> np.ndarray:
        """Exact rectangle aggregates for N queries.

        Runs the offline sort-based sweep of
        :meth:`~repro.functions.cumulative2d.Cumulative2D.range_count_batch`
        — O((n + q) log n) in a handful of NumPy passes — instead of the
        per-query window scan, so the relative-guarantee fallback no longer
        serializes on Python-level loops.
        """
        x_lows, x_highs, y_lows, y_highs = self._validate_rectangles(
            x_lows, x_highs, y_lows, y_highs
        )
        return self._exact.range_count_batch(x_lows, x_highs, y_lows, y_highs)

    def query_batch(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
        guarantee: Guarantee | None = None,
    ) -> BatchQueryResult:
        """Answer N rectangle queries with the semantics of :meth:`query`.

        Certificates are vectorized; only queries failing the Lemma 7
        relative certificate take the masked exact-fallback pass.
        """
        x_lows, x_highs, y_lows, y_highs = self._validate_rectangles(
            x_lows, x_highs, y_lows, y_highs
        )
        approx = self._estimate_batch_validated(x_lows, x_highs, y_lows, y_highs)
        # Same absolute-guarantee semantics as the scalar path: answer with
        # the approximation flagged un-guaranteed when the build budget is too
        # loose (absolute_fallback=False).
        return resolve_batch_certificates(
            approx,
            error_bound=self._certified_bound,
            guarantee=guarantee,
            exact_for_mask=lambda mask: self.exact_batch(
                x_lows[mask], x_highs[mask], y_lows[mask], y_highs[mask]
            ),
            absolute_fallback=False,
        )

    @staticmethod
    def _validate_rectangles(
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        arrays = tuple(
            np.atleast_1d(np.asarray(a, dtype=np.float64))
            for a in (x_lows, x_highs, y_lows, y_highs)
        )
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise QueryError("rectangle bound arrays must be equal-length 1-D arrays")
        if np.any(arrays[1] < arrays[0]) or np.any(arrays[3] < arrays[2]):
            raise QueryError("invalid rectangle bounds")
        return arrays

    def query(self, query: RangeQuery2D, guarantee: Guarantee | None = None) -> QueryResult:
        """Answer an approximate rectangle query with guarantee handling.

        Absolute guarantees are checked against the construction-time budget
        (``4 * delta <= eps_abs``, Lemma 6); relative guarantees use the
        Lemma 7 certificate with automatic exact fallback.
        """
        approx = self.estimate(query)
        bound = self._certified_bound
        if guarantee is None:
            return QueryResult(value=approx, guaranteed=True, error_bound=bound)
        if guarantee.kind is GuaranteeKind.ABSOLUTE:
            if bound <= guarantee.epsilon + 1e-12:
                return QueryResult(value=approx, guaranteed=True, error_bound=bound)
            return QueryResult(value=approx, guaranteed=False, error_bound=bound)
        if certify_relative(approx, self._delta, guarantee.epsilon, self._aggregate, num_keys=2):
            return QueryResult(value=approx, guaranteed=True, error_bound=bound)
        exact = self.exact(query)
        return QueryResult(value=exact, guaranteed=True, exact_fallback=True, error_bound=0.0)

    def require_guarantee(self, query: RangeQuery2D, guarantee: Guarantee) -> float:
        """Answer and raise if the guarantee cannot be certified (no fallback)."""
        approx = self.estimate(query)
        bound = self._certified_bound
        if guarantee.kind is GuaranteeKind.ABSOLUTE:
            if bound > guarantee.epsilon + 1e-12:
                raise GuaranteeNotSatisfiedError(
                    f"index delta {self._delta} certifies only +/-{bound}, "
                    f"requested eps_abs={guarantee.epsilon}"
                )
            return approx
        if not certify_relative(approx, self._delta, guarantee.epsilon, self._aggregate, 2):
            raise GuaranteeNotSatisfiedError("relative-error certificate failed")
        return approx
