"""Configuration dataclasses shared across the library.

The paper exposes a small number of knobs: the polynomial degree ``deg``, the
per-segment error budget ``delta`` (derived from the requested guarantee via
Lemmas 2-7), the index fan-out, and — for the two-key case — the quadtree
split limits.  We group them in frozen dataclasses so constructed indexes can
record exactly how they were built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import QueryError

__all__ = [
    "Aggregate",
    "GuaranteeKind",
    "FitConfig",
    "SegmentationConfig",
    "IndexConfig",
    "QuadTreeConfig",
    "DEFAULT_DEGREE",
    "DEFAULT_FANOUT",
]

#: Default polynomial degree used throughout the paper's evaluation
#: (Section VII-B selects degree 2 for both COUNT and MAX).
DEFAULT_DEGREE = 2

#: Default fan-out of the search tree built over segments.
DEFAULT_FANOUT = 16


class Aggregate(str, Enum):
    """Aggregate functions supported by range aggregate queries."""

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"

    @property
    def is_cumulative(self) -> bool:
        """True for aggregates answered through a cumulative function."""
        return self in (Aggregate.COUNT, Aggregate.SUM)

    @property
    def is_extremum(self) -> bool:
        """True for aggregates answered through the key-measure function."""
        return self in (Aggregate.MIN, Aggregate.MAX)


class GuaranteeKind(str, Enum):
    """The two guarantee flavours studied by the paper.

    ``ABSOLUTE`` corresponds to Problem 1 (``|A - R| <= eps_abs``) and
    ``RELATIVE`` to Problem 2 (``|A - R| / R <= eps_rel``).
    """

    ABSOLUTE = "absolute"
    RELATIVE = "relative"


@dataclass(frozen=True)
class FitConfig:
    """Configuration of a single minimax polynomial fit.

    Parameters
    ----------
    degree:
        Degree of the fitted polynomial (``deg`` in the paper).
    solver:
        ``"auto"`` picks the exact incremental (convex-hull) fitter for
        degree <= 1 and the Remez exchange for degree >= 2, with the HiGHS LP
        as the automatic fallback and correctness oracle; ``"incremental"``
        forces the hull fitter (degree <= 1 only); ``"remez"`` forces the
        exchange; ``"lp"`` forces the linear program of Eq. 9; ``"lstsq"``
        uses least squares (no minimax optimality — used only for ablation
        benchmarks).
    rescale:
        Whether keys are affinely mapped to ``[-1, 1]`` before fitting for
        numerical stability.  Coefficients are stored in the scaled basis.
    """

    degree: int = DEFAULT_DEGREE
    solver: str = "auto"
    rescale: bool = True

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise QueryError(f"polynomial degree must be >= 0, got {self.degree}")
        if self.solver not in ("auto", "incremental", "remez", "lp", "lstsq"):
            raise QueryError(f"unknown solver {self.solver!r}")
        if self.solver == "incremental" and self.degree > 1:
            raise QueryError(
                "the incremental solver is exact only for degree <= 1; "
                "use 'auto' or 'remez' for higher degrees"
            )


@dataclass(frozen=True)
class SegmentationConfig:
    """Configuration of the 1-D segmentation algorithm.

    Parameters
    ----------
    delta:
        Per-segment error budget (the bounded delta-error constraint,
        Definition 3).
    method:
        ``"greedy"`` for the GS method (Algorithm 1), ``"greedy-exponential"``
        for GS accelerated with exponential + binary search over the segment
        end, or ``"dp"`` for the dynamic-programming optimum (quadratic; used
        in tests and the ablation bench only).
    min_segment_points:
        Minimum number of points per segment; segments shorter than
        ``degree + 1`` points are always exact, so this mainly controls how
        aggressively tiny segments are produced for pathological data.
    early_accept:
        Certify probe prefixes by re-evaluating the incumbent polynomial on
        the extension before solving (a witness within delta proves
        feasibility, so boundaries never change).  Disable only to benchmark
        the solve-per-probe baseline.
    """

    delta: float = 100.0
    method: str = "greedy-exponential"
    min_segment_points: int = 1
    early_accept: bool = True

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise QueryError(f"delta must be non-negative, got {self.delta}")
        if self.method not in ("greedy", "greedy-exponential", "dp"):
            raise QueryError(f"unknown segmentation method {self.method!r}")
        if self.min_segment_points < 1:
            raise QueryError("min_segment_points must be >= 1")


@dataclass(frozen=True)
class IndexConfig:
    """Configuration for building a :class:`repro.index.PolyFitIndex`.

    Combines the fit and segmentation settings with the fan-out of the search
    tree placed over segment boundaries.
    """

    fit: FitConfig = field(default_factory=FitConfig)
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    fanout: int = DEFAULT_FANOUT

    def __post_init__(self) -> None:
        if self.fanout < 2:
            raise QueryError(f"fanout must be >= 2, got {self.fanout}")


@dataclass(frozen=True)
class QuadTreeConfig:
    """Configuration of the quadtree segmentation used for two-key queries.

    Parameters
    ----------
    delta:
        Per-cell error budget for the fitted polynomial surface.
    max_depth:
        Maximum quadtree depth; cells at this depth keep their best fit even
        if the budget is not met (they then store an exact local grid so
        guarantees still hold).
    min_cell_points:
        Cells with at most this many points are answered exactly from the
        points themselves instead of a fitted surface.
    degree:
        Total degree of the bivariate polynomial surface.
    solver:
        Surface-fit solver: ``"auto"`` (LP with the interpolation fast path),
        ``"lp"``, or ``"lstsq"``.  No bivariate Remez exists (there is no 2-D
        equioscillation theory), so the LP remains the exact surface solver.
    build_workers:
        ``1`` (default) refines the tree by serial recursion, the
        reference; a larger value evaluates each refinement frontier on a
        thread pool of that size.  Cells on the frontier are independent,
        so parallel builds are bit-identical to the serial one — the worker
        count only changes wall-clock time.

    The build knobs (``solver``/``build_workers``) only affect
    construction; they are not serialized with the index.
    """

    delta: float = 250.0
    max_depth: int = 12
    min_cell_points: int = 16
    degree: int = DEFAULT_DEGREE
    solver: str = "auto"
    build_workers: int = 1

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise QueryError("delta must be non-negative")
        if self.max_depth < 1:
            raise QueryError("max_depth must be >= 1")
        if self.min_cell_points < 1:
            raise QueryError("min_cell_points must be >= 1")
        if self.degree < 0:
            raise QueryError("degree must be >= 0")
        if self.solver not in ("auto", "lp", "lstsq"):
            raise QueryError(f"unknown surface solver {self.solver!r}")
        if self.build_workers < 1:
            raise QueryError("build_workers must be >= 1")
