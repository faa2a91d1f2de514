"""repro — reproduction of PolyFit (EDBT 2021).

PolyFit answers approximate range aggregate queries (COUNT, SUM, MIN, MAX)
with deterministic absolute/relative error guarantees by indexing piecewise
minimax-fitted polynomials instead of individual keys.

Quickstart
----------
>>> import numpy as np
>>> from repro import PolyFitIndex, RangeQuery, Aggregate, Guarantee
>>> keys = np.sort(np.random.default_rng(0).uniform(0, 1000, size=10_000))
>>> index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT,
...                            guarantee=Guarantee.absolute(100))
>>> result = index.query(RangeQuery(100, 600, Aggregate.COUNT),
...                      Guarantee.absolute(100))
>>> abs(result.value - np.count_nonzero((keys >= 100) & (keys <= 600))) <= 100
True

Batch queries
-------------
Workloads should go through :meth:`PolyFitIndex.query_batch`, which answers
N queries with O(1) NumPy calls over the index's flat coefficient-matrix
layout (50-100x the throughput of the per-query loop):

>>> lows = np.array([100.0, 200.0, 300.0])
>>> highs = np.array([600.0, 700.0, 800.0])
>>> batch = index.query_batch(lows, highs, Guarantee.absolute(100))
>>> batch.values.shape
(3,)

Large workloads can additionally be fanned out across threads with
:class:`ShardedQueryEngine` (bit-identical to the serial path), and built
indexes persist through one zero-copy binary codec (:func:`save_index` /
mmap'd :func:`load_index`).

See README.md for the quickstart and benchmark entry points.
"""

from .config import (
    Aggregate,
    GuaranteeKind,
    FitConfig,
    SegmentationConfig,
    IndexConfig,
    QuadTreeConfig,
    DEFAULT_DEGREE,
)
from .errors import (
    ReproError,
    DataError,
    FittingError,
    SegmentationError,
    QueryError,
    GuaranteeNotSatisfiedError,
    NotSupportedError,
    SerializationError,
)
from .queries import (
    RangeQuery,
    RangeQuery2D,
    QueryResult,
    BatchQueryResult,
    Guarantee,
    generate_range_queries,
    generate_rectangle_queries,
    QueryEngine,
    ShardedQueryEngine,
    evaluate_accuracy,
)
from .index import (
    CellDirectory,
    SegmentDirectory,
    QuadDirectory,
    DeltaSnapshot,
    DirectoryOverlay,
    PolyFitIndex,
    PolyFit2DIndex,
    save_index,
    load_index,
)
from .stream import (
    CompactionPolicy,
    DeltaBuffer,
    UpdatablePolyFitIndex,
    UpdatablePolyFit2DIndex,
)
from .fleet import (
    PartitionMap,
    Partition,
    FleetPolicy,
    FleetRouter,
    IndexFleet,
    FleetSnapshot,
    Fleet2D,
    save_fleet,
    load_fleet,
)
from .fitting import (
    Polynomial1D,
    Polynomial2D,
    PolynomialBank,
    SurfaceBank,
    fit_minimax_polynomial,
    fit_lstsq_polynomial,
    fit_minimax_surface,
    greedy_segmentation,
    dp_segmentation,
)
from .functions import (
    build_cumulative_function,
    build_key_measure_function,
    build_cumulative_2d,
    CumulativeFunction,
    KeyMeasureFunction,
    Cumulative2D,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "Aggregate",
    "GuaranteeKind",
    "FitConfig",
    "SegmentationConfig",
    "IndexConfig",
    "QuadTreeConfig",
    "DEFAULT_DEGREE",
    # errors
    "ReproError",
    "DataError",
    "FittingError",
    "SegmentationError",
    "QueryError",
    "GuaranteeNotSatisfiedError",
    "NotSupportedError",
    "SerializationError",
    # queries
    "RangeQuery",
    "RangeQuery2D",
    "QueryResult",
    "BatchQueryResult",
    "Guarantee",
    "generate_range_queries",
    "generate_rectangle_queries",
    "QueryEngine",
    "ShardedQueryEngine",
    "evaluate_accuracy",
    # indexes
    "CellDirectory",
    "SegmentDirectory",
    "QuadDirectory",
    "DeltaSnapshot",
    "DirectoryOverlay",
    "PolyFitIndex",
    "PolyFit2DIndex",
    "save_index",
    "load_index",
    # streaming ingestion
    "CompactionPolicy",
    "DeltaBuffer",
    "UpdatablePolyFitIndex",
    "UpdatablePolyFit2DIndex",
    # partitioned fleet
    "PartitionMap",
    "Partition",
    "FleetPolicy",
    "FleetRouter",
    "IndexFleet",
    "FleetSnapshot",
    "Fleet2D",
    "save_fleet",
    "load_fleet",
    # fitting
    "Polynomial1D",
    "Polynomial2D",
    "PolynomialBank",
    "SurfaceBank",
    "fit_minimax_polynomial",
    "fit_lstsq_polynomial",
    "fit_minimax_surface",
    "greedy_segmentation",
    "dp_segmentation",
    # functions
    "build_cumulative_function",
    "build_key_measure_function",
    "build_cumulative_2d",
    "CumulativeFunction",
    "KeyMeasureFunction",
    "Cumulative2D",
]
