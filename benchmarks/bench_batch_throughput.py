"""Scalar vs batch throughput across methods and workload sizes.

The batch query subsystem answers a whole workload through flat-array
evaluation (one ``searchsorted`` over all bounds, gathered coefficient rows,
one vectorized Horner pass) instead of a per-query Python loop.  This driver
measures queries/sec of both paths for PolyFit and the baselines, checks that
the two paths agree to ``np.allclose`` (``tests/test_batch_equivalence.py``
holds them to exact equality), and writes a structured
``BENCH_batch_throughput.json`` artifact under the git-ignored
``benchmarks/out/``.

Methods whose structure has no flat layout (B+tree over a sample, S2
sequential sampling) answer batches with a per-query loop; they are included
so the comparison stays apples-to-apples, with their scalar pass measured on
a capped subset to keep the driver fast.

Gates: PolyFit batch >= 10x its scalar loop at 100k queries (1-D and
2-D COUNT), and batch answers ``allclose`` to the scalar loop for every
method.

Run with ``python benchmarks/bench_batch_throughput.py`` (``make
bench-batch``); it exits non-zero when a gate fails.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro import (
    Aggregate,
    Guarantee,
    PolyFit2DIndex,
    PolyFitIndex,
    generate_range_queries,
    generate_rectangle_queries,
)
from repro.baselines import (
    EquiWidthHistogram,
    FITingTree,
    KeyCumulativeArray,
    RecursiveModelIndex,
    SampledBTree,
)
from repro.bench import format_table, time_batch_per_query_ns, time_per_query_ns
from repro.queries import queries_to_bounds

ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_batch_throughput.json"
WORKLOAD_SIZES = [10_000, 100_000]
#: Scalar passes of loop-batch (or per-query-descent) methods are measured on
#: at most this many queries (their per-query cost is workload-size
#: independent).
SCALAR_CAPS = {"S-tree": 2_000, "PolyFit-2D-COUNT": 4_000}


def _measure(
    name: str,
    scalar_fn,
    batch_fn,
    queries,
    bounds: tuple[np.ndarray, ...],
) -> dict:
    """Time one method's scalar loop and batch call on one workload."""
    cap = SCALAR_CAPS.get(name, len(queries))
    scalar_queries = queries[:cap]
    scalar = time_per_query_ns(
        scalar_fn, scalar_queries, repeats=1, method=name, warmup=False
    )
    batch = time_batch_per_query_ns(
        lambda: batch_fn(*bounds), len(queries), repeats=2, method=name
    )
    scalar_values = np.array([scalar_fn(query) for query in scalar_queries], dtype=np.float64)
    batch_values = np.asarray(batch_fn(*bounds), dtype=np.float64)
    allclose = bool(np.allclose(scalar_values, batch_values[:cap], equal_nan=True))
    scalar_qps = 1e9 / scalar.per_query_ns
    batch_qps = 1e9 / batch.per_query_ns
    return {
        "scalar_qps": round(scalar_qps),
        "batch_qps": round(batch_qps),
        "speedup": round(batch_qps / scalar_qps, 2),
        "allclose": allclose,
        "scalar_measured_on": cap,
    }


def run_benchmark(keys: np.ndarray, workload_sizes=WORKLOAD_SIZES) -> dict:
    """Measure every method on every workload size; return the artifact dict."""
    polyfit = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, guarantee=Guarantee.absolute(100.0))
    kca = KeyCumulativeArray.build(keys, aggregate=Aggregate.COUNT)
    fiting = FITingTree.build(keys, aggregate=Aggregate.COUNT, error_budget=50.0)
    rmi = RecursiveModelIndex.build(keys, stage_sizes=(1, 10, 100))
    histogram = EquiWidthHistogram(keys, num_buckets=256)
    stree = SampledBTree(keys, sample_fraction=0.01)

    methods = {
        "PolyFit-1D-COUNT": (
            lambda q: polyfit.query(q).value,
            lambda lo, hi: polyfit.query_batch(lo, hi).values,
        ),
        "Exact-KCA": (
            lambda q: kca.range_aggregate(q.low, q.high),
            kca.range_aggregate_batch,
        ),
        "FITing-Tree": (
            lambda q: fiting.query(q).value,
            lambda lo, hi: fiting.query_batch(lo, hi).values,
        ),
        "RMI": (
            lambda q: rmi.query(q).value,
            lambda lo, hi: rmi.query_batch(lo, hi).values,
        ),
        "Histogram": (
            lambda q: histogram.range_estimate(q.low, q.high),
            histogram.range_estimate_batch,
        ),
        "S-tree": (
            lambda q: stree.range_estimate(q.low, q.high),
            lambda lo, hi: stree.range_estimate_batch(lo, hi),
        ),
    }

    results: dict = {
        "description": "scalar vs batch queries/sec (COUNT, single key)",
        "dataset_size": int(keys.size),
        "workload_sizes": list(workload_sizes),
        "methods": {name: {} for name in methods},
    }
    for num_queries in workload_sizes:
        queries = generate_range_queries(keys, num_queries, Aggregate.COUNT, seed=271)
        bounds = queries_to_bounds(queries)
        for name, (scalar_fn, batch_fn) in methods.items():
            results["methods"][name][str(num_queries)] = _measure(
                name, scalar_fn, batch_fn, queries, bounds
            )
    return results


def run_benchmark_2d(
    xs: np.ndarray, ys: np.ndarray, workload_sizes=WORKLOAD_SIZES
) -> dict:
    """Two-key section: rectangle COUNT through the linearized leaf directory.

    The scalar loop descends the pointer quadtree four times per query; the
    batch path is the flat directory (Morton locate + gathered nested-Horner
    pass), so the speedup column is exactly the leaf-location loop the
    linear quadtree eliminated.
    """
    index = PolyFit2DIndex.build(
        xs, ys, guarantee=Guarantee.absolute(1000.0), grid_resolution=128
    )
    methods = {
        "PolyFit-2D-COUNT": (
            lambda q: index.query(q).value,
            lambda *bounds: index.query_batch(*bounds).values,
        ),
    }
    results: dict = {
        "description": "scalar vs batch queries/sec (COUNT, two keys)",
        "dataset_size": int(xs.size),
        "num_leaves": int(index.num_leaves),
        "directory_depth": int(index.directory.depth),
        "index_bytes": int(index.size_in_bytes()),
        "workload_sizes": list(workload_sizes),
        "methods": {name: {} for name in methods},
    }
    for num_queries in workload_sizes:
        queries = generate_rectangle_queries(xs, ys, num_queries, seed=271)
        bounds = queries_to_bounds(queries)
        for name, (scalar_fn, batch_fn) in methods.items():
            results["methods"][name][str(num_queries)] = _measure(
                name, scalar_fn, batch_fn, queries, bounds
            )
    return results


def check_gates(one_key: dict, two_key: dict) -> list[str]:
    """Acceptance gates; returns failure messages.

    Batch answers must agree with the scalar loop for every method, and
    PolyFit batch COUNT must run >= 10x over its scalar loop (1-D and 2-D)
    at the largest workload.
    """
    failures = []
    largest = str(WORKLOAD_SIZES[-1])
    for section in (one_key, two_key):
        for name, sizes in section["methods"].items():
            if not all(entry["allclose"] for entry in sizes.values()):
                failures.append(f"{name}: batch answers diverge from scalar")
    for section, name in ((one_key, "PolyFit-1D-COUNT"), (two_key, "PolyFit-2D-COUNT")):
        speedup = section["methods"][name][largest]["speedup"]
        if speedup < 10.0:
            failures.append(f"{name} batch speedup {speedup}x below the 10x gate")
    return failures


def _print_results(results: dict, label: str = "Batch throughput") -> None:
    for num_queries in results["workload_sizes"]:
        rows = []
        for name, sizes in results["methods"].items():
            entry = sizes[str(num_queries)]
            rows.append(
                [
                    name,
                    entry["scalar_qps"],
                    entry["batch_qps"],
                    f"{entry['speedup']}x",
                    "yes" if entry["allclose"] else "NO",
                ]
            )
        print()
        print(
            format_table(
                ["method", "scalar q/s", "batch q/s", "speedup", "allclose"],
                rows,
                title=f"{label}, {num_queries} queries",
            )
        )


def _write_artifact(one_key: dict, two_key: dict) -> None:
    ARTIFACT_PATH.parent.mkdir(exist_ok=True)
    ARTIFACT_PATH.write_text(
        json.dumps({**one_key, "two_key": two_key}, indent=2) + "\n"
    )
    print(f"\nartifact written to {ARTIFACT_PATH}")


if __name__ == "__main__":
    import sys

    from repro.datasets import osm_points, tweet_latitudes

    dataset_keys, _ = tweet_latitudes(60_000, seed=101)
    bench_results = run_benchmark(dataset_keys)
    _print_results(bench_results)
    points_x, points_y = osm_points(80_000, seed=103)
    bench_results_2d = run_benchmark_2d(points_x, points_y)
    _print_results(bench_results_2d, label="Batch throughput (two keys)")
    _write_artifact(bench_results, bench_results_2d)
    gate_failures = check_gates(bench_results, bench_results_2d)
    if gate_failures:
        for failure in gate_failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        sys.exit(1)
    print("all gates passed")
