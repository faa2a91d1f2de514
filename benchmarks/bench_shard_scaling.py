"""Shard-scaling benchmark.

Measures 1-D and 2-D COUNT/SUM batch throughput through
:class:`~repro.queries.sharding.ShardedQueryEngine` at 1, 2 and 4 shards on
its thread pool (shared in-process directory; NumPy releases the GIL in the
large kernels).  Every sharded result is checked *bit-identical* to the
serial batch path.

Shard speedup is hardware-bound: the artifact records ``cpu_count`` and the
throughput assertions only apply where enough cores exist (a single-core
container can still verify bit-identical merging, but not scaling).

Run with ``python benchmarks/bench_shard_scaling.py`` (``make
bench-shards``); it writes ``BENCH_shard_scaling.json`` under the
git-ignored ``benchmarks/out/`` and exits non-zero when a gate fails.  The
bit-identity gate also holds in ``tests/test_sharding.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro import Aggregate, Guarantee, PolyFit2DIndex, PolyFitIndex
from repro.bench import format_table, sweep_shard_counts, time_callable_ns
from repro.queries.sharding import ShardedQueryEngine

ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_shard_scaling.json"
SHARD_COUNTS = [1, 2, 4]

#: Workload sizes (queries per section).
SIZES = {"one_key_count": 1_000_000, "one_key_sum": 250_000, "two_key": 150_000}


def _range_bounds(keys: np.ndarray, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """N uniform range-query bounds over the key span, as flat arrays."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(float(keys[0]), float(keys[-1]), size=(2, n))
    return np.minimum(a[0], a[1]), np.maximum(a[0], a[1])


def _rectangle_bounds(
    xs: np.ndarray, ys: np.ndarray, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """N uniform rectangle-query bounds over the point bounding box."""
    rng = np.random.default_rng(seed)
    ax = rng.uniform(xs.min(), xs.max(), size=(2, n))
    ay = rng.uniform(ys.min(), ys.max(), size=(2, n))
    return (
        np.minimum(ax[0], ax[1]),
        np.maximum(ax[0], ax[1]),
        np.minimum(ay[0], ay[1]),
        np.maximum(ay[0], ay[1]),
    )


def _shard_section(index, bounds, *, repeats: int) -> dict:
    """Sweep shard counts for one index; verify bit-identical."""
    num_queries = len(bounds[0])
    serial = index.estimate_batch(*bounds)
    serial_ns = time_callable_ns(lambda: index.estimate_batch(*bounds), repeats=repeats)
    serial_qps = round(num_queries / (serial_ns / 1e9))
    timings = sweep_shard_counts(
        index, bounds=bounds, shard_counts=SHARD_COUNTS, repeats=repeats
    )
    per_count: dict = {}
    for count, timing in timings.items():
        with ShardedQueryEngine(index, num_shards=count, min_queries_per_shard=1) as engine:
            identical = bool(np.array_equal(engine.estimate_batch(*bounds), serial))
        qps = round(1e9 / timing.per_query_ns)
        per_count[str(count)] = {
            "qps": qps,
            "speedup_vs_serial": round(qps / serial_qps, 2),
            "identical_to_serial": identical,
        }
    return {"num_queries": num_queries, "serial_qps": serial_qps, "shards": per_count}


def run_benchmark(sizes: dict, *, repeats: int = 2) -> dict:
    """Full artifact dict: qps vs shards for 1-D COUNT/SUM and 2-D COUNT/SUM."""
    from repro.datasets import osm_points, tweet_latitudes

    keys, measures = tweet_latitudes(60_000, seed=101)
    xs, ys = osm_points(80_000, seed=103)
    weights = np.random.default_rng(104).uniform(0.5, 2.0, xs.size)

    one_key = {
        "COUNT": (
            PolyFitIndex.build(
                keys, aggregate=Aggregate.COUNT, guarantee=Guarantee.absolute(100.0)
            ),
            sizes["one_key_count"],
        ),
        "SUM": (
            PolyFitIndex.build(keys, measures, aggregate=Aggregate.SUM, delta=100.0),
            sizes["one_key_sum"],
        ),
    }
    two_key = {
        "COUNT": PolyFit2DIndex.build(
            xs, ys, guarantee=Guarantee.absolute(1000.0), grid_resolution=128
        ),
        "SUM": PolyFit2DIndex.build(
            xs,
            ys,
            measures=weights,
            aggregate=Aggregate.SUM,
            delta=250.0,
            grid_resolution=128,
        ),
    }
    return {
        "description": "batch qps vs num_shards on the thread-pool shard executor",
        "cpu_count": os.cpu_count(),
        "shard_counts": SHARD_COUNTS,
        "one_key": {
            name: _shard_section(
                index, _range_bounds(keys, num_queries, seed=271), repeats=repeats
            )
            for name, (index, num_queries) in one_key.items()
        },
        "two_key": {
            name: _shard_section(
                index,
                _rectangle_bounds(xs, ys, sizes["two_key"], seed=271),
                repeats=repeats,
            )
            for name, index in two_key.items()
        },
    }


def _print_results(results: dict) -> None:
    for dims in ("one_key", "two_key"):
        for aggregate, section in results[dims].items():
            rows = [
                [
                    count,
                    entry["qps"],
                    f"{entry['speedup_vs_serial']}x",
                    "yes" if entry["identical_to_serial"] else "NO",
                ]
                for count, entry in section["shards"].items()
            ]
            print()
            print(
                format_table(
                    ["shards", "qps", "vs serial", "identical"],
                    rows,
                    title=(
                        f"{dims} {aggregate}, {section['num_queries']} queries "
                        f"(serial {section['serial_qps']} q/s, "
                        f"{results['cpu_count']} cpus)"
                    ),
                )
            )


def _write_artifact(results: dict) -> None:
    ARTIFACT_PATH.parent.mkdir(exist_ok=True)
    ARTIFACT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nartifact written to {ARTIFACT_PATH}")


def _check_results(results: dict) -> None:
    """Invariant checks: bit-identical sharding, and scaling where cores exist."""
    for dims in ("one_key", "two_key"):
        for aggregate, section in results[dims].items():
            for count, entry in section["shards"].items():
                assert entry["identical_to_serial"], (
                    f"{dims}/{aggregate}: x{count} shards diverged "
                    "from the serial batch path"
                )
    cpus = results["cpu_count"] or 1
    if cpus >= 4:
        best = results["one_key"]["COUNT"]["shards"]["4"]["speedup_vs_serial"]
        assert best >= 1.5, f"expected >= 1.5x at 4 shards on {cpus} cpus, got {best}x"
    else:
        print(
            f"\nNOTE: {cpus} cpu(s) available - the 4-shard speedup gate "
            "needs >= 4; the bit-identity gate still applies."
        )


if __name__ == "__main__":
    bench_results = run_benchmark(SIZES, repeats=2)
    _print_results(bench_results)
    _write_artifact(bench_results)
    _check_results(bench_results)
