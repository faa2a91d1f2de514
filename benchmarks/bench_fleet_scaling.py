"""Fleet benchmark: scatter-gather routing vs the monolithic index.

Protocol (1-D, degree 1, uniform keys, mixed-width range workload):

* **bit-identity gate** (also held by ``tests/test_fleet.py``) — for every
  partition count and every aggregate, fleet ``exact_batch`` answers are
  bit-identical to one monolithic :class:`~repro.index.polyfit1d.
  PolyFitIndex` over the same records (COUNT/MAX/MIN everywhere; SUM uses
  integer measures so partial sums re-associate losslessly), and certified
  relative-guarantee answers agree query-for-query on the guarantee flag.
* **throughput vs partition count** — batch queries/second through the
  fleet router at 1 (monolithic baseline), 2, 4, 8 and 16 partitions,
  serial router; the scan/merge overhead of scatter-gather is the cost
  being measured, partition-local index size is the win.
* **straddle profile** — mean number of partitions a query straddles and
  the mean merged certified bound per partition count: the bound grows
  with straddle width (bounds ADD across cut points), which is the
  accuracy price of partitioning the paper's Lemma-2/4 budgets.
* **routed writes** — inserts/second through :meth:`~repro.fleet.fleet.
  IndexFleet.insert` (route + buffer append) at each partition count.

Timing gate: the 4-partition fleet keeps >= 25% of monolithic batch
throughput on this workload — scatter-gather overhead is bounded, not free.

Run with ``python benchmarks/bench_fleet_scaling.py`` (``make
bench-fleet``); it writes ``BENCH_fleet_scaling.json`` under the
git-ignored ``benchmarks/out/`` and exits non-zero when a gate fails.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import Aggregate, Guarantee, IndexFleet, PolyFitIndex
from repro.bench import format_table
from repro.config import FitConfig, IndexConfig

ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_fleet_scaling.json"

SIZES = {
    "records": 500_000,
    "queries": 20_000,
    "inserts": 100_000,
    "partition_counts": [1, 2, 4, 8, 16],
    "repeats": 3,
}

DELTA = 100.0
KEY_RANGE = (0.0, 1e6)
CONFIG = IndexConfig(fit=FitConfig(degree=1))
AGGREGATES = [Aggregate.COUNT, Aggregate.SUM, Aggregate.MAX, Aggregate.MIN]


def _workload(records: int, queries: int, seed: int):
    rng = np.random.default_rng(seed)
    keys = rng.uniform(*KEY_RANGE, size=records)
    # integer measures keep SUM partials bit-identical under re-association
    measures = rng.integers(1, 1000, size=records).astype(np.float64)
    span = KEY_RANGE[1] - KEY_RANGE[0]
    lows = rng.uniform(KEY_RANGE[0] - 0.05 * span, KEY_RANGE[1], size=queries)
    widths = rng.uniform(0.0, 0.5 * span, size=queries)
    return keys, measures, lows, np.minimum(lows + widths, KEY_RANGE[1] * 1.05)


def _build_fleet(keys, measures, aggregate, num_partitions):
    m = None if aggregate is Aggregate.COUNT else measures
    return IndexFleet.build(
        keys, m, aggregate, delta=DELTA, config=CONFIG,
        num_partitions=num_partitions,
    )


def _best_qps(fn, batch_size: int, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return batch_size / best


def _bit_identity(fleet, mono, lows, highs, aggregate) -> bool:
    """Fleet answers == monolithic answers, bit for bit (see module doc)."""
    if not np.array_equal(
        fleet.exact_batch(lows, highs), mono.exact_batch(lows, highs),
        equal_nan=True,
    ):
        return False
    guarantee = Guarantee.relative(0.05)
    ours = fleet.query_batch(lows, highs, guarantee)
    theirs = mono.query_batch(lows, highs, guarantee)
    if not (bool(ours.guaranteed.all()) and bool(theirs.guaranteed.all())):
        return False
    # certified answers need not be bit-equal (different estimates under
    # the same guarantee) — but both must satisfy the guarantee, which the
    # all-true flags above assert against each implementation's own bound
    truth = mono.exact_batch(lows, highs)
    for answers in (ours.values, theirs.values):
        nan = np.isnan(truth)
        if not np.all(np.isnan(answers[nan])):
            return False
        nonzero = ~nan & (truth != 0)
        rel = np.abs(answers[nonzero] - truth[nonzero]) / np.abs(truth[nonzero])
        if not np.all(rel <= 0.05 + 1e-9):
            return False
    return True


def _straddle_stats(fleet, lows, highs) -> tuple[float, float]:
    pmap = fleet.partition_map
    straddled = pmap.locate(highs) - pmap.locate(lows) + 1
    bounds = fleet.snapshot().error_bounds_batch(lows, highs)
    return float(straddled.mean()), float(bounds.mean())


def run_benchmark(sizes: dict) -> dict:
    keys, measures, lows, highs = _workload(
        sizes["records"], sizes["queries"], seed=23
    )
    repeats = sizes["repeats"]
    rng = np.random.default_rng(29)
    insert_keys = rng.uniform(*KEY_RANGE, size=sizes["inserts"])

    mono = {
        aggregate: PolyFitIndex.build(
            keys,
            None if aggregate is Aggregate.COUNT else measures,
            aggregate,
            delta=DELTA,
            config=CONFIG,
        )
        for aggregate in AGGREGATES
    }
    baseline_qps = _best_qps(
        lambda: mono[Aggregate.COUNT].estimate_batch(lows, highs),
        lows.size,
        repeats,
    )

    scaling = []
    identical = True
    for count in sizes["partition_counts"]:
        fleet = _build_fleet(keys, measures, Aggregate.COUNT, count)
        for aggregate in AGGREGATES:
            agg_fleet = (
                fleet
                if aggregate is Aggregate.COUNT
                else _build_fleet(keys, measures, aggregate, count)
            )
            identical = identical and _bit_identity(
                agg_fleet, mono[aggregate], lows, highs, aggregate
            )
            if agg_fleet is not fleet:
                agg_fleet.close()
        snapshot = fleet.snapshot()  # build once, outside the timed region
        estimate_qps = _best_qps(
            lambda s=snapshot: s.estimate_batch(lows, highs), lows.size, repeats
        )
        exact_qps = _best_qps(
            lambda s=snapshot: s.exact_batch(lows, highs), lows.size, repeats
        )
        mean_straddle, mean_bound = _straddle_stats(fleet, lows, highs)
        start = time.perf_counter()
        fleet.insert(insert_keys)
        insert_qps = insert_keys.size / (time.perf_counter() - start)
        scaling.append(
            {
                "num_partitions": fleet.num_partitions,
                "estimate_qps": round(estimate_qps),
                "exact_qps": round(exact_qps),
                "vs_monolithic": round(estimate_qps / baseline_qps, 2),
                "mean_straddle": round(mean_straddle, 2),
                "mean_merged_bound": round(mean_bound, 1),
                "insert_qps": round(insert_qps),
            }
        )
        fleet.close()

    four = next(
        (row for row in scaling if row["num_partitions"] == 4), scaling[-1]
    )
    return {
        "description": (
            "partitioned fleet scatter-gather vs monolithic index: "
            "bit-identity, batch throughput, straddle/bound profile, "
            "routed insert throughput"
        ),
        "records": sizes["records"],
        "queries": sizes["queries"],
        "delta": DELTA,
        "degree": 1,
        "monolithic_estimate_qps": round(baseline_qps),
        "scaling": scaling,
        "four_partition_relative_throughput": four["vs_monolithic"],
        "gates": {
            "fleet_bit_identical_to_monolithic": identical,
        },
    }


def _print_results(results: dict) -> None:
    print(
        f"\n{results['records']} records, {results['queries']} queries/batch, "
        f"monolithic baseline {results['monolithic_estimate_qps']} q/s"
    )
    rows = [
        [row["num_partitions"], row["estimate_qps"], row["exact_qps"],
         row["vs_monolithic"], row["mean_straddle"],
         row["mean_merged_bound"], row["insert_qps"]]
        for row in results["scaling"]
    ]
    print()
    print(format_table(
        ["partitions", "estimate q/s", "exact q/s", "vs mono",
         "straddle", "merged bound", "insert/s"],
        rows,
        title="fleet scaling by partition count",
    ))
    gate = results["gates"]["fleet_bit_identical_to_monolithic"]
    print(f"\nbit-identity vs monolithic (all aggregates): {gate}")


def _write_artifact(results: dict) -> None:
    ARTIFACT_PATH.parent.mkdir(exist_ok=True)
    ARTIFACT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nartifact written to {ARTIFACT_PATH}")


def _check_results(results: dict) -> None:
    """Correctness gates, then the throughput gate."""
    for gate, passed in results["gates"].items():
        assert passed, f"gate failed: {gate}"
    for row in results["scaling"]:
        assert row["mean_straddle"] >= 1.0
        assert row["mean_merged_bound"] >= DELTA - 1e-9
    relative = results["four_partition_relative_throughput"]
    assert relative >= 0.25, (
        "4-partition fleet should keep >= 25% of monolithic batch "
        f"throughput, got {relative}"
    )


if __name__ == "__main__":
    bench_results = run_benchmark(SIZES)
    _print_results(bench_results)
    _write_artifact(bench_results)
    _check_results(bench_results)
