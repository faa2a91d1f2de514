"""Streaming-ingestion benchmark: inserts/s, query latency vs buffer fill,
and compaction pause.

Protocol (1-D COUNT, degree 1 — the linear-time construction path):

* **insert throughput** — records/s absorbed by
  :meth:`~repro.stream.updatable.UpdatablePolyFitIndex.insert` in fixed-size
  batches with auto-compaction off (pure buffer path).
* **query latency vs buffer fill** — batch estimate latency at increasing
  buffer occupancy; the delta contribution adds one ``searchsorted`` + one
  prefix gather per side, so the curve should stay nearly flat.
* **compaction pause** — wall time of ``compact()`` for an append-only
  buffer (corridor-scanner tail pass) and for an out-of-order buffer (the
  bounded merge-rebuild), against the wall time of a full from-scratch
  rebuild over the same records.

Correctness gates (also held by ``TestHeavyTailedIngest`` in
``tests/test_stream_updatable.py``):

* append-only post-compaction boundaries identical to a from-scratch
  :class:`~repro.index.polyfit1d.PolyFitIndex` build over all records, and
  bit-identical batch estimates;
* with a non-empty buffer, ``exact_batch`` equals the brute-force oracle
  exactly (COUNT is integer arithmetic end to end).

Timing gate: an append-only compaction at a policy-threshold buffer is
>= 2x faster than a from-scratch rebuild.

Run with ``python benchmarks/bench_update_throughput.py`` (``make
bench-update``); it writes ``BENCH_update_throughput.json`` under the
git-ignored ``benchmarks/out/`` and exits non-zero when a gate fails.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import (
    Aggregate,
    CompactionPolicy,
    PolyFitIndex,
    UpdatablePolyFitIndex,
)
from repro.bench import format_table, time_callable_ns
from repro.config import FitConfig, IndexConfig

ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_update_throughput.json"

SIZES = {"base": 500_000, "stream": 500_000, "insert_batch": 4_096,
         "queries": 50_000}

DELTA = 100.0
FILL_LEVELS = [0.0, 0.25, 0.5, 1.0]


def _stream(total: int, seed: int) -> np.ndarray:
    """A strictly increasing synthetic key stream (arrival timestamps).

    Heavy-tailed inter-arrival gaps give the cumulative function realistic
    curvature (~170 segments at 10^6 keys with delta 100); perfectly uniform
    gaps would collapse the whole function into a handful of huge segments
    and make every compaction refit degenerate-large slices.
    """
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.lognormal(0.0, 1.5, size=total))


def _query_bounds(span: tuple[float, float], n: int, seed: int):
    rng = np.random.default_rng(seed)
    a = rng.uniform(span[0], span[1], size=(2, n))
    return np.minimum(a[0], a[1]), np.maximum(a[0], a[1])


def _boundaries(segments):
    return [(s.start, s.stop, s.key_low, s.key_high) for s in segments]


def _config() -> IndexConfig:
    return IndexConfig(fit=FitConfig(degree=1))


def run_benchmark(sizes: dict, *, repeats: int = 2) -> dict:
    keys = _stream(sizes["base"] + sizes["stream"], seed=7)
    base_keys = keys[: sizes["base"]]
    stream_keys = keys[sizes["base"]:]
    span = (float(keys[0]), float(keys[-1]))
    lows, highs = _query_bounds(span, sizes["queries"], seed=11)

    build_ns = time_callable_ns(
        lambda: PolyFitIndex.build(
            base_keys, aggregate=Aggregate.COUNT, delta=DELTA, config=_config()
        ),
        repeats=1,
    )
    index = UpdatablePolyFitIndex.build(
        base_keys,
        aggregate=Aggregate.COUNT,
        delta=DELTA,
        config=_config(),
        policy=CompactionPolicy(max_buffer=10 * sizes["stream"], auto=False),
    )

    # ----- insert throughput (buffer path only) ------------------------ #
    batch = sizes["insert_batch"]
    start = time.perf_counter_ns()
    for position in range(0, sizes["stream"], batch):
        index.insert(stream_keys[position: position + batch])
    insert_ns = time.perf_counter_ns() - start
    inserts_per_s = round(sizes["stream"] / (insert_ns / 1e9))

    # Correctness with a full buffer: exact equals the brute-force oracle.
    probe_lows, probe_highs = lows[:2000], highs[:2000]
    oracle = (
        np.searchsorted(keys, probe_highs, side="right")
        - np.searchsorted(keys, probe_lows, side="left")
    ).astype(np.float64)
    buffered_exact_identical = bool(
        np.array_equal(index.exact_batch(probe_lows, probe_highs), oracle)
    )

    # ----- query latency vs buffer fill -------------------------------- #
    index_by_fill = UpdatablePolyFitIndex.build(
        base_keys,
        aggregate=Aggregate.COUNT,
        delta=DELTA,
        config=_config(),
        policy=CompactionPolicy(max_buffer=10 * sizes["stream"], auto=False),
    )
    latency_rows = []
    filled = 0
    for fill in FILL_LEVELS:
        target = int(sizes["stream"] * fill)
        if target > filled:
            index_by_fill.insert(stream_keys[filled:target])
            filled = target
        per_query_ns = time_callable_ns(
            lambda: index_by_fill.estimate_batch(lows, highs), repeats=repeats
        ) / sizes["queries"]
        latency_rows.append(
            {
                "fill_fraction": fill,
                "buffered_records": filled,
                "per_query_ns": round(per_query_ns, 1),
            }
        )

    # Half-the-data compaction (worst-case ratio): correctness gates only —
    # the timed pause below uses a realistic policy-threshold buffer.
    index.compact()
    scratch = PolyFitIndex.build(
        keys, aggregate=Aggregate.COUNT, delta=DELTA, config=_config()
    )
    rebuild_ns = time_callable_ns(
        lambda: PolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=DELTA, config=_config()
        ),
        repeats=1,
    )
    append_boundaries_identical = _boundaries(index.segments) == _boundaries(
        scratch.segments
    )
    append_estimates_identical = bool(
        np.array_equal(
            index.estimate_batch(probe_lows, probe_highs),
            scratch.estimate_batch(probe_lows, probe_highs),
        )
    )

    # ----- compaction pause at a policy-threshold buffer --------------- #
    # A buffer of ~10% of the stream (the shape an auto policy produces):
    # the pause should be bounded by the tail + open segment, not the base.
    tail = max(2, sizes["stream"] // 10)
    threshold_index = UpdatablePolyFitIndex.build(
        keys[: keys.size - tail],
        aggregate=Aggregate.COUNT,
        delta=DELTA,
        config=_config(),
        policy=CompactionPolicy(max_buffer=10 * sizes["stream"], auto=False),
    )
    half = tail // 2
    # First compaction warms the open segment's corridor scanner (cold);
    # the second resumes it and scans only the appended records — the
    # steady-state pause an auto policy pays per epoch.
    threshold_index.insert(keys[keys.size - tail: keys.size - half])
    start = time.perf_counter_ns()
    threshold_index.compact()
    append_cold_pause_ms = (time.perf_counter_ns() - start) / 1e6
    threshold_index.insert(keys[keys.size - half:])
    start = time.perf_counter_ns()
    threshold_index.compact()
    append_pause_ms = (time.perf_counter_ns() - start) / 1e6
    threshold_boundaries_identical = _boundaries(
        threshold_index.segments
    ) == _boundaries(scratch.segments)

    # Out-of-order buffer of the same size: the bounded merge-rebuild path.
    rng = np.random.default_rng(13)
    scattered = rng.uniform(span[0], span[1], size=tail)
    threshold_index.insert(scattered)
    start = time.perf_counter_ns()
    threshold_index.compact()
    ooo_pause_ms = (time.perf_counter_ns() - start) / 1e6
    all_keys = np.concatenate([keys, scattered])
    scratch_ooo = PolyFitIndex.build(
        all_keys, aggregate=Aggregate.COUNT, delta=DELTA, config=_config()
    )
    ooo_boundaries_identical = _boundaries(threshold_index.segments) == _boundaries(
        scratch_ooo.segments
    )

    return {
        "description": (
            "streaming ingestion: insert throughput, query latency vs delta-"
            "buffer fill, compaction pause vs from-scratch rebuild"
        ),
        "delta": DELTA,
        "degree": 1,
        "base_records": sizes["base"],
        "streamed_records": sizes["stream"],
        "insert_batch": batch,
        "base_build_ms": round(build_ns / 1e6, 2),
        "inserts_per_s": inserts_per_s,
        "query_latency_vs_fill": latency_rows,
        "compaction": {
            "buffered_records": half,
            "append_cold_pause_ms": round(append_cold_pause_ms, 2),
            "append_only_pause_ms": round(append_pause_ms, 2),
            "out_of_order_pause_ms": round(ooo_pause_ms, 2),
            "from_scratch_rebuild_ms": round(rebuild_ns / 1e6, 2),
            "append_speedup_vs_rebuild": round(rebuild_ns / 1e6 / max(append_pause_ms, 1e-9), 2),
        },
        "gates": {
            "buffered_exact_identical_to_oracle": buffered_exact_identical,
            "append_boundaries_identical_to_rebuild": append_boundaries_identical,
            "append_estimates_identical_to_rebuild": append_estimates_identical,
            "threshold_append_boundaries_identical": threshold_boundaries_identical,
            "out_of_order_boundaries_identical_to_rebuild": ooo_boundaries_identical,
        },
    }


def _print_results(results: dict) -> None:
    print(
        f"\nbase {results['base_records']} records built in "
        f"{results['base_build_ms']} ms; streamed {results['streamed_records']} "
        f"records at {results['inserts_per_s']} inserts/s "
        f"(batch {results['insert_batch']})"
    )
    rows = [
        [entry["fill_fraction"], entry["buffered_records"], entry["per_query_ns"]]
        for entry in results["query_latency_vs_fill"]
    ]
    print()
    print(format_table(["buffer fill", "records", "ns/query"], rows,
                       title="batch COUNT estimate latency vs buffer fill"))
    compaction = results["compaction"]
    rows = [
        ["append (cold scanner)", compaction["append_cold_pause_ms"]],
        ["append (resumed)", compaction["append_only_pause_ms"]],
        ["out-of-order", compaction["out_of_order_pause_ms"]],
        ["from-scratch rebuild", compaction["from_scratch_rebuild_ms"]],
    ]
    print()
    print(format_table(["compaction", "ms"], rows,
                       title=(f"compaction pause, {compaction['buffered_records']}-record buffer "
                              f"(append {compaction['append_speedup_vs_rebuild']}x "
                              "faster than rebuild)")))


def _write_artifact(results: dict) -> None:
    ARTIFACT_PATH.parent.mkdir(exist_ok=True)
    ARTIFACT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nartifact written to {ARTIFACT_PATH}")


def _check_results(results: dict) -> None:
    """Correctness gates, then the pause-vs-rebuild speedup."""
    for gate, passed in results["gates"].items():
        assert passed, f"gate failed: {gate}"
    compaction = results["compaction"]
    assert compaction["append_speedup_vs_rebuild"] >= 2.0, (
        "append-only compaction should beat a from-scratch rebuild by >= 2x, "
        f"got {compaction['append_speedup_vs_rebuild']}x"
    )


if __name__ == "__main__":
    bench_results = run_benchmark(SIZES, repeats=2)
    _print_results(bench_results)
    _write_artifact(bench_results)
    _check_results(bench_results)
