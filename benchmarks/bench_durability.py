"""Durability benchmark: WAL'd ingest overhead, recovery time, degraded reads.

Protocol (1-D COUNT, degree 1):

* **WAL'd insert throughput** — records/s absorbed by
  :meth:`~repro.stream.updatable.UpdatablePolyFitIndex.insert` in fixed-size
  batches with no WAL, with a group-commit WAL (``sync_every=64``), and with
  a strict per-record-sync WAL (``sync_every=1``).  The logged path encodes
  each batch into a CRC-framed record and fsyncs at commit barriers, so the
  interesting number is the overhead ratio over the plain buffer path.
* **recovery time vs log length** — wall time of
  :meth:`~repro.stream.updatable.UpdatablePolyFitIndex.recover` (checkpoint
  load + WAL replay) as the suffix beyond the checkpoint grows; replay cost
  should scale with the replayed records, not with the base.
* **degraded-read overhead** — per-query latency of a 4-partition fleet's
  ``query_batch`` when healthy versus when one partition is failed under
  ``failure_policy="degrade"`` (the router widens the certified bounds to
  cover the missing partition instead of erroring).

Correctness gates (also held by ``tests/test_wal.py`` and
``tests/test_degrade.py``):

* **replay bit-identity** — at every measured log length the recovered
  index answers ``estimate_batch`` and ``exact_batch`` bit-identically to
  the live index that wrote the log;
* the WAL'd live index is bit-identical to the un-logged index over the
  same stream (logging must not perturb the data path);
* every degraded answer with a finite bound still contains the monolithic
  oracle's exact answer (``|value - truth| <= error_bound``).

Timing gate: group-commit WAL overhead <= 3x the plain buffer path.

Run with ``python benchmarks/bench_durability.py`` (``make
bench-durability``); it writes ``BENCH_durability.json`` under the
git-ignored ``benchmarks/out/`` and exits non-zero when a gate fails.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    Aggregate,
    CompactionPolicy,
    IndexFleet,
    PolyFitIndex,
    UpdatablePolyFitIndex,
)
from repro.bench import format_table
from repro.config import FitConfig, IndexConfig
from repro.testing.faults import FlakyView

ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_durability.json"

SIZES = {"base": 200_000, "stream": 200_000, "insert_batch": 4_096,
         "queries": 20_000}

DELTA = 100.0
GROUP_COMMIT = 64
REPLAY_FRACTIONS = [0.25, 0.5, 1.0]
WAL_OVERHEAD_LIMIT = 3.0


def _stream(total: int, seed: int) -> np.ndarray:
    """Strictly increasing synthetic key stream (heavy-tailed gaps)."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.lognormal(0.0, 1.5, size=total))


def _query_bounds(span: tuple[float, float], n: int, seed: int):
    rng = np.random.default_rng(seed)
    a = rng.uniform(span[0], span[1], size=(2, n))
    return np.minimum(a[0], a[1]), np.maximum(a[0], a[1])


def _config() -> IndexConfig:
    return IndexConfig(fit=FitConfig(degree=1))


def _policy(sizes: dict) -> CompactionPolicy:
    return CompactionPolicy(max_buffer=10 * sizes["stream"], auto=False)


def _build(base_keys: np.ndarray, sizes: dict, **kwargs) -> UpdatablePolyFitIndex:
    return UpdatablePolyFitIndex.build(
        base_keys, aggregate=Aggregate.COUNT, delta=DELTA, config=_config(),
        policy=_policy(sizes), **kwargs,
    )


def _timed_stream_insert(index, stream_keys: np.ndarray, batch: int) -> float:
    start = time.perf_counter_ns()
    for position in range(0, stream_keys.size, batch):
        index.insert(stream_keys[position: position + batch])
    return (time.perf_counter_ns() - start) / 1e9


def _identical(a, b, lows, highs) -> bool:
    return bool(
        np.array_equal(a.estimate_batch(lows, highs), b.estimate_batch(lows, highs))
        and np.array_equal(a.exact_batch(lows, highs), b.exact_batch(lows, highs))
    )


def run_benchmark(sizes: dict, *, repeats: int = 2) -> dict:
    keys = _stream(sizes["base"] + sizes["stream"], seed=7)
    base_keys = keys[: sizes["base"]]
    stream_keys = keys[sizes["base"]:]
    span = (float(keys[0]), float(keys[-1]))
    lows, highs = _query_bounds(span, sizes["queries"], seed=11)
    probe_lows, probe_highs = lows[:2000], highs[:2000]
    batch = sizes["insert_batch"]

    with tempfile.TemporaryDirectory(prefix="bench-durability-") as scratch:
        scratch = Path(scratch)

        # ----- insert throughput: plain vs WAL'd ----------------------- #
        plain = _build(base_keys, sizes)
        plain_s = _timed_stream_insert(plain, stream_keys, batch)

        group = _build(base_keys, sizes, wal_path=scratch / "group.wal",
                       wal_sync_every=GROUP_COMMIT)
        group_s = _timed_stream_insert(group, stream_keys, batch)

        strict = _build(base_keys, sizes, wal_path=scratch / "strict.wal",
                        wal_sync_every=1)
        strict_s = _timed_stream_insert(strict, stream_keys, batch)

        wal_identical_to_plain = _identical(group, plain, probe_lows, probe_highs)
        wal_bytes = (scratch / "group.wal").stat().st_size
        group_overhead = round(group_s / plain_s, 2)

        # ----- recovery time vs log length ----------------------------- #
        # One checkpoint at the base, then logs holding growing suffixes of
        # the stream: recovery = checkpoint load + replay of that suffix.
        checkpoint_path = scratch / "checkpoint.pfbin"
        _build(base_keys, sizes).checkpoint(checkpoint_path)
        recovery_rows = []
        replay_identical = True
        for fraction in REPLAY_FRACTIONS:
            count = int(sizes["stream"] * fraction)
            wal_path = scratch / f"replay-{fraction}.wal"
            writer = _build(base_keys, sizes, wal_path=wal_path,
                            wal_sync_every=GROUP_COMMIT)
            _timed_stream_insert(writer, stream_keys[:count], batch)
            writer.wal.close()
            best_ns = None
            for _ in range(max(1, repeats)):
                start = time.perf_counter_ns()
                recovered = UpdatablePolyFitIndex.recover(
                    checkpoint_path, wal_path, policy=_policy(sizes)
                )
                elapsed = time.perf_counter_ns() - start
                best_ns = elapsed if best_ns is None else min(best_ns, elapsed)
                recovered.wal.close()
            replay_identical &= _identical(
                recovered, writer, probe_lows, probe_highs
            )
            recovery_rows.append(
                {
                    "replayed_records": count,
                    "log_bytes": wal_path.stat().st_size,
                    "recovery_ms": round(best_ns / 1e6, 2),
                }
            )

        # ----- degraded-read overhead ---------------------------------- #
        fleet = IndexFleet.build(
            keys, None, Aggregate.COUNT, delta=DELTA, config=_config(),
            num_partitions=4, failure_policy="degrade",
        )
        oracle = PolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=DELTA, config=_config()
        )
        healthy = fleet.snapshot()
        healthy_ns = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter_ns()
            healthy.query_batch(lows, highs)
            elapsed = time.perf_counter_ns() - start
            healthy_ns = elapsed if healthy_ns is None else min(healthy_ns, elapsed)

        router = getattr(healthy, "_router", healthy)
        flaky = FlakyView(router._views[1])
        router._views[1] = flaky
        router._engines[1] = flaky
        degraded_ns = None
        result = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter_ns()
            result = healthy.query_batch(lows, highs)
            elapsed = time.perf_counter_ns() - start
            degraded_ns = elapsed if degraded_ns is None else min(degraded_ns, elapsed)
        truth = oracle.exact_batch(lows, highs)
        finite = np.isfinite(result.error_bounds) & ~np.isnan(truth)
        degraded_contains_truth = bool(
            result.partial
            and np.all(
                np.abs(result.values[finite] - truth[finite])
                <= result.error_bounds[finite] + 1e-9
            )
        )

    return {
        "description": (
            "durability: WAL'd insert throughput vs plain, recovery time vs "
            "log length, degraded fleet-read overhead"
        ),
        "delta": DELTA,
        "degree": 1,
        "base_records": sizes["base"],
        "streamed_records": sizes["stream"],
        "insert_batch": batch,
        "insert_throughput": {
            "plain_inserts_per_s": round(sizes["stream"] / plain_s),
            "wal_group_commit_inserts_per_s": round(sizes["stream"] / group_s),
            "wal_per_record_sync_inserts_per_s": round(sizes["stream"] / strict_s),
            "group_commit_every": GROUP_COMMIT,
            "group_commit_overhead_x": group_overhead,
            "per_record_sync_overhead_x": round(strict_s / plain_s, 2),
            "wal_bytes": wal_bytes,
        },
        "recovery_vs_log_length": recovery_rows,
        "degraded_reads": {
            "partitions": 4,
            "failed_partitions": list(result.failed_partitions),
            "queries": sizes["queries"],
            "healthy_per_query_ns": round(healthy_ns / sizes["queries"], 1),
            "degraded_per_query_ns": round(degraded_ns / sizes["queries"], 1),
            "degraded_overhead_x": round(degraded_ns / healthy_ns, 2),
            "degraded_fraction": round(float(result.degraded.mean()), 4),
        },
        "gates": {
            "replay_bit_identical_at_every_log_length": replay_identical,
            "walled_index_identical_to_plain": wal_identical_to_plain,
            "degraded_bound_contains_truth": degraded_contains_truth,
        },
    }


def _print_results(results: dict) -> None:
    throughput = results["insert_throughput"]
    rows = [
        ["no WAL", throughput["plain_inserts_per_s"], 1.0],
        [f"WAL, sync every {throughput['group_commit_every']}",
         throughput["wal_group_commit_inserts_per_s"],
         throughput["group_commit_overhead_x"]],
        ["WAL, sync every record",
         throughput["wal_per_record_sync_inserts_per_s"],
         throughput["per_record_sync_overhead_x"]],
    ]
    print()
    print(format_table(["ingest path", "inserts/s", "overhead"], rows,
                       title=(f"insert throughput, batch {results['insert_batch']} "
                              f"({throughput['wal_bytes']} WAL bytes)")))
    rows = [
        [entry["replayed_records"], entry["log_bytes"], entry["recovery_ms"]]
        for entry in results["recovery_vs_log_length"]
    ]
    print()
    print(format_table(["replayed records", "log bytes", "recovery ms"], rows,
                       title="recovery time vs log length (checkpoint + replay)"))
    degraded = results["degraded_reads"]
    print(
        f"\ndegraded fleet read ({degraded['partitions']} partitions, "
        f"partition {degraded['failed_partitions']} down): "
        f"{degraded['degraded_per_query_ns']} ns/query vs "
        f"{degraded['healthy_per_query_ns']} healthy "
        f"({degraded['degraded_overhead_x']}x, "
        f"{degraded['degraded_fraction']:.0%} of queries widened)"
    )


def _write_artifact(results: dict) -> None:
    ARTIFACT_PATH.parent.mkdir(exist_ok=True)
    ARTIFACT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nartifact written to {ARTIFACT_PATH}")


def _check_results(results: dict) -> None:
    """Correctness gates, then the WAL-overhead ceiling."""
    for gate, passed in results["gates"].items():
        assert passed, f"gate failed: {gate}"
    overhead = results["insert_throughput"]["group_commit_overhead_x"]
    assert overhead <= WAL_OVERHEAD_LIMIT, (
        f"group-commit WAL ingest should stay within {WAL_OVERHEAD_LIMIT}x "
        f"of the plain buffer path, got {overhead}x"
    )


if __name__ == "__main__":
    bench_results = run_benchmark(SIZES, repeats=2)
    _print_results(bench_results)
    _write_artifact(bench_results)
    _check_results(bench_results)
