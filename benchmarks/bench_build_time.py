"""Index-construction benchmark: the fast build layer vs the LP-per-probe
baseline.

Measures the three construction accelerations landed together:

* **1-D Greedy Segmentation** — build time for degree 1/2/3 across dataset
  sizes, new path (``solver="auto"``: exact incremental scanner for degree
  <= 1, Remez exchange + early-accept certificate for degree >= 2) vs the
  old path (``solver="lp"``, no certificate, an LP per probe).  For degree
  <= 1 the segment *boundaries* must be identical (both evaluate the same
  exact feasibility predicate); for degree >= 2 the segment count must match
  and every per-segment error must stay within delta.
* **2-D quadtree build** — serial vs frontier-parallel (thread pool)
  build of the surface quadtree, which must be *bit-identical* (leaf Morton
  codes, rectangles, surface coefficients, exact payloads).
* The old-vs-new ratio and segment/leaf counts are recorded for every cell
  of the grid; the LP baseline is skipped (with a note) where its projected
  cost would dominate the whole protocol — the new path is still measured.

Run directly (``python benchmarks/bench_build_time.py``) for the full
protocol (n up to 10^6, where the degree-1 speedup gate of >= 10x applies),
or through pytest (the smoke suite) with scaled-down sizes. The standalone
run writes ``BENCH_build_time.json`` at the repository root; the pytest run
writes the same file under the git-ignored ``benchmarks/out/``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bench import format_table
from repro.config import QuadTreeConfig
from repro.datasets import osm_points, tweet_latitudes
from repro.fitting.quadtree import build_quadtree_surface, quadtree_build_signature
from repro.fitting.segmentation import greedy_segmentation
from repro.functions.cumulative2d import build_cumulative_2d

ARTIFACT_PATH = Path(__file__).resolve().parents[1] / "BENCH_build_time.json"
#: The pytest entry point is a smoke run: it writes under the git-ignored
#: ``benchmarks/out/`` so it never overwrites the committed artifact above.
SMOKE_ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / ARTIFACT_PATH.name

DEGREES = [1, 2, 3]

#: Full protocol: sizes per degree for the new path, and the subset of sizes
#: on which the LP baseline is also timed.  The baseline's cost per size
#: grows superlinearly (its LPs have O(segment length) rows), so the
#: largest baseline runs are limited to the degree-1 gate size.
#: The 1-D budget sits deliberately off round float thresholds (same trick
#: as the equivalence tests): the exact scanner and the LP baseline must
#: land on the same side of every feasibility comparison, and HiGHS reports
#: max_error with ~1e-9-relative noise that could flip a tie at exactly
#: 100.0 under a future scipy upgrade.
BUILD_DELTA = 100.0171

MAIN_PROTOCOL = {
    "one_key_sizes": [10_000, 100_000, 1_000_000],
    "one_key_baseline_sizes": {
        1: [10_000, 100_000, 1_000_000],
        2: [10_000, 100_000],
        3: [10_000, 100_000],
    },
    "delta": BUILD_DELTA,
    "two_key_points": 80_000,
    "two_key_resolution": 128,
    "speedup_gate_size": 1_000_000,
}

#: Smoke protocol (pytest/CI): small enough for the shared runners while
#: still exercising every code path and every invariant gate.
SMOKE_PROTOCOL = {
    "one_key_sizes": [5_000, 20_000],
    "one_key_baseline_sizes": {1: [5_000, 20_000], 2: [5_000], 3: [5_000]},
    "delta": BUILD_DELTA,
    "two_key_points": 20_000,
    "two_key_resolution": 64,
    "speedup_gate_size": None,
}


def _target_function(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The COUNT cumulative function over n synthetic TWEET latitudes."""
    keys, _ = tweet_latitudes(n, seed=101)
    return keys, np.arange(1, n + 1, dtype=np.float64)


def _time_build(keys, values, delta, degree, **kwargs) -> tuple[float, list]:
    start = time.perf_counter()
    segments = greedy_segmentation(keys, values, delta=delta, degree=degree, **kwargs)
    return time.perf_counter() - start, segments


def run_one_key(protocol: dict) -> dict:
    """Build-time grid: degree x size, new vs LP baseline."""
    delta = protocol["delta"]
    section: dict = {"delta": delta, "grid": []}
    for n in protocol["one_key_sizes"]:
        keys, values = _target_function(n)
        for degree in DEGREES:
            new_seconds, new_segments = _time_build(keys, values, delta, degree)
            entry = {
                "n": n,
                "degree": degree,
                "new_seconds": round(new_seconds, 4),
                "new_segments": len(new_segments),
                "new_errors_within_delta": bool(
                    all(s.max_error <= delta + 1e-9 for s in new_segments)
                ),
            }
            if n in protocol["one_key_baseline_sizes"].get(degree, []):
                old_seconds, old_segments = _time_build(
                    keys, values, delta, degree, solver="lp", early_accept=False
                )
                entry.update(
                    {
                        "old_seconds": round(old_seconds, 4),
                        "old_segments": len(old_segments),
                        "speedup": round(old_seconds / new_seconds, 2),
                        "equal_segment_count": len(new_segments) == len(old_segments),
                        "identical_boundaries": (
                            [s.stop for s in new_segments]
                            == [s.stop for s in old_segments]
                        ),
                    }
                )
            else:
                entry["old_skipped"] = "LP baseline too slow at this size"
            section["grid"].append(entry)
    return section


def run_two_key(protocol: dict) -> dict:
    """Serial vs frontier-parallel quadtree build, with bit-identity check."""
    xs, ys = osm_points(protocol["two_key_points"], seed=103)
    exact = build_cumulative_2d(xs, ys)
    grid_x, grid_y, grid_cf = exact.sample_grid(
        resolution=protocol["two_key_resolution"]
    )
    section: dict = {
        "points": protocol["two_key_points"],
        "grid_resolution": protocol["two_key_resolution"],
        "delta": 250.0,
        "executors": {},
    }
    signatures = {}
    # At least two workers, so even a one-core host runs the thread frontier.
    workers = {"serial": 1, "thread": max(2, os.cpu_count() or 1)}
    for executor, build_workers in workers.items():
        config = QuadTreeConfig(delta=250.0, build_workers=build_workers)
        start = time.perf_counter()
        root = build_quadtree_surface(grid_x, grid_y, grid_cf, config)
        elapsed = time.perf_counter() - start
        signatures[executor] = quadtree_build_signature(root)
        section["executors"][executor] = {
            "build_workers": build_workers,
            "seconds": round(elapsed, 4),
            "leaves": len(root.leaves()),
        }
    serial_seconds = section["executors"]["serial"]["seconds"]
    thread = section["executors"]["thread"]
    thread["speedup_vs_serial"] = round(serial_seconds / thread["seconds"], 2)
    section["thread_identical_to_serial"] = signatures["serial"] == signatures["thread"]
    return section


def run_benchmark(protocol: dict) -> dict:
    results = {
        "description": (
            "index construction time: incremental/remez/early-accept GS vs the "
            "LP-per-probe baseline (1-D) and serial vs frontier-parallel "
            "quadtree build (2-D)"
        ),
        "cpu_count": os.cpu_count(),
        "one_key": run_one_key(protocol),
        "two_key": run_two_key(protocol),
    }
    return results


def _print_results(results: dict) -> None:
    rows = []
    for entry in results["one_key"]["grid"]:
        rows.append(
            [
                entry["n"],
                entry["degree"],
                f"{entry['new_seconds']:.3f}",
                f"{entry.get('old_seconds', float('nan')):.3f}"
                if "old_seconds" in entry
                else "(skipped)",
                f"{entry['speedup']}x" if "speedup" in entry else "-",
                entry["new_segments"],
                "yes"
                if entry.get("identical_boundaries")
                else ("n/a" if "identical_boundaries" not in entry else "NO"),
            ]
        )
    print()
    print(
        format_table(
            ["n", "deg", "new s", "old s", "speedup", "segments", "same bounds"],
            rows,
            title=f"1-D GS build time (delta={results['one_key']['delta']})",
        )
    )
    two = results["two_key"]
    rows = [
        [
            executor,
            f"{entry['seconds']:.3f}",
            entry["leaves"],
            f"{entry.get('speedup_vs_serial', 1.0)}x",
        ]
        for executor, entry in two["executors"].items()
    ]
    print()
    print(
        format_table(
            ["executor", "seconds", "leaves", "vs serial"],
            rows,
            title=(
                f"2-D quadtree build ({two['points']} pts, res {two['grid_resolution']}, "
                f"{results['cpu_count']} cpus, bit-identical: "
                f"{'yes' if two['thread_identical_to_serial'] else 'NO'})"
            ),
        )
    )


def _check_results(results: dict, *, strict_timing: bool = True) -> None:
    """Invariant gates (always) and the wall-clock gate (full protocol only).

    Correctness: identical boundaries wherever the degree-1 baseline ran,
    equal segment counts and in-budget errors for degree >= 2, bit-identical
    parallel quadtree.  Timing: >= 10x degree-1 speedup at the gate size.
    """
    gate_size = None
    if strict_timing:
        gate_size = MAIN_PROTOCOL["speedup_gate_size"]
    for entry in results["one_key"]["grid"]:
        label = f"n={entry['n']} degree={entry['degree']}"
        assert entry["new_errors_within_delta"], f"{label}: per-segment error > delta"
        if "old_seconds" not in entry:
            continue
        if entry["degree"] <= 1:
            assert entry["identical_boundaries"], f"{label}: boundaries diverged"
        assert entry["equal_segment_count"], f"{label}: segment count diverged"
        if gate_size and entry["n"] == gate_size and entry["degree"] == 1:
            assert entry["speedup"] >= 10.0, (
                f"{label}: expected >= 10x build speedup, got {entry['speedup']}x"
            )
    assert results["two_key"]["thread_identical_to_serial"], (
        "parallel quadtree build diverged from the serial build"
    )


def _write_artifact(results: dict, path: Path = ARTIFACT_PATH) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nartifact written to {path}")


def test_build_time_smoke():
    """Smoke protocol: scaled-down grid, same invariant gates + artifact."""
    results = run_benchmark(SMOKE_PROTOCOL)
    _print_results(results)
    _write_artifact(results, SMOKE_ARTIFACT_PATH)
    _check_results(results, strict_timing=False)


if __name__ == "__main__":
    bench_results = run_benchmark(MAIN_PROTOCOL)
    _print_results(bench_results)
    _write_artifact(bench_results)
    _check_results(bench_results)
