"""Observability-overhead benchmark: telemetry must be within 5% of free.

Protocol (1-D COUNT, degree 1, in-process asyncio — no sockets, so the
numbers isolate instrument cost from kernel TCP noise):

* **serve p50 A/B** — median sequential single-request round trip through
  the :class:`~repro.serve.coalescer.Coalescer`, instrumented
  (``instrument=True``, the default) vs uninstrumented
  (``instrument=False`` on both host and coalescer).  Best-of-``repeats``
  so a stray scheduler hiccup cannot fail the gate.
* **batch throughput A/B** — repeated whole-workload ``host.execute``
  calls (the ``/query_batch`` path: cache probe + engine call + per-batch
  histogram observes), instrumented vs uninstrumented, queries/second.
* **trace overhead** — the same serve p50 with a 100%-sampling, 1%-sampling
  and 0%-sampling tracer attached, quantifying what the sampling knob
  costs at each setting.
* **exposition** — after the instrumented runs, the registry assembled
  from the instrumented host must render valid Prometheus text (checked
  with the library's own ``validate_exposition``) covering the host and
  cache families the runs populated.  Full cross-layer coverage is
  checked by ``tools/metrics_smoke.py`` against a live server.

Correctness gates (always enforced, smoke and standalone):

* instrumented, uninstrumented and 100%-traced answers are **bit-identical**
  to one direct ``query_batch`` call — telemetry observes, never perturbs;
* the exposition is grammatically valid and non-trivial.

Timing gates (standalone only): instrumented serve p50 and instrumented
batch throughput within 5% of the uninstrumented baseline.

Run directly (``python benchmarks/bench_observability.py``) for the full
protocol, or through pytest (the smoke suite) with scaled-down sizes. The
standalone run writes ``BENCH_observability.json`` at the repository root;
the pytest run writes the same file under the git-ignored
``benchmarks/out/``.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro import Aggregate, PolyFitIndex
from repro.bench import format_table
from repro.config import FitConfig, IndexConfig
from repro.obs.metrics import MetricsRegistry, validate_exposition
from repro.obs.tracing import Tracer
from repro.serve import Coalescer, EngineHost

ARTIFACT_PATH = Path(__file__).resolve().parents[1] / "BENCH_observability.json"
#: The pytest entry point is a smoke run: it writes under the git-ignored
#: ``benchmarks/out/`` so it never overwrites the committed artifact above.
SMOKE_ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / ARTIFACT_PATH.name

#: Workload sizes for the standalone (``__main__``) protocol; the pytest
#: smoke entry point scales these down to keep CI fast.
MAIN_SIZES = {
    "records": 500_000,
    "serve_requests": 800,
    "batch_queries": 100_000,
    "batch_rounds": 5,
    "repeats": 3,
}
SMOKE_SIZES = {
    "records": 40_000,
    "serve_requests": 120,
    "batch_queries": 10_000,
    "batch_rounds": 3,
    "repeats": 2,
}

DELTA = 100.0
OVERHEAD_BUDGET_PCT = 5.0


def _workload(records: int, queries: int, seed: int):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.uniform(0.0, 1e6, size=records))
    draws = rng.uniform(0.0, 1e6, size=(2, queries))
    lows = np.minimum(draws[0], draws[1])
    highs = np.maximum(draws[0], draws[1])
    return keys, lows, highs


def _build_host(keys: np.ndarray, *, instrument: bool) -> EngineHost:
    index = PolyFitIndex.build(
        keys,
        aggregate=Aggregate.COUNT,
        delta=DELTA,
        config=IndexConfig(fit=FitConfig(degree=1)),
    )
    return EngineHost(index, cache_size=8, instrument=instrument)


async def _serve_p50_ms(
    host: EngineHost,
    lows: np.ndarray,
    highs: np.ndarray,
    *,
    instrument: bool,
    tracer: Tracer | None = None,
) -> float:
    """Median sequential round trip through a fresh coalescer."""
    coalescer = Coalescer(host, instrument=instrument, tracer=tracer)
    loop = asyncio.get_running_loop()
    samples = []
    for low, high in zip(lows, highs):
        start = loop.time()
        await coalescer.submit((float(low), float(high)))
        samples.append(loop.time() - start)
    await coalescer.stop()
    return float(np.median(samples)) * 1e3


def _best_serve_p50_ms(host, lows, highs, *, repeats, instrument, tracer=None):
    return min(
        asyncio.run(
            _serve_p50_ms(host, lows, highs, instrument=instrument, tracer=tracer)
        )
        for _ in range(repeats)
    )


def _batch_qps(host: EngineHost, lows, highs, *, rounds: int, repeats: int) -> float:
    """Best-of-``repeats`` throughput of repeated whole-workload executes.

    Bounds are jittered per round so the version-keyed cache cannot short
    circuit the engine call — this measures the instrumented engine path,
    not cache replay.
    """
    best = 0.0
    for repeat in range(repeats):
        start = time.perf_counter()
        total = 0
        for round_i in range(rounds):
            jitter = 1e-7 * (1 + repeat * rounds + round_i)
            view = host.pin()
            host.execute(view, (lows + jitter, highs + jitter))
            total += lows.size
        elapsed = time.perf_counter() - start
        best = max(best, total / elapsed)
    return best


def _bit_identity(host_a: EngineHost, host_b: EngineHost, lows, highs, trace=None):
    """Answers from two hosts (and optionally a traced run) are identical."""
    view_a, view_b = host_a.pin(), host_b.pin()
    answer_a = host_a.execute(view_a, (lows, highs))
    answer_b = host_b.execute(view_b, (lows, highs), None, trace)
    direct = host_a.index.query_batch(lows, highs)
    columns = ("values", "guaranteed", "exact_fallback", "error_bounds")

    def same(x, y):
        return all(
            np.array_equal(getattr(x, c), getattr(y, c), equal_nan=(c == "error_bounds"))
            for c in columns
        )

    return same(answer_a, direct) and same(answer_b, direct)


def _overhead_pct(instrumented: float, baseline: float) -> float:
    """Positive = instrumented is worse; latency and 1/throughput alike."""
    if baseline <= 0:
        return 0.0
    return (instrumented / baseline - 1.0) * 100.0


def run_benchmark(sizes: dict) -> dict:
    keys, lows, highs = _workload(sizes["records"], sizes["batch_queries"], seed=23)
    serve_lows = lows[: sizes["serve_requests"]]
    serve_highs = highs[: sizes["serve_requests"]]
    repeats = sizes["repeats"]

    host_on = _build_host(keys, instrument=True)
    host_off = _build_host(keys, instrument=False)

    # --- serve p50 A/B ---------------------------------------------------
    p50_off = _best_serve_p50_ms(
        host_off, serve_lows, serve_highs, repeats=repeats, instrument=False
    )
    p50_on = _best_serve_p50_ms(
        host_on, serve_lows, serve_highs, repeats=repeats, instrument=True
    )

    # --- trace overhead at 0% / 1% / 100% sampling -----------------------
    trace_rows = []
    for rate in (0.0, 0.01, 1.0):
        tracer = Tracer(sample_rate=rate, capacity=64, seed=5)
        p50 = _best_serve_p50_ms(
            host_on, serve_lows, serve_highs,
            repeats=repeats, instrument=True, tracer=tracer,
        )
        trace_rows.append(
            {
                "sample_rate": rate,
                "p50_ms": round(p50, 4),
                "overhead_vs_untraced_pct": round(_overhead_pct(p50, p50_on), 2),
                "sampled": tracer.sampled_total,
            }
        )

    # --- batch throughput A/B --------------------------------------------
    qps_off = _batch_qps(
        host_off, lows, highs, rounds=sizes["batch_rounds"], repeats=repeats
    )
    qps_on = _batch_qps(
        host_on, lows, highs, rounds=sizes["batch_rounds"], repeats=repeats
    )

    # --- bit identity (instrumented, uninstrumented, traced) -------------
    tracer = Tracer(sample_rate=1.0, seed=1)
    trace = tracer.start("bench")
    identical = _bit_identity(host_off, host_on, lows, highs, trace)
    tracer.finish(trace)

    # --- exposition validity over everything the runs recorded -----------
    registry = MetricsRegistry()
    registry.register_all(host_on.metrics_families(), {"index": "default"})
    exposition = registry.exposition()
    problems = validate_exposition(exposition)
    families = len(registry.names())

    return {
        "description": (
            "telemetry overhead: instrumented vs uninstrumented serve p50 "
            "and batch throughput, trace-sampling cost, exposition validity"
        ),
        "records": sizes["records"],
        "delta": DELTA,
        "repeats": repeats,
        "serve": {
            "requests": int(serve_lows.size),
            "uninstrumented_p50_ms": round(p50_off, 4),
            "instrumented_p50_ms": round(p50_on, 4),
            "overhead_pct": round(_overhead_pct(p50_on, p50_off), 2),
        },
        "batch": {
            "queries": int(lows.size),
            "rounds": sizes["batch_rounds"],
            "uninstrumented_qps": round(qps_off),
            "instrumented_qps": round(qps_on),
            # Positive = instrumented is slower, mirroring the latency row.
            "overhead_pct": round(_overhead_pct(qps_off, qps_on), 2),
        },
        "tracing": trace_rows,
        "exposition": {
            "families": families,
            "problems": problems,
        },
        "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
        "gates": {
            "bit_identical_instrumented_vs_direct": identical,
            "exposition_valid": not problems and families > 0,
        },
    }


def _print_results(results: dict) -> None:
    serve = results["serve"]
    batch = results["batch"]
    print(
        f"\n{results['records']} records, "
        f"best of {results['repeats']}"
    )
    print()
    print(format_table(
        ["path", "uninstrumented", "instrumented", "overhead %"],
        [
            ["serve p50 (ms)", serve["uninstrumented_p50_ms"],
             serve["instrumented_p50_ms"], serve["overhead_pct"]],
            ["batch (qps)", batch["uninstrumented_qps"],
             batch["instrumented_qps"], batch["overhead_pct"]],
        ],
        title=f"instrumentation overhead (budget {results['overhead_budget_pct']}%)",
    ))
    print()
    print(format_table(
        ["sample rate", "p50 ms", "overhead vs untraced %"],
        [[row["sample_rate"], row["p50_ms"], row["overhead_vs_untraced_pct"]]
         for row in results["tracing"]],
        title="trace-sampling cost",
    ))
    exposition = results["exposition"]
    print(
        f"\nexposition: {exposition['families']} families, "
        f"{len(exposition['problems'])} problems"
    )


def _write_artifact(results: dict, path: Path = ARTIFACT_PATH) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nartifact written to {path}")


def _check_results(results: dict, *, strict_timing: bool = True) -> None:
    """Correctness gates always; overhead gates standalone only."""
    for gate, passed in results["gates"].items():
        assert passed, f"gate failed: {gate}"
    if strict_timing:
        budget = results["overhead_budget_pct"]
        serve_overhead = results["serve"]["overhead_pct"]
        assert serve_overhead <= budget, (
            f"instrumented serve p50 is {serve_overhead}% over the "
            f"uninstrumented baseline (budget {budget}%)"
        )
        batch = results["batch"]
        qps_ratio = batch["instrumented_qps"] / max(batch["uninstrumented_qps"], 1)
        assert qps_ratio >= 1.0 - budget / 100.0, (
            f"instrumented batch throughput is {batch['instrumented_qps']} qps "
            f"vs {batch['uninstrumented_qps']} uninstrumented "
            f"(> {budget}% regression)"
        )


def test_observability_overhead():
    """Smoke protocol: scaled-down sizes, same gates + artifact."""
    results = run_benchmark(SMOKE_SIZES)
    _print_results(results)
    _write_artifact(results, SMOKE_ARTIFACT_PATH)
    _check_results(results, strict_timing=False)


if __name__ == "__main__":
    bench_results = run_benchmark(MAIN_SIZES)
    _print_results(bench_results)
    _write_artifact(bench_results)
    _check_results(bench_results)
