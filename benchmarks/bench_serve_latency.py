"""Serving-layer benchmark: coalesced vs naive request handling.

Protocol (1-D COUNT, degree 1, in-process asyncio — no sockets, so the
numbers isolate the coalescer + engine path from kernel TCP noise):

* **idle round-trip** — median latency of sequential single requests
  through the :class:`~repro.serve.coalescer.Coalescer` (one loop turn +
  a batch of one); the unloaded floor, reported next to the loaded levels.
* **open-loop load** — arrivals scheduled at several offered QPS
  (independent of completions, so backlog shows up as latency, not as a
  slower generator); per-request latency is completion minus *scheduled*
  arrival.  Run in two modes: **coalesced** (through the coalescer) and
  **naive** (one size-1 ``host.execute`` per request on the executor —
  the server-without-a-coalescer strawman).
* **saturation throughput** — the whole workload submitted at once;
  achieved QPS in both modes is the capacity ratio the coalescer buys.
* **result cache** — a repeated batch workload against a
  ``cache_size > 0`` host; the artifact records the
  :meth:`~repro.queries.cache.ResultCache.info` counters the server
  surfaces through ``/stats``.

Correctness gate (also held by ``tests/test_serve_coalescer.py``): every
coalesced answer is bit-identical to one direct ``query_batch`` call over
the same workload — values, guarantee flags, fallback flags and error
bounds.

Timing gates: saturation throughput >= 10x naive, and
the coalesced p99 at the lightest offered level at or below the naive p99 at
that level (both open-loop p99s include the generator's timer lateness; the
naive run there uses the coalesced request count, so both percentiles rest
on the same number of samples).

Run with ``python benchmarks/bench_serve_latency.py`` (``make
bench-serve``); it writes ``BENCH_serve_latency.json`` under the
git-ignored ``benchmarks/out/`` and exits non-zero when a gate fails.
"""

from __future__ import annotations

import asyncio
import gc
import json
from pathlib import Path

import numpy as np

from repro import Aggregate, PolyFitIndex
from repro.bench import format_table
from repro.config import FitConfig, IndexConfig
from repro.serve import Coalescer, EngineHost

ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_serve_latency.json"

SIZES = {"records": 500_000, "requests": 2_000, "naive_requests": 400,
         "idle_probes": 50, "offered_qps": [500, 2_000, 8_000]}

DELTA = 100.0


def _workload(records: int, requests: int, seed: int):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.uniform(0.0, 1e6, size=records))
    draws = rng.uniform(0.0, 1e6, size=(2, requests))
    lows = np.minimum(draws[0], draws[1])
    highs = np.maximum(draws[0], draws[1])
    return keys, lows, highs


def _build_host(keys: np.ndarray, **host_kwargs) -> EngineHost:
    index = PolyFitIndex.build(
        keys,
        aggregate=Aggregate.COUNT,
        delta=DELTA,
        config=IndexConfig(fit=FitConfig(degree=1)),
    )
    return EngineHost(index, **host_kwargs)


def _percentiles_ms(latencies: list[float]) -> dict:
    array = np.array(latencies, dtype=np.float64) * 1e3
    return {
        "p50_ms": round(float(np.percentile(array, 50)), 3),
        "p95_ms": round(float(np.percentile(array, 95)), 3),
        "p99_ms": round(float(np.percentile(array, 99)), 3),
    }


async def _idle_rtt_ms(host: EngineHost, probes: int) -> float:
    """Median sequential single-request round trip (a batch of one)."""
    coalescer = Coalescer(host)
    loop = asyncio.get_running_loop()
    samples = []
    for i in range(probes):
        start = loop.time()
        await coalescer.submit((float(i), float(i) + 1e5))
        samples.append(loop.time() - start)
    await coalescer.stop()
    return round(float(np.median(samples)) * 1e3, 3)


def _settle_gc() -> None:
    """Run a full collection before a timed phase.

    Each phase allocates enough to leave the collector part-way to its next
    full (generation-2) pass, which takes 20-50 ms with a built index in the
    heap.  Without this, that pass lands in whichever later phase crosses
    the threshold — inside a ~20 ms saturation window it halves the
    measured QPS — so a phase's number would depend on the phases before it.
    """
    gc.collect()


def _naive_call(host: EngineHost, view, low: float, high: float):
    """The no-coalescing strawman: one size-1 engine call per request."""
    return host.execute(view, (np.array([low]), np.array([high])))


async def _open_loop(
    host: EngineHost,
    lows: np.ndarray,
    highs: np.ndarray,
    offered_qps: float,
    mode: str,
) -> dict:
    """Schedule arrivals at ``offered_qps``; latency is vs scheduled time."""
    _settle_gc()
    loop = asyncio.get_running_loop()
    interval = 1.0 / offered_qps
    coalescer = Coalescer(host) if mode == "coalesced" else None
    latencies: list[float] = []
    tasks = []
    start = loop.time()

    async def one(i: int, scheduled: float) -> None:
        if mode == "coalesced":
            future = coalescer.submit((float(lows[i]), float(highs[i])))
        else:
            view = host.pin()
            future = loop.run_in_executor(
                None, _naive_call, host, view, float(lows[i]), float(highs[i])
            )
        await future
        latencies.append(loop.time() - scheduled)

    for i in range(lows.size):
        scheduled = start + i * interval
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(i, scheduled)))
    await asyncio.gather(*tasks)
    elapsed = loop.time() - start
    if coalescer is not None:
        await coalescer.stop()
    row = {
        "mode": mode,
        "offered_qps": offered_qps,
        "requests": int(lows.size),
        "achieved_qps": round(lows.size / elapsed),
        **_percentiles_ms(latencies),
    }
    if coalescer is not None:
        row["mean_batch_size"] = round(coalescer.stats.mean_batch_size, 1)
    return row


async def _saturation(
    host: EngineHost, lows: np.ndarray, highs: np.ndarray, mode: str
) -> tuple[float, list]:
    """Submit the whole workload at once; return achieved QPS (+ answers)."""
    _settle_gc()
    loop = asyncio.get_running_loop()
    start = loop.time()
    if mode == "coalesced":
        coalescer = Coalescer(host)
        futures = [
            coalescer.submit((float(low), float(high)))
            for low, high in zip(lows, highs)
        ]
        answers = await asyncio.gather(*futures)
        elapsed = loop.time() - start
        await coalescer.stop()
    else:
        # Pin per request, as a coalescer-free server would have to (on an
        # updatable index each request must see the current epoch).
        futures = [
            loop.run_in_executor(
                None, _naive_call, host, host.pin(), float(low), float(high)
            )
            for low, high in zip(lows, highs)
        ]
        answers = await asyncio.gather(*futures)
        elapsed = loop.time() - start
    return lows.size / elapsed, answers


def _bit_identity_gate(host: EngineHost, answers, lows, highs) -> bool:
    """Coalesced answers == one direct query_batch call, bit for bit."""
    direct = host.index.query_batch(lows, highs)
    values = np.array([a.value for a in answers], dtype=np.float64)
    guaranteed = np.array([a.guaranteed for a in answers], dtype=bool)
    fallback = np.array([a.exact_fallback for a in answers], dtype=bool)
    bounds = np.array(
        [np.nan if a.error_bound is None else a.error_bound for a in answers],
        dtype=np.float64,
    )
    return (
        np.array_equal(values, direct.values)
        and np.array_equal(guaranteed, direct.guaranteed)
        and np.array_equal(fallback, direct.exact_fallback)
        and np.array_equal(bounds, direct.error_bounds, equal_nan=True)
    )


def _cache_section(keys: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> dict:
    """Repeat one batch workload against a caching host; report counters."""
    host = _build_host(keys, cache_size=8)
    view = host.pin()
    rounds = 5
    for _ in range(rounds):
        host.execute(view, (lows, highs))
    info = host.cache_info()
    return {"rounds": rounds, **info.as_dict()}


def run_benchmark(sizes: dict) -> dict:
    keys, lows, highs = _workload(sizes["records"], sizes["requests"], seed=17)
    host = _build_host(keys)

    lightest = min(sizes["offered_qps"])

    async def protocol():
        idle = await _idle_rtt_ms(host, sizes["idle_probes"])
        levels = []
        naive_n = min(sizes["naive_requests"], sizes["requests"])
        for offered in sizes["offered_qps"]:
            levels.append(
                await _open_loop(host, lows, highs, offered, "coalesced")
            )
            # At the lightest rate naive runs the full request count too: its
            # p99 is the latency gate's reference, so it needs as many
            # samples beyond the percentile as the coalesced p99 it judges.
            n = lows.size if offered == lightest else naive_n
            levels.append(
                await _open_loop(host, lows[:n], highs[:n], offered, "naive")
            )
        coalesced_qps, answers = await _saturation(host, lows, highs, "coalesced")
        naive_qps, _ = await _saturation(
            host, lows[:naive_n], highs[:naive_n], "naive"
        )
        identical = _bit_identity_gate(host, answers, lows, highs)
        return idle, levels, coalesced_qps, naive_qps, identical

    idle_rtt_ms, levels, coalesced_qps, naive_qps, identical = asyncio.run(
        protocol()
    )
    lightest_p99 = {
        level["mode"]: level["p99_ms"]
        for level in levels
        if level["offered_qps"] == lightest
    }
    return {
        "description": (
            "serving latency/throughput: request coalescing vs one engine "
            "call per request, open-loop arrivals, in-process asyncio"
        ),
        "records": sizes["records"],
        "delta": DELTA,
        "degree": 1,
        "idle_rtt_ms": idle_rtt_ms,
        "open_loop": levels,
        "saturation": {
            "coalesced_qps": round(coalesced_qps),
            "naive_qps": round(naive_qps),
            "speedup": round(coalesced_qps / naive_qps, 1),
        },
        "lightest_load_p99_ms": lightest_p99["coalesced"],
        "lightest_load_naive_p99_ms": lightest_p99["naive"],
        "cache": _cache_section(keys, lows, highs),
        "gates": {
            "coalesced_bit_identical_to_direct_batch": identical,
        },
    }


def _print_results(results: dict) -> None:
    print(
        f"\n{results['records']} records, "
        f"idle round-trip {results['idle_rtt_ms']} ms"
    )
    rows = [
        [level["mode"], level["offered_qps"], level["achieved_qps"],
         level["p50_ms"], level["p95_ms"], level["p99_ms"],
         level.get("mean_batch_size", "-")]
        for level in results["open_loop"]
    ]
    print()
    print(format_table(
        ["mode", "offered qps", "achieved", "p50 ms", "p95 ms", "p99 ms",
         "mean batch"],
        rows,
        title="open-loop latency by offered load",
    ))
    saturation = results["saturation"]
    print()
    print(format_table(
        ["mode", "qps"],
        [["coalesced", saturation["coalesced_qps"]],
         ["naive", saturation["naive_qps"]]],
        title=f"saturation throughput ({saturation['speedup']}x coalescing win)",
    ))
    cache = results["cache"]
    print(
        f"\ncache: {cache['rounds']} identical rounds -> "
        f"{cache['hits']} hits / {cache['misses']} misses "
        f"(hit rate {cache['hit_rate']})"
    )


def _write_artifact(results: dict) -> None:
    ARTIFACT_PATH.parent.mkdir(exist_ok=True)
    ARTIFACT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nartifact written to {ARTIFACT_PATH}")


def _check_results(results: dict) -> None:
    """Correctness gates, then the throughput and latency gates."""
    for gate, passed in results["gates"].items():
        assert passed, f"gate failed: {gate}"
    cache = results["cache"]
    assert cache["hits"] == cache["rounds"] - 1, (
        f"repeated workload should hit the cache, got {cache}"
    )
    saturation = results["saturation"]
    assert saturation["speedup"] >= 10.0, (
        "coalescing should buy >= 10x saturation throughput, "
        f"got {saturation['speedup']}x"
    )
    # Both open-loop p99s carry the same generator timer lateness, so the
    # naive mode at the same offered rate is a like-for-like budget.
    budget = results["lightest_load_naive_p99_ms"]
    assert results["lightest_load_p99_ms"] <= budget, (
        f"coalesced p99 at the lightest load "
        f"({results['lightest_load_p99_ms']} ms) exceeds the naive p99 "
        f"at the same offered rate ({budget} ms)"
    )


if __name__ == "__main__":
    bench_results = run_benchmark(SIZES)
    _print_results(bench_results)
    _write_artifact(bench_results)
    _check_results(bench_results)
