"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point_query --seed 1 --seconds 10 --trace 0

Workloads: ``point_query``, ``batch_scan``, ``ingest_mixed`` (see
``perfbench/README.md``).  With ``--trace 0`` the run sets up its server
three times (``setup_s`` is the median), measures the third for
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
measures an untraced server and then a server whose library calls are
wrapped in spans, and reports the per-layer metrics.  Either way the
answers are checked against NumPy oracles and in-process ``query_batch``
calls; ``ingest_mixed`` also crashes its server and recovers the index.

Human-readable tables go to stdout first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Full results
(provenance, extras, the layer table, the span JSONL) go to
``perfbench/out/<workload>-seed<seed>-trace<t>/``.  Exit status: 0 when
every check passed, 1 when a check failed, 2 when the run could not be
made.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3


sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
try:
    import numpy

    import client
    import tracing
    import workloads
except ImportError as error:  # e.g. run outside a checkout of the program
    print(f"cannot import the program under test: {error}", file=sys.stderr)
    sys.exit(2)


@dataclass
class Phase:
    """One measured server: its load, counters, resources and verdict."""

    result: object
    metrics_before: dict
    metrics_after: dict
    server_cpu_s: float
    client_cpu_s: float
    peak_rss_mb: float
    hosts: dict
    verdict: object
    finish: dict = field(default_factory=dict)
    spans_path: str | None = None
    wal_bytes: float = 0.0


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


async def launch(workload, launch_index: int, trace: bool, out_dir: str):
    """Start one server and wait for /healthz; returns (server, seconds)."""
    spec = workload.write_spec(launch_index)
    start = time.perf_counter()
    server = client.ServerProcess(
        spec, trace=trace, log_path=os.path.join(out_dir, f"server-{launch_index}.log"))
    try:
        await client.wait_healthy(server.port)
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - start


async def measure(workload, server, out_dir: str, trace: bool) -> Phase:
    """Warm up, run the timed load, end the server, check the answers."""
    wal_path = workload.wal_path
    try:
        await workload.warm(server.port)
        before = await client.fetch_json(server.port, "/metrics.json")
        wal_before = os.path.getsize(wal_path) if wal_path else 0
        cpu_before, client_before = server.cpu_seconds(), _cpu_self()
        result = await workload.drive(server.port)
        cpu_after, client_after = server.cpu_seconds(), _cpu_self()
        after = await client.fetch_json(server.port, "/metrics.json")
        wal_after = os.path.getsize(wal_path) if wal_path else 0
        rss = server.peak_rss_mb()
        spans_path = None
        if trace:
            spans_path = os.path.join(out_dir, "spans.jsonl")
            server.dump_spans(spans_path)
    except BaseException:
        server.kill()
        raise
    verdict = workloads.Verdict()
    finish = workload.finish(server, result.samples, verdict)
    workload.check(result.samples, verdict)
    return Phase(result, before, after, cpu_after - cpu_before, client_after - client_before,
                 rss, server.hosts, verdict, finish, spans_path, wal_after - wal_before)


def _percentile(values, q: float) -> float:
    return float(numpy.percentile(numpy.asarray(values, dtype=float), q)) if len(values) else 0.0


def _p99_ms(latencies: list[float]) -> float:
    """p99 as the median over consecutive windows of at least 1000 requests.

    Every window keeps ten samples beyond its p99.  A host stall then moves
    one window's figure, not the run's; a run of under 2000 requests is one
    window, the plain p99.
    """
    windows = max(1, len(latencies) // 1000)
    parts = numpy.array_split(numpy.asarray(latencies, dtype=float), windows)
    return float(numpy.median([numpy.percentile(part, 99) for part in parts]))


def _latencies_ms(samples, kind: str, miss_ms: float) -> list[float]:
    """Latencies of one request kind in sending order; failed requests
    count as missing any latency limit (they are charged the run length)."""
    chosen = sorted((s for s in samples if s.kind == kind), key=lambda s: s.sent)
    return [s.latency * 1e3 if s.ok else miss_ms for s in chosen]


def end_to_end(workload, phase: Phase, setups: list[float]) -> tuple[dict, dict]:
    """The bounded metrics, plus the figures reported beside them."""
    samples = phase.result.samples
    seconds = phase.result.seconds
    miss_ms = workload.seconds * 1e3
    queries = _latencies_ms(samples, "query", miss_ms)
    answered = sum(s.queries for s in samples if s.kind == "query" and s.ok)
    sizes = phase.hosts.values()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (_percentile(queries, 50), "ms"),
        "query_p99_ms": (_p99_ms(queries), "ms"),
        "queries_per_s": (answered / seconds, "1/s"),
        "rel_error_mean": (phase.verdict.rel_error_mean, "ratio"),
        "index_bytes_per_key": (sum(h["bytes"] for h in sizes) / sum(h["keys"] for h in sizes),
                                "B/key"),
        "server_peak_rss_mb": (phase.peak_rss_mb, "MiB"),
    }
    failed = sum(1 for s in samples if not s.ok)
    extras = {
        "error_rate": (failed / max(len(samples), 1), "ratio"),
        "query_requests": (len(queries), "count"),
        "setup_s_each": (setups, "s"),
    }
    inserts = _latencies_ms(samples, "insert", miss_ms)
    if inserts:
        records = sum(s.queries for s in samples if s.kind == "insert" and s.ok)
        extras.update({
            "insert_requests": (len(inserts), "count"),
            "inserts_per_s": (records / seconds, "1/s"),
            "insert_p50_ms": (_percentile(inserts, 50), "ms"),
            "insert_p99_ms": (_p99_ms(inserts), "ms"),
        })
    if "replay_s" in phase.finish:
        extras["replay_s"] = (phase.finish["replay_s"], "s")
    return metrics, extras


def validity(workload, phase: Phase) -> dict:
    """Whether the load generator, not the server, limited the run."""
    samples = phase.result.samples
    share = phase.client_cpu_s / max(phase.result.seconds, 1e-9)
    report = {"generator_cpu_share": share, "valid": True, "reasons": []}
    if share > 0.9:
        report["valid"] = False
        report["reasons"].append(f"load generator used {share:.0%} of a core")
    if not workload.closed:
        lateness = []
        for kind in ("insert", "query"):
            stream = sorted((s for s in samples if s.kind == kind), key=lambda s: s.item)
            previous = 0.0
            for s in stream:
                lateness.append((s.sent - max(s.due, previous)) * 1e3)
                previous = s.done
        late = _percentile(lateness, 99)
        report["generator_late_ms_p99"] = late
        if late > 10.0:
            report["valid"] = False
            report["reasons"].append(f"open-loop generator ran {late:.1f} ms late (p99)")
    return report


# ---------------------------------------------------------------------- #
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------- #


def _counter(snapshot: dict, name: str, **labels) -> float:
    family = snapshot.get(name, {"samples": []})
    return sum(
        sample.get("value", 0.0) for sample in family["samples"]
        if all(sample["labels"].get(k) == v for k, v in labels.items())
    )


def _delta(phase: Phase, name: str, **labels) -> float:
    return _counter(phase.metrics_after, name, **labels) - _counter(
        phase.metrics_before, name, **labels)


def per_layer(untraced: Phase, traced: Phase) -> tuple[dict, list[dict]]:
    result = traced.result
    spans = tracing.load_spans(traced.spans_path, (result.start, result.end))
    selfs = tracing.self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    by_id = {span["id"]: span for span in spans}

    def durations(name, scale=1e3, where=lambda s: True):
        return [(s["end"] - s["start"]) * scale for s in by_name.get(name, ()) if where(s)]

    def p50(name, scale=1e3, where=lambda s: True):
        return _percentile(durations(name, scale, where), 50)

    def per_query_us(names, where=lambda s: True):
        chosen = [s for n in names for s in by_name.get(n, ()) if where(s)]
        queries = sum(s["attrs"].get("n", 0) for s in chosen)
        return sum(s["end"] - s["start"] for s in chosen) * 1e6 / queries if queries else 0.0

    engine_1d = ("index.query_batch", "index.estimate_batch", "index.exact_batch",
                 "overlay.estimate_batch", "overlay.exact_batch")

    exact_1d = ("index.exact_batch", "overlay.exact_batch")

    def outermost(span):
        parent = by_id.get(span["parent"])
        return parent is None or parent["name"] not in engine_1d

    samples = [s for s in result.samples if s.kind == "query" and s.ok]
    routes = {s["attrs"].get("req"): s for s in by_name.get("serve.http.route", ())}
    writes = {s["attrs"].get("req"): s for s in by_name.get("serve.http.write", ())}
    wire, covered, rtt_total = [], 0.0, 0.0
    for sample in samples:
        route = routes.get(str(sample.request_id))
        if route is None:
            continue
        handler = route["end"] - route["start"]
        rtt = sample.done - sample.sent
        wire.append((rtt - handler) * 1e3)
        write = writes.get(str(sample.request_id))
        covered += handler + (write["end"] - write["start"] if write else 0.0)
        rtt_total += rtt
    answered = sum(s.queries for s in samples)

    index_calls = by_name.get("index.query_batch", ())
    index_queries = sum(s["attrs"]["n"] for s in index_calls)
    fleet_calls = by_name.get("fleet.query_batch", ())
    fleet_queries = sum(s["attrs"]["n"] for s in fleet_calls)
    fleet_ids = {s["id"] for s in fleet_calls}
    partitions = [s for n in ("overlay.estimate_batch", "overlay.exact_batch")
                  for s in by_name.get(n, ()) if s["parent"] in fleet_ids]
    plans = by_name.get("fleet.plan", ())
    hits = _delta(traced, "repro_cache_hits_total")
    misses = _delta(traced, "repro_cache_misses_total")
    ticks = _delta(traced, "repro_coalescer_ticks_total")
    batches = _delta(traced, "repro_coalescer_batches_total")
    wal_records = _delta(traced, "repro_wal_appends_total", kind="insert")
    compactions = durations("stream.compact")

    untraced_p50 = _percentile(_latencies_ms(untraced.result.samples, "query", 0.0), 50)
    traced_p50 = _percentile(_latencies_ms(result.samples, "query", 0.0), 50)
    untraced_answered = sum(s.queries for s in untraced.result.samples
                            if s.kind == "query" and s.ok)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "serve.http.handler_ms_p50": (p50("serve.http.route", where=lambda s: s["attrs"].get(
            "path") in ("/query", "/query_batch")), "ms"),
        "serve.http.wire_ms_p50": (_percentile(wire, 50), "ms"),
        "serve.http.response_bytes_per_query": (
            ratio(sum(s.response_bytes for s in samples), answered), "B"),
        "serve.coalescer.wait_ms_p50": (p50("serve.coalescer.wait"), "ms"),
        "serve.coalescer.batch_size_mean": (
            ratio(_delta(traced, "repro_coalescer_served_total"), batches), "count"),
        "serve.coalescer.empty_tick_ratio": (ratio(ticks - batches, ticks), "ratio"),
        "serve.host.pin_us_p50": (p50("serve.host.pin", 1e6), "us"),
        "serve.host.execute_us_p50": (p50("serve.host.execute", 1e6), "us"),
        "queries.cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "queries.cache.probe_us_p50": (p50("queries.cache.probe", 1e6), "us"),
        "index.batch1_us_p50": (p50("index.query_batch", 1e6,
                                    where=lambda s: s["attrs"]["n"] <= 2), "us"),
        "index.us_per_query": (per_query_us(engine_1d, outermost), "us"),
        "index.max_us_per_query": (per_query_us(
            engine_1d, lambda s: outermost(s) and s["attrs"].get("agg") == "max"), "us"),
        "index.exact_fallback_ratio": (
            ratio(sum(s["attrs"]["fallback"] for s in index_calls), index_queries), "ratio"),
        "index.exact_us_per_query": (per_query_us(
            exact_1d, lambda s: by_id.get(s["parent"], {}).get("name") not in exact_1d), "us"),
        "index2d.us_per_query": (per_query_us(("index2d.query_batch",)), "us"),
        "fleet.us_per_query": (per_query_us(("fleet.query_batch",)), "us"),
        "fleet.plan_us_per_query": (
            ratio(sum(durations("fleet.plan", 1e6)), fleet_queries), "us"),
        "fleet.partition_us_per_query": (
            ratio(sum((s["end"] - s["start"]) * 1e6 for s in partitions), fleet_queries), "us"),
        "fleet.merge_us_per_query": (
            ratio(sum(selfs[s["id"]] * 1e6 for s in fleet_calls), fleet_queries), "us"),
        "fleet.partitions_per_query": (
            ratio(sum(s["attrs"]["pairs"] for s in plans), sum(s["attrs"]["n"] for s in plans)),
            "count"),
        "stream.insert_ms_p50": (p50("stream.insert"), "ms"),
        "stream.insert_ms_p99": (_percentile(durations("stream.insert"), 99), "ms"),
        "stream.wal.append_us_p50": (p50("stream.wal.append", 1e6), "us"),
        "stream.wal.bytes_per_record": (ratio(traced.wal_bytes, wal_records), "B"),
        "stream.compact_ms_p50": (_percentile(compactions, 50), "ms"),
        "stream.compact_ms_max": (max(compactions, default=0.0), "ms"),
        "stream.compactions": (float(len(compactions)), "count"),
        "stream.snapshot_us_p50": (p50("stream.snapshot", 1e6), "us"),
        "server.cpu_ms_per_kquery": (
            ratio(untraced.server_cpu_s * 1e3, untraced_answered / 1e3), "ms"),
        "trace.coverage_ratio": (ratio(covered, rtt_total), "ratio"),
        "trace.overhead_pct": ((ratio(traced_p50, untraced_p50) - 1.0) * 100.0, "%"),
    }
    table = tracing.layer_table(spans, selfs, len(samples), rtt_total)
    return metrics, table


# ---------------------------------------------------------------------- #
# Provenance and output
# ---------------------------------------------------------------------- #


def provenance(workload, args) -> dict:
    def git(*argv):
        try:
            return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                                  timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    # Only a repository rooted at this checkout describes it; a checkout
    # copied under some other repository must not borrow that one's sha.
    inside = git("rev-parse", "--show-toplevel") == os.path.realpath(ROOT)
    sha = git("rev-parse", "HEAD") if inside else None
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_sha": sha, "git_dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_available": importlib.util.find_spec("numba") is not None,
        **workload.provenance(),
    }


def _print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, list) else f"{value:.6g}"
        print(f"  {name:<40} {shown} {unit}")


async def run(args) -> int:
    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    kinds = {w.name: w for w in (workloads.PointQuery, workloads.BatchScan,
                                 workloads.IngestMixed)}
    workload = kinds[args.workload](args.seed, args.scale, args.seconds, out_dir)
    record = {"provenance": provenance(workload, args)}

    if not args.trace:
        setups = []
        for launch_index in range(SETUPS):
            workload.launch_index = launch_index
            server, seconds = await launch(workload, launch_index, False, out_dir)
            setups.append(seconds)
            if launch_index < SETUPS - 1:
                server.stop()
        phase = await measure(workload, server, out_dir, False)
        phases = [phase]
        metrics, extras = end_to_end(workload, phase, setups)
        _print_table(f"{workload.name} end-to-end (seed {args.seed})", metrics)
        _print_table("reported beside them", extras)
        record.update(end_to_end=metrics, extras=extras)
    else:
        phases = []
        for launch_index, traced in enumerate((False, True)):
            workload.launch_index = launch_index
            server, _ = await launch(workload, launch_index, traced, out_dir)
            phases.append(await measure(workload, server, out_dir, traced))
        metrics, table = per_layer(*phases)
        _print_table(f"{workload.name} per-layer (seed {args.seed}, traced run)", metrics)
        print("== layer table (traced run): calls, busy ms, self ms, self ms/request, "
              "share of RTT")
        for row in table:
            print(f"  {row['layer']:<28} {row['calls']:>8} {row['busy_ms']:>10.1f} "
                  f"{row['self_ms']:>10.1f} {row['self_ms_per_request']:>9.4f} "
                  f"{row['share_of_rtt']:>7.3f}")
        record.update(per_layer=metrics, layer_table=table,
                      untraced_query_p50_ms=_percentile(
                          _latencies_ms(phases[0].result.samples, "query", 0.0), 50))

    failures = [f for phase in phases for f in phase.verdict.failures]
    attempted = sum(len(phase.result.samples) for phase in phases)
    failed = sum(1 for phase in phases for s in phase.result.samples if not s.ok)
    record.update(
        validity=[validity(workload, phase) for phase in phases],
        checks={"checked_answers": sum(p.verdict.checked for p in phases),
                "failures": failures, "notes": [p.verdict.notes for p in phases],
                "durability": [p.finish for p in phases]},
    )
    for report in record["validity"]:
        if not report["valid"]:
            print("WARNING: run invalid: " + "; ".join(report["reasons"]), file=sys.stderr)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    with open(os.path.join(out_dir, "result.json"), "w") as handle:
        json.dump(record, handle, indent=2, default=float)
    for name in os.listdir(out_dir):
        if name.endswith((".npz", ".wal", ".ckpt")):
            os.remove(os.path.join(out_dir, name))
    correct = not failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("point_query", "batch_scan", "ingest_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        return asyncio.run(run(args))
    except Exception as error:  # the run could not be made; print no result
        print(f"benchmark run failed: {type(error).__name__}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
