"""Command-line interface for building, querying and serving PolyFit indexes.

Provides ten subcommands mirroring a typical deployment workflow:

``build``
    Load a (key, measure) CSV, build a PolyFit index for the requested
    aggregate and guarantee, and write it to a binary index file
    (:mod:`repro.index.codec`).

``query``
    Load a previously built index and answer one range query.

``info``
    Print summary statistics of a built index (aggregate, delta, segments,
    payload size).

``ingest``
    Demo the streaming write path: build a base index from a prefix of the
    records, stream the rest in batches through an
    :class:`~repro.stream.UpdatablePolyFitIndex` (append → query → compact),
    and report buffer fill, epochs and probe-query accuracy along the way.

``fleet-build``
    Build a horizontally partitioned index fleet (:mod:`repro.fleet`) from
    a CSV or synthetic records and persist it as a manifest directory of
    per-partition binary codec files.

``fleet-stats``
    Print a saved fleet's stats: routing splits, per-partition key counts,
    segments, buffer fill, epochs and sizes.

``serve``
    Stand up the asyncio HTTP serving front (:mod:`repro.serve`) over a
    built index file, a fleet directory (``fleet-build`` output), or a
    synthetic updatable index: concurrent scalar requests are coalesced
    into vectorized batch calls (group commit: a queue flushes as soon as
    no flush of it is in flight).

``query-remote``
    Smoke-test a running server: one scalar query (or ``--stats``) over
    HTTP, printed in the same shape as the local ``query`` command.
    ``--retries`` adds bounded exponential-backoff retry on 503s and
    connection errors.

``metrics``
    Dump a running server's telemetry: the Prometheus ``/metrics``
    exposition (default), a JSON registry snapshot with histogram
    percentiles (``--json``), the slow-query log (``--slowlog``) or the
    sampled trace timelines (``--traces``); ``--watch N`` re-fetches every
    N seconds to tail a live server.

``fsck``
    Verify durable artifacts offline — codec files (per-array checksums),
    write-ahead logs (frame CRCs, torn-tail classification) and fleet
    directories (manifest/partition consistency).  Exits 0 when clean, 1
    when any target has integrity problems.

Example
-------
::

    python -m repro.cli build ticks.csv index.pfbin --aggregate max --eps-abs 50
    python -m repro.cli query index.pfbin 1000 2000 --eps-abs 50
    python -m repro.cli info index.pfbin
    python -m repro.cli ingest --synthetic 20000 --delta 50 --max-buffer 2048
    python -m repro.cli fleet-build fleet/ --synthetic 100000 --delta 50 --num-partitions 8
    python -m repro.cli fleet-stats fleet/
    python -m repro.cli serve fleet/ --port 8080
    python -m repro.cli serve --synthetic 100000 --delta 100 --port 8080
    python -m repro.cli query-remote http://127.0.0.1:8080 1000 2000 --eps-abs 200
    python -m repro.cli metrics http://127.0.0.1:8080
    python -m repro.cli fsck fleet/ index.pfbin ingest.wal
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from typing import Sequence

import numpy as np

from .config import Aggregate, FitConfig, IndexConfig, SegmentationConfig
from .datasets.loaders import load_keyed_csv
from .errors import QueryError, ReproError
from .index import PolyFitIndex, load_index, save_index
from .queries.types import Guarantee, RangeQuery
from .stream import CompactionPolicy, UpdatablePolyFitIndex

__all__ = ["main", "build_parser", "build_serve_server"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PolyFit: approximate range aggregate queries with guarantees",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser("build", help="build an index from a CSV file")
    build.add_argument("input_csv", help="CSV file with key and measure columns")
    build.add_argument("output_index", help="path of the index file to write (.pfbin)")
    build.add_argument("--aggregate", choices=[a.value for a in Aggregate],
                       default="count", help="aggregate the index answers")
    build.add_argument("--key-column", type=int, default=0)
    build.add_argument("--measure-column", type=int, default=1)
    build.add_argument("--no-header", action="store_true",
                       help="the CSV file has no header row")
    build.add_argument("--degree", type=int, default=2, help="polynomial degree")
    group = build.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps-abs", type=float,
                       help="absolute error guarantee (Problem 1)")
    group.add_argument("--delta", type=float,
                       help="per-segment budget (for relative-error workloads)")

    query = subparsers.add_parser("query", help="answer one range query")
    query.add_argument("index_file", help="index file written by `build`")
    query.add_argument("low", type=float, help="lower key bound (inclusive)")
    query.add_argument("high", type=float, help="upper key bound (inclusive)")
    guarantee = query.add_mutually_exclusive_group()
    guarantee.add_argument("--eps-abs", type=float, help="absolute error guarantee")
    guarantee.add_argument("--eps-rel", type=float, help="relative error guarantee")

    info = subparsers.add_parser("info", help="describe a built index")
    info.add_argument("index_file", help="index file written by `build`")

    ingest = subparsers.add_parser(
        "ingest", help="demo streaming ingestion: append -> query -> compact"
    )
    ingest.add_argument("input_csv", nargs="?", default=None,
                        help="CSV stream source (omit when using --synthetic)")
    ingest.add_argument("--synthetic", type=int, default=None, metavar="N",
                        help="generate N synthetic append-only records instead of a CSV")
    ingest.add_argument("--aggregate", choices=[a.value for a in Aggregate],
                        default="count", help="aggregate the index answers")
    ingest.add_argument("--key-column", type=int, default=0)
    ingest.add_argument("--measure-column", type=int, default=1)
    ingest.add_argument("--no-header", action="store_true",
                        help="the CSV file has no header row")
    ingest.add_argument("--degree", type=int, default=1,
                        help="polynomial degree (1 = linear-time compaction)")
    budget = ingest.add_mutually_exclusive_group(required=True)
    budget.add_argument("--eps-abs", type=float,
                        help="absolute error guarantee (Problem 1)")
    budget.add_argument("--delta", type=float,
                        help="per-segment budget (for relative-error workloads)")
    ingest.add_argument("--base-fraction", type=float, default=0.5,
                        help="fraction of the stream used for the initial build")
    ingest.add_argument("--batch-size", type=int, default=1000,
                        help="records inserted per streaming batch")
    ingest.add_argument("--max-buffer", type=int, default=4096,
                        help="compaction threshold (CompactionPolicy.max_buffer)")
    ingest.add_argument("--seed", type=int, default=0,
                        help="seed for the synthetic stream")

    fleet_build = subparsers.add_parser(
        "fleet-build", help="build a partitioned index fleet into a directory"
    )
    fleet_build.add_argument("output_dir",
                             help="directory for the fleet manifest + partition files")
    fleet_build.add_argument("input_csv", nargs="?", default=None,
                             help="CSV source (omit when using --synthetic)")
    fleet_build.add_argument("--synthetic", type=int, default=None, metavar="N",
                             help="generate N synthetic records instead of a CSV")
    fleet_build.add_argument("--aggregate", choices=[a.value for a in Aggregate],
                             default="count", help="aggregate the fleet answers")
    fleet_build.add_argument("--key-column", type=int, default=0)
    fleet_build.add_argument("--measure-column", type=int, default=1)
    fleet_build.add_argument("--no-header", action="store_true",
                             help="the CSV file has no header row")
    fleet_build.add_argument("--degree", type=int, default=1,
                             help="polynomial degree of every partition")
    fleet_budget = fleet_build.add_mutually_exclusive_group(required=True)
    fleet_budget.add_argument("--eps-abs", type=float,
                              help="absolute error guarantee (Problem 1)")
    fleet_budget.add_argument("--delta", type=float,
                              help="per-segment budget (for relative-error workloads)")
    fleet_build.add_argument("--num-partitions", type=int, default=4,
                             help="partition count (balanced distinct-key quantiles)")
    fleet_build.add_argument("--splits", default=None,
                             help="explicit comma-separated split keys "
                                  "(overrides --num-partitions)")
    fleet_build.add_argument("--max-keys", type=int, default=None,
                             help="FleetPolicy: split partitions above this key count")
    fleet_build.add_argument("--merge-keys", type=int, default=None,
                             help="FleetPolicy: merge neighbours at or below this "
                                  "combined key count")
    fleet_build.add_argument("--auto-rebalance", action="store_true",
                             help="rebalance automatically after inserts")
    fleet_build.add_argument("--max-buffer", type=int, default=65536,
                             help="per-partition compaction threshold")
    fleet_build.add_argument("--seed", type=int, default=0,
                             help="seed for the synthetic records")

    fleet_stats = subparsers.add_parser(
        "fleet-stats", help="describe a saved fleet directory"
    )
    fleet_stats.add_argument("fleet_dir", help="directory written by fleet-build")

    serve = subparsers.add_parser(
        "serve", help="serve an index over HTTP with request coalescing"
    )
    serve.add_argument("index_file", nargs="?", default=None,
                       help="built index file (.pfbin) or a fleet "
                            "directory; omit with --synthetic")
    serve.add_argument("--synthetic", type=int, default=None, metavar="N",
                       help="serve an updatable index built over N synthetic records")
    serve.add_argument("--aggregate", choices=[a.value for a in Aggregate],
                       default="count", help="aggregate of the synthetic index")
    serve.add_argument("--degree", type=int, default=1,
                       help="polynomial degree of the synthetic index")
    serve.add_argument("--eps-abs", type=float, default=None,
                       help="absolute guarantee of the synthetic index")
    serve.add_argument("--delta", type=float, default=None,
                       help="per-segment budget of the synthetic index")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for the synthetic records")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 picks a free one)")
    serve.add_argument("--max-batch", type=int, default=8192,
                       help="largest single coalesced batch call; requests "
                            "queued during a flush ride the next one")
    serve.add_argument("--max-pending", type=int, default=65536,
                       help="admission control: max queued requests")
    serve.add_argument("--cache-size", type=int, default=0,
                       help="version-keyed result cache entries (0 = off)")
    serve.add_argument("--num-shards", type=int, default=1,
                       help="fan batches out over this many shards")
    serve.add_argument("--failure-policy", choices=["fail_fast", "degrade"],
                       default="fail_fast",
                       help="fleet partition failures: fail the query or "
                            "answer with a widened certified bound (206)")
    serve.add_argument("--verify", action="store_true",
                       help="verify per-array checksums while loading")
    serve.add_argument("--trace-sample-rate", type=float, default=0.0,
                       help="fraction of /query requests that record a span "
                            "timeline (0 disables tracing)")
    serve.add_argument("--trace-seed", type=int, default=None,
                       help="seed the trace sampler for deterministic runs")
    serve.add_argument("--slow-query-ms", type=float, default=250.0,
                       help="queries at or above this wall time land in "
                            "GET /slowlog")
    serve.add_argument("--log-format", choices=["plain", "json"],
                       default="plain",
                       help="json emits one access-log line per request")

    metrics = subparsers.add_parser(
        "metrics", help="dump a running server's /metrics registry"
    )
    metrics.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8080")
    metrics.add_argument("--json", action="store_true",
                         help="print the registry snapshot as JSON (with "
                              "histogram percentiles) instead of Prometheus "
                              "text")
    metrics.add_argument("--slowlog", action="store_true",
                         help="print the server's slow-query log instead")
    metrics.add_argument("--traces", action="store_true",
                         help="print the server's sampled traces instead")
    metrics.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                         help="re-fetch and re-print every SECONDS until "
                              "interrupted (tail a live server)")
    metrics.add_argument("--timeout", type=float, default=10.0,
                         help="HTTP timeout in seconds")

    remote = subparsers.add_parser(
        "query-remote", help="smoke-test a running serve instance over HTTP"
    )
    remote.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8080")
    remote.add_argument("low", type=float, nargs="?", default=None,
                        help="lower key bound (omit with --stats)")
    remote.add_argument("high", type=float, nargs="?", default=None,
                        help="upper key bound (omit with --stats)")
    remote_guarantee = remote.add_mutually_exclusive_group()
    remote_guarantee.add_argument("--eps-abs", type=float,
                                  help="absolute error guarantee")
    remote_guarantee.add_argument("--eps-rel", type=float,
                                  help="relative error guarantee")
    remote.add_argument("--index", default="default",
                        help="named index on the server")
    remote.add_argument("--stats", action="store_true",
                        help="print the server's /stats payload instead")
    remote.add_argument("--timeout", type=float, default=10.0,
                        help="HTTP timeout in seconds")
    remote.add_argument("--retries", type=int, default=0,
                        help="retry 503s and connection errors up to this "
                             "many times (exponential backoff + jitter)")
    remote.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request server-side deadline; also caps "
                             "the client's retry loop")

    fsck = subparsers.add_parser(
        "fsck", help="verify codec files, WALs and fleet dirs"
    )
    fsck.add_argument("targets", nargs="+",
                      help="paths to verify: .pfbin files, WAL files or "
                           "fleet directories")
    fsck.add_argument("--json", action="store_true",
                      help="emit the full report as JSON instead of text")

    return parser


def _command_build(args: argparse.Namespace) -> int:
    aggregate = Aggregate(args.aggregate)
    keys, measures = load_keyed_csv(
        args.input_csv,
        key_column=args.key_column,
        measure_column=args.measure_column,
        has_header=not args.no_header,
    )
    config = IndexConfig(
        fit=FitConfig(degree=args.degree),
        segmentation=SegmentationConfig(delta=args.delta if args.delta else 1.0),
    )
    index = PolyFitIndex.build(
        keys,
        None if aggregate is Aggregate.COUNT else measures,
        aggregate=aggregate,
        delta=args.delta,
        guarantee=Guarantee.absolute(args.eps_abs) if args.eps_abs else None,
        config=config,
    )
    save_index(index, args.output_index)
    print(
        f"built {aggregate.value} index: {index.num_segments} degree-{index.degree} "
        f"segments, delta={index.delta:g}, {index.size_in_bytes() / 1024:.2f} KiB "
        f"-> {args.output_index}"
    )
    return 0


def _command_query(args: argparse.Namespace) -> int:
    index = load_index(args.index_file)
    query = RangeQuery(args.low, args.high, index.aggregate)
    guarantee = None
    if args.eps_abs:
        guarantee = Guarantee.absolute(args.eps_abs)
    elif args.eps_rel:
        guarantee = Guarantee.relative(args.eps_rel)
    result = index.query(query, guarantee)
    bound = "n/a" if result.error_bound is None else f"{result.error_bound:g}"
    print(
        f"{index.aggregate.value}[{args.low:g}, {args.high:g}] = {result.value:g} "
        f"(guaranteed={result.guaranteed}, exact_fallback={result.exact_fallback}, "
        f"error_bound={bound})"
    )
    return 0


def _command_info(args: argparse.Namespace) -> int:
    index = load_index(args.index_file)
    print(f"aggregate:        {index.aggregate.value}")
    print(f"delta:            {index.delta:g}")
    print(f"degree:           {index.degree}")
    print(f"segments:         {index.num_segments}")
    print(f"payload size:     {index.size_in_bytes() / 1024:.2f} KiB")
    spans = [segment.num_points for segment in index.segments]
    print(f"points/segment:   min={min(spans)} max={max(spans)}")
    return 0


def _ingest_records(args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray]:
    """The (keys, measures) stream: a CSV or a synthetic append-only walk."""
    if (args.input_csv is None) == (args.synthetic is None):
        raise QueryError("provide exactly one of input_csv or --synthetic N")
    if args.input_csv is not None:
        return load_keyed_csv(
            args.input_csv,
            key_column=args.key_column,
            measure_column=args.measure_column,
            has_header=not args.no_header,
        )
    if args.synthetic < 4:
        raise QueryError("--synthetic needs at least 4 records")
    rng = np.random.default_rng(args.seed)
    # Strictly increasing keys (an arrival-time stream) with noisy measures:
    # the append-only shape the tail re-segmentation fast path is built for.
    keys = np.cumsum(rng.uniform(0.1, 1.0, size=args.synthetic))
    measures = 100.0 + np.cumsum(rng.normal(0.0, 1.0, size=args.synthetic))
    return keys, np.abs(measures)


def _command_ingest(args: argparse.Namespace) -> int:
    aggregate = Aggregate(args.aggregate)
    keys, measures = _ingest_records(args)
    split = max(2, int(len(keys) * args.base_fraction))
    if not 0 < split < len(keys):
        raise QueryError(
            f"--base-fraction {args.base_fraction} leaves no records to stream"
        )
    config = IndexConfig(
        fit=FitConfig(degree=args.degree),
        segmentation=SegmentationConfig(delta=args.delta if args.delta else 1.0),
    )
    index = UpdatablePolyFitIndex.build(
        keys[:split],
        None if aggregate is Aggregate.COUNT else measures[:split],
        aggregate=aggregate,
        delta=args.delta,
        guarantee=Guarantee.absolute(args.eps_abs) if args.eps_abs else None,
        config=config,
        policy=CompactionPolicy(max_buffer=args.max_buffer, auto=True),
    )
    print(
        f"base: {split} records -> {index.num_segments} degree-{args.degree} "
        f"segments, certified bound +/-{index.certified_bound:g}, "
        f"compaction threshold {args.max_buffer}"
    )
    for start in range(split, len(keys), args.batch_size):
        stop = min(start + args.batch_size, len(keys))
        epoch_before = index.epoch
        index.insert(
            keys[start:stop],
            None if aggregate is Aggregate.COUNT else measures[start:stop],
        )
        low = float(keys[0] + 0.25 * (keys[stop - 1] - keys[0]))
        high = float(keys[0] + 0.75 * (keys[stop - 1] - keys[0]))
        probe = RangeQuery(low, high, aggregate)
        approx = index.estimate(probe)
        exact = index.exact(probe)
        compacted = " [compacted]" if index.epoch > epoch_before else ""
        print(
            f"ingested {stop}/{len(keys)}: buffer {index.buffer_size}, "
            f"epoch {index.epoch}, probe {aggregate.value}[{low:g}, {high:g}] "
            f"= {approx:g} (exact {exact:g}, |err| {abs(approx - exact):g})"
            f"{compacted}"
        )
    if index.compact():
        print("final compaction ran")
    print(
        f"done: {len(keys)} records, {index.epoch} epochs, "
        f"{index.num_segments} segments, payload "
        f"{index.size_in_bytes() / 1024:.2f} KiB"
    )
    return 0


def _command_fleet_build(args: argparse.Namespace) -> int:
    from .fleet import FleetPolicy, IndexFleet, save_fleet

    aggregate = Aggregate(args.aggregate)
    keys, measures = _ingest_records(args)
    config = IndexConfig(
        fit=FitConfig(degree=args.degree),
        segmentation=SegmentationConfig(delta=args.delta if args.delta else 1.0),
    )
    policy = FleetPolicy(
        max_keys=args.max_keys,
        merge_keys=args.merge_keys,
        auto=args.auto_rebalance,
        compaction=CompactionPolicy(max_buffer=args.max_buffer, auto=True),
    )
    splits = None
    if args.splits is not None:
        splits = [float(part) for part in args.splits.split(",") if part.strip()]
    fleet = IndexFleet.build(
        keys,
        None if aggregate is Aggregate.COUNT else measures,
        aggregate,
        delta=args.delta,
        guarantee=Guarantee.absolute(args.eps_abs) if args.eps_abs else None,
        config=config,
        policy=policy,
        splits=splits,
        num_partitions=args.num_partitions,
    )
    manifest = save_fleet(fleet, args.output_dir)
    print(
        f"built {aggregate.value} fleet: {fleet.num_partitions} partitions, "
        f"{fleet.num_keys} keys, {fleet.num_segments} segments, "
        f"delta={fleet.delta:g}, {fleet.size_in_bytes() / 1024:.2f} KiB "
        f"-> {manifest}"
    )
    return 0


def _command_fleet_stats(args: argparse.Namespace) -> int:
    import json as _json

    from .fleet import load_fleet

    fleet = load_fleet(args.fleet_dir)
    print(_json.dumps(fleet.stats(), indent=2))
    return 0


def _serve_index(args: argparse.Namespace):
    """The index to serve: a codec file, a fleet directory, or a synthetic
    updatable build."""
    if (args.index_file is None) == (args.synthetic is None):
        raise QueryError("provide exactly one of index_file or --synthetic N")
    if args.index_file is not None:
        from .fleet import is_fleet_dir, load_fleet

        if is_fleet_dir(args.index_file):
            # The fleet router stays serial here: the host's own num_shards
            # chunk-shards whole batches over the fleet snapshot, which
            # composes with the data-parallel fan-out without nesting pools.
            return load_fleet(
                args.index_file,
                verify=getattr(args, "verify", False),
                failure_policy=getattr(args, "failure_policy", "fail_fast"),
            )
        return load_index(args.index_file, verify=getattr(args, "verify", False))
    if args.synthetic < 4:
        raise QueryError("--synthetic needs at least 4 records")
    if (args.eps_abs is None) == (args.delta is None):
        raise QueryError("--synthetic needs exactly one of --eps-abs or --delta")
    aggregate = Aggregate(args.aggregate)
    rng = np.random.default_rng(args.seed)
    keys = np.cumsum(rng.uniform(0.1, 1.0, size=args.synthetic))
    measures = np.abs(100.0 + np.cumsum(rng.normal(0.0, 1.0, size=args.synthetic)))
    config = IndexConfig(
        fit=FitConfig(degree=args.degree),
        segmentation=SegmentationConfig(delta=args.delta if args.delta else 1.0),
    )
    # Updatable so the /insert and /compact endpoints work out of the box.
    return UpdatablePolyFitIndex.build(
        keys,
        None if aggregate is Aggregate.COUNT else measures,
        aggregate=aggregate,
        delta=args.delta,
        guarantee=Guarantee.absolute(args.eps_abs) if args.eps_abs else None,
        config=config,
    )


def build_serve_server(args: argparse.Namespace):
    """Wire up the (host, server) pair the ``serve`` subcommand runs.

    Factored out so tests (and embedders) can build the exact server the
    CLI would, without binding a socket or blocking on the event loop.
    """
    from .serve import EngineHost, ServeServer

    index = _serve_index(args)
    host = EngineHost(index, cache_size=args.cache_size, num_shards=args.num_shards)
    server = ServeServer(
        host,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        trace_sample_rate=getattr(args, "trace_sample_rate", 0.0),
        trace_seed=getattr(args, "trace_seed", None),
        slow_query_ms=getattr(args, "slow_query_ms", 250.0),
        log_format=getattr(args, "log_format", "plain"),
    )
    return host, server


def _command_serve(args: argparse.Namespace) -> int:
    host, server = build_serve_server(args)
    index = host.index
    source = args.index_file or f"--synthetic {args.synthetic}"
    print(
        f"serving {host.aggregate.value} index ({source}): "
        f"{getattr(index, 'num_segments', '?')} segments, "
        f"updatable={host.updatable}, "
        f"max batch {args.max_batch}, cache {args.cache_size}, "
        f"shards {args.num_shards}"
    )

    async def _run() -> None:
        await server.start(args.host, args.port)
        print(f"listening on http://{args.host}:{server.port} (ctrl-c to stop)")
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()
            stats = server.coalescer.stats
            print(
                f"drained: {stats.served} served in {stats.batches} batches "
                f"(mean batch {stats.mean_batch_size:.1f}), "
                f"{stats.rejected} rejected"
            )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _command_query_remote(args: argparse.Namespace) -> int:
    from .serve import query_remote, stats_remote

    if args.stats:
        import json as _json

        print(_json.dumps(
            stats_remote(args.url, timeout=args.timeout, retries=args.retries),
            indent=2,
        ))
        return 0
    if args.low is None or args.high is None:
        raise QueryError("provide low and high bounds (or --stats)")
    guarantee = None
    if args.eps_abs:
        guarantee = Guarantee.absolute(args.eps_abs)
    elif args.eps_rel:
        guarantee = Guarantee.relative(args.eps_rel)
    answer = query_remote(
        args.url, args.low, args.high,
        guarantee=guarantee, index=args.index, timeout=args.timeout,
        retries=args.retries, deadline_ms=args.deadline_ms,
    )
    bound = "n/a" if answer["error_bound"] is None else f"{answer['error_bound']:g}"
    partial = " [partial: degraded fleet read]" if answer.get("partial") else ""
    print(
        f"[{args.low:g}, {args.high:g}] = {answer['value']:g} "
        f"(guaranteed={answer['guaranteed']}, "
        f"exact_fallback={answer['exact_fallback']}, error_bound={bound}, "
        f"epoch={answer['epoch']}, batch_size={answer['batch_size']})"
        f"{partial}"
    )
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    from .serve import metrics_remote, request_json, slowlog_remote, traces_remote

    def fetch() -> str:
        import json as _json

        if args.slowlog:
            return _json.dumps(
                slowlog_remote(args.url, timeout=args.timeout), indent=2
            )
        if args.traces:
            return _json.dumps(
                traces_remote(args.url, timeout=args.timeout), indent=2
            )
        if args.json:
            return _json.dumps(
                request_json(args.url, "/metrics.json", timeout=args.timeout),
                indent=2,
            )
        return metrics_remote(args.url, timeout=args.timeout).rstrip("\n")

    if args.watch is None:
        print(fetch())
        return 0
    if args.watch <= 0:
        raise QueryError(f"--watch needs a positive interval, got {args.watch}")
    try:
        while True:
            print(fetch())
            print(flush=True)  # blank separator between refreshes
            time.sleep(args.watch)
    except KeyboardInterrupt:
        pass
    return 0


def _command_fsck(args: argparse.Namespace) -> int:
    from .fsck import fsck_path

    reports = [fsck_path(target) for target in args.targets]
    if args.json:
        import json as _json

        print(_json.dumps([report.to_payload() for report in reports], indent=2))
    else:
        for report in reports:
            status = "ok" if report.ok else "CORRUPT"
            print(
                f"{report.target}: {status} "
                f"({report.artifact}, {report.checked} objects checked)"
            )
            for issue in report.issues:
                print(f"  [{issue.kind}] {issue.path}: {issue.message}")
            for note in report.notes:
                print(f"  note: {note}")
    return 0 if all(report.ok for report in reports) else 1


_COMMANDS = {
    "build": _command_build,
    "query": _command_query,
    "info": _command_info,
    "ingest": _command_ingest,
    "fleet-build": _command_fleet_build,
    "fleet-stats": _command_fleet_stats,
    "serve": _command_serve,
    "query-remote": _command_query_remote,
    "metrics": _command_metrics,
    "fsck": _command_fsck,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
