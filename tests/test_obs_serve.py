"""End-to-end observability tests over a live serving front.

Covers the telemetry surface as a client sees it: the Prometheus
``/metrics`` exposition (grammar + coverage), the ``/stats`` JSON staying a
view over the same instruments, sampled ``/traces`` timelines, the
``/slowlog`` ring, the JSON access log, and the ``repro metrics`` CLI.
"""

import asyncio
import io
import json

import numpy as np
import pytest

from repro import Aggregate, IndexFleet, PolyFitIndex, UpdatablePolyFitIndex
from repro.cli import main
from repro.obs.metrics import exposed_metric_names, validate_exposition
from repro.obs.tracing import Tracer
from repro.serve import (
    EngineHost,
    ServeServer,
    metrics_remote,
    query_batch_remote,
    query_remote,
    request_json,
    slowlog_remote,
    stats_remote,
    traces_remote,
)

DELTA = 50.0


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(41)
    return np.sort(rng.uniform(0.0, 1000.0, size=20_000))


@pytest.fixture(scope="module")
def index(keys):
    return PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=DELTA)


def with_server(make_hosts, scenario, **server_kwargs):
    """Run ``scenario(base_url, server)`` on a worker thread against a live server."""

    async def run():
        server = ServeServer(make_hosts(), **server_kwargs)
        await server.start(port=0)
        base_url = f"http://127.0.0.1:{server.port}"
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, scenario, base_url, server)
        finally:
            await server.stop()

    return asyncio.run(run())


class TestMetricsEndpoint:
    def test_exposition_valid_and_covers_all_layers(self, keys, tmp_path):
        def make_host():
            updatable = UpdatablePolyFitIndex.build(
                keys[:4000],
                aggregate=Aggregate.COUNT,
                delta=DELTA,
                wal_path=tmp_path / "metrics.wal",
            )
            updatable.insert(np.array([1.5, 2.5]))
            updatable.compact()
            return EngineHost(updatable, cache_size=16, num_shards=2)

        def scenario(url, _server):
            query_remote(url, 10.0, 500.0)
            query_remote(url, 10.0, 500.0)  # second identical => cache hit
            return metrics_remote(url)

        text = with_server(make_host, scenario)
        assert validate_exposition(text) == []
        names = set(exposed_metric_names(text))
        expected = {
            # serve layer
            "repro_http_requests_total",
            "repro_http_request_seconds",
            "repro_http_slow_queries_total",
            "repro_coalescer_submitted_total",
            "repro_coalescer_served_total",
            "repro_coalescer_batches_total",
            "repro_coalescer_queue_wait_seconds",
            "repro_coalescer_flush_seconds",
            "repro_coalescer_batch_size",
            "repro_host_pins_total",
            "repro_host_epoch",
            "repro_host_write_version",
            # cache
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_cache_entries",
            # shard fan-out
            "repro_shard_exec_seconds",
            # ingest / WAL
            "repro_wal_appends_total",
            "repro_wal_fsyncs_total",
            "repro_wal_fsync_seconds",
            "repro_compactions_total",
            "repro_compaction_seconds",
            "repro_compaction_trigger_buffer_size",
        }
        missing = expected - names
        assert not missing, f"families missing from /metrics: {sorted(missing)}"
        # Host families carry the index label.
        assert 'repro_host_pins_total{index="default"}' in text

    def test_metrics_json_snapshot(self, index):
        def scenario(url, _server):
            query_remote(url, 10.0, 500.0)
            return request_json(url, "/metrics.json")

        snap = with_server(lambda: EngineHost(index), scenario)
        assert snap["repro_http_requests_total"]["kind"] == "counter"
        latency = snap["repro_http_request_seconds"]["samples"]
        assert any("p99" in sample for sample in latency)


class TestStatsSingleSource:
    def test_stats_is_view_over_registry(self, index):
        def scenario(url, server):
            for _ in range(3):
                query_remote(url, 10.0, 500.0)
            stats = stats_remote(url)
            exposition = metrics_remote(url)
            return stats, exposition, server.coalescer.stats

        stats, text, live = with_server(lambda: EngineHost(index), scenario)
        coalescer = stats["coalescer"]
        assert coalescer["submitted"] == 3
        assert coalescer["served"] == 3
        # The exposition renders the exact same instrument values.
        assert "repro_coalescer_submitted_total 3" in text
        assert "repro_coalescer_served_total 3" in text
        assert live.submitted == 3
        assert stats["slow_queries"] == 0

    def test_cache_info_agrees_with_metrics(self, index):
        def scenario(url, _server):
            lows, highs = [10.0, 20.0], [500.0, 600.0]
            query_batch_remote(url, lows, highs)
            query_batch_remote(url, lows, highs)
            return stats_remote(url), metrics_remote(url)

        stats, text = with_server(
            lambda: EngineHost(index, cache_size=8), scenario
        )
        cache = stats["hosts"]["default"]["cache"]
        assert cache["hits"] == 1
        assert cache["misses"] == 1
        assert 'repro_cache_hits_total{index="default"} 1' in text
        assert 'repro_cache_misses_total{index="default"} 1' in text


class TestTracing:
    def test_traces_record_full_timeline(self, index):
        def scenario(url, _server):
            query_remote(url, 10.0, 500.0)
            return traces_remote(url)

        payload = with_server(
            lambda: EngineHost(index, cache_size=8),
            scenario,
            trace_sample_rate=1.0,
            trace_seed=1,
        )
        assert payload["sample_rate"] == 1.0
        assert payload["sampled_total"] == 1
        trace = payload["traces"][0]
        span_names = [span["name"] for span in trace["spans"]]
        assert span_names[:3] == ["queue_wait", "pin", "cache_probe"]
        assert "engine_exec" in span_names or "shard_exec" in span_names
        assert trace["attrs"]["index"] == "default"
        assert trace["attrs"]["batch_size"] >= 1

    @pytest.mark.parametrize(
        "make_host",
        [
            lambda index, keys: EngineHost(index),
            lambda index, keys: EngineHost(index, cache_size=8),
            lambda index, keys: EngineHost(index, num_shards=2),
            lambda index, keys: EngineHost(
                IndexFleet.build(keys, None, Aggregate.COUNT, delta=DELTA, num_partitions=3)
            ),
        ],
        ids=["plain", "cached", "sharded", "fleet"],
    )
    def test_traced_execute_bit_identical_to_untraced(self, index, keys, make_host):
        lows, highs = np.sort(np.random.default_rng(9).uniform(0.0, 1000.0, (2, 400)), axis=0)
        tracer = Tracer(sample_rate=1.0, seed=1)
        answers = []
        for traced in (False, True):
            host = make_host(index, keys)
            trace = tracer.start("execute") if traced else None
            answers.append(host.execute(host.pin(), (lows, highs), None, trace))
            host.close()
        assert trace is not None and trace.spans
        untraced, traced = answers
        direct = host.index.query_batch(lows, highs)
        for answer in (untraced, traced):
            assert np.array_equal(answer.values, direct.values)
            assert np.array_equal(answer.guaranteed, direct.guaranteed)
            assert np.array_equal(answer.exact_fallback, direct.exact_fallback)
            assert np.array_equal(answer.error_bounds, direct.error_bounds, equal_nan=True)

    def test_sampling_rate_respected_deterministically(self, index):
        def scenario(url, _server):
            for _ in range(40):
                query_remote(url, 10.0, 500.0)
            return traces_remote(url)

        payload_a = with_server(
            lambda: EngineHost(index), scenario,
            trace_sample_rate=0.25, trace_seed=7,
        )
        payload_b = with_server(
            lambda: EngineHost(index), scenario,
            trace_sample_rate=0.25, trace_seed=7,
        )
        assert 0 < payload_a["sampled_total"] < 40
        assert payload_a["sampled_total"] == payload_b["sampled_total"]

    def test_zero_rate_records_nothing(self, index):
        def scenario(url, _server):
            query_remote(url, 10.0, 500.0)
            return traces_remote(url)

        payload = with_server(lambda: EngineHost(index), scenario)
        assert payload["sampled_total"] == 0
        assert payload["traces"] == []


class TestSlowLogAndAccessLog:
    def test_slowlog_threshold_zero_catches_queries(self, index):
        def scenario(url, _server):
            query_remote(url, 10.0, 500.0)
            query_batch_remote(url, [10.0], [500.0])
            stats_remote(url)  # non-query endpoints never land in the slowlog
            return slowlog_remote(url), metrics_remote(url)

        slowlog, text = with_server(
            lambda: EngineHost(index), scenario, slow_query_ms=0.0
        )
        assert slowlog["total"] == 2
        endpoints = {entry["endpoint"] for entry in slowlog["entries"]}
        assert endpoints == {"/query", "/query_batch"}
        assert "repro_http_slow_queries_total 2" in text

    def test_high_threshold_records_nothing(self, index):
        def scenario(url, _server):
            query_remote(url, 10.0, 500.0)
            return slowlog_remote(url)

        slowlog = with_server(
            lambda: EngineHost(index), scenario, slow_query_ms=60_000.0
        )
        assert slowlog["total"] == 0

    def test_json_access_log(self, index):
        stream = io.StringIO()

        def scenario(url, _server):
            query_remote(url, 10.0, 500.0)
            stats_remote(url)

        with_server(
            lambda: EngineHost(index),
            scenario,
            log_format="json",
            log_stream=stream,
        )
        lines = [json.loads(line) for line in stream.getvalue().strip().splitlines()]
        assert len(lines) == 2
        query_line = lines[0]
        assert query_line["path"] == "/query"
        assert query_line["status"] == 200
        assert query_line["duration_ms"] >= 0
        assert query_line["epoch"] == 0
        assert query_line["batch_size"] >= 1
        assert lines[1]["path"] == "/stats"
        assert "batch_size" not in lines[1]

    def test_plain_format_logs_nothing(self, index):
        stream = io.StringIO()

        def scenario(url, _server):
            query_remote(url, 10.0, 500.0)

        with_server(
            lambda: EngineHost(index), scenario, log_stream=stream
        )
        assert stream.getvalue() == ""

    def test_invalid_log_format_rejected(self, index):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            ServeServer(EngineHost(index), log_format="xml")


class TestMetricsCli:
    def _serve_and_run(self, index, argv_builder):
        async def run():
            server = ServeServer(EngineHost(index), slow_query_ms=0.0)
            await server.start(port=0)
            url = f"http://127.0.0.1:{server.port}"
            loop = asyncio.get_running_loop()

            def scenario():
                query_remote(url, 10.0, 500.0)
                return main(argv_builder(url))

            try:
                return await loop.run_in_executor(None, scenario)
            finally:
                await server.stop()

        return asyncio.run(run())

    def test_metrics_command_prints_exposition(self, index, capsys):
        code = self._serve_and_run(index, lambda url: ["metrics", url])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE repro_http_requests_total counter" in out
        assert validate_exposition(out) == []

    def test_metrics_command_json(self, index, capsys):
        code = self._serve_and_run(index, lambda url: ["metrics", url, "--json"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert "repro_coalescer_served_total" in snap

    def test_metrics_command_slowlog(self, index, capsys):
        code = self._serve_and_run(index, lambda url: ["metrics", url, "--slowlog"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] >= 1

    def test_metrics_command_traces(self, index, capsys):
        code = self._serve_and_run(index, lambda url: ["metrics", url, "--traces"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traces"] == []  # sampling off on this server

    def test_serve_parser_accepts_observability_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "--synthetic", "1000", "--delta", "50",
                "--trace-sample-rate", "0.01", "--trace-seed", "3",
                "--slow-query-ms", "5", "--log-format", "json",
            ]
        )
        assert args.trace_sample_rate == 0.01
        assert args.trace_seed == 3
        assert args.slow_query_ms == 5.0
        assert args.log_format == "json"
        with pytest.raises(SystemExit):  # metrics are always on
            build_parser().parse_args(["serve", "--synthetic", "1000", "--no-instrument"])
