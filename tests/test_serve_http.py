"""HTTP front-end and CLI tests for the serving layer.

Each test runs a real ``ServeServer`` on an ephemeral port inside
``asyncio.run``; the blocking urllib client helpers run on executor
threads so the loop stays free to serve them.
"""

import asyncio

import numpy as np
import pytest

from repro import Aggregate, CompactionPolicy, Guarantee, PolyFitIndex, UpdatablePolyFitIndex
from repro.cli import build_parser, build_serve_server, main
from repro.errors import QueryError
from repro.queries.types import BatchQueryResult
from repro.serve import (
    EngineHost,
    ServeServer,
    health_remote,
    query_batch_remote,
    query_remote,
    request_json,
    stats_remote,
)

DELTA = 50.0


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(40)
    return np.sort(rng.uniform(0.0, 1000.0, size=20_000))


@pytest.fixture(scope="module")
def index(keys):
    return PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=DELTA)


def with_server(make_hosts, scenario, **server_kwargs):
    """Run ``scenario(base_url)`` on a worker thread against a live server."""

    async def run():
        server = ServeServer(make_hosts(), **server_kwargs)
        await server.start(port=0)
        base_url = f"http://127.0.0.1:{server.port}"
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, scenario, base_url)
        finally:
            await server.stop()

    return asyncio.run(run())


class TestEndpoints:
    def test_healthz(self, index):
        payload = with_server(
            lambda: EngineHost(index), lambda url: health_remote(url)
        )
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0
        host_health = payload["hosts"]["default"]
        assert host_health == {"epoch": 0, "version": 0}

    def test_healthz_updatable_reports_buffer_and_wal_lag(self, keys, tmp_path):
        def make_host():
            index = UpdatablePolyFitIndex.build(
                keys[:2000],
                aggregate=Aggregate.COUNT,
                delta=DELTA,
                wal_path=tmp_path / "health.wal",
            )
            index.insert(np.array([1.5, 2.5]))
            index.insert(np.array([3.5]))
            return EngineHost(index, name="live")

        payload = with_server(make_host, lambda url: health_remote(url))
        host_health = payload["hosts"]["live"]
        assert host_health["buffer_size"] == 3
        # WAL lag counts *records* (appends) since the last seal, not rows.
        assert host_health["wal_lag"] == 2
        assert host_health["epoch"] == 0
        assert host_health["version"] == 2

    def test_query_matches_direct_batch(self, index):
        direct = index.query_batch(np.array([100.0]), np.array([600.0]))

        payload = with_server(
            lambda: EngineHost(index),
            lambda url: query_remote(url, 100.0, 600.0),
        )
        assert payload["value"] == direct.values[0]
        assert payload["guaranteed"] is bool(direct.guaranteed[0])
        assert payload["exact_fallback"] is bool(direct.exact_fallback[0])
        assert payload["error_bound"] == direct.error_bounds[0]
        assert payload["batch_size"] >= 1

    def test_query_with_guarantee(self, index):
        guarantee = Guarantee.relative(0.05)
        direct = index.query_batch(
            np.array([100.0]), np.array([600.0]), guarantee
        )
        payload = with_server(
            lambda: EngineHost(index),
            lambda url: query_remote(url, 100.0, 600.0, guarantee=guarantee),
        )
        assert payload["value"] == direct.values[0]
        assert payload["guaranteed"] is True

    def test_query_batch_matches_direct(self, index):
        rng = np.random.default_rng(41)
        lows = rng.uniform(0, 500, size=64)
        highs = lows + rng.uniform(10, 400, size=64)
        direct = index.query_batch(lows, highs)
        payload = with_server(
            lambda: EngineHost(index),
            lambda url: query_batch_remote(url, lows, highs),
        )
        assert payload["values"] == direct.values.tolist()
        assert payload["guaranteed"] == direct.guaranteed.tolist()
        assert payload["exact_fallback"] == direct.exact_fallback.tolist()
        expected_bounds = [
            None if np.isnan(b) else float(b) for b in direct.error_bounds
        ]
        assert payload["error_bounds"] == expected_bounds

    def test_nan_error_bounds_encode_as_null(self, index):
        """An engine without certified bounds (NaN) answers ``null``."""

        class UnboundedIndex:
            def query_batch(self, lows, highs, guarantee=None):
                direct = index.query_batch(lows, highs, guarantee)
                return BatchQueryResult(
                    direct.values, direct.guaranteed, direct.exact_fallback
                )

        lows, highs = [10.0, 20.0, 30.0], [600.0, 700.0, 800.0]

        def scenario(url):
            return (
                query_batch_remote(url, lows, highs),
                query_remote(url, lows[0], highs[0]),
            )

        batch, scalar = with_server(lambda: EngineHost(UnboundedIndex()), scenario)
        direct = index.query_batch(np.array(lows), np.array(highs))
        assert batch["values"] == direct.values.tolist()
        assert batch["error_bounds"] == [None, None, None]
        assert scalar["value"] == direct.values[0]
        assert scalar["error_bound"] is None

    def test_stats_exposes_coalescer_and_cache(self, index):
        def scenario(url):
            lows, highs = [10.0, 20.0], [600.0, 700.0]
            query_batch_remote(url, lows, highs)
            query_batch_remote(url, lows, highs)  # second hits the cache
            query_remote(url, 10.0, 600.0)
            return stats_remote(url)

        stats = with_server(
            lambda: EngineHost(index, cache_size=8), scenario
        )
        assert stats["requests_served"] >= 3
        assert stats["coalescer"]["served"] == 1
        assert stats["coalescer"]["batches"] == 1
        cache = stats["hosts"]["default"]["cache"]
        assert cache["hits"] == 1
        assert cache["misses"] >= 1
        assert 0.0 <= cache["hit_rate"] <= 1.0
        assert stats["hosts"]["default"]["aggregate"] == "count"
        assert stats["uptime_s"] >= 0.0

    def test_multiple_named_hosts(self, index, keys):
        sums = PolyFitIndex.build(
            keys, np.ones_like(keys), aggregate=Aggregate.SUM, delta=DELTA
        )

        def scenario(url):
            counted = query_remote(url, 100.0, 900.0, index="counts")
            summed = query_remote(url, 100.0, 900.0, index="sums")
            return counted, summed

        counted, summed = with_server(
            lambda: {"counts": EngineHost(index, name="counts"),
                     "sums": EngineHost(sums, name="sums")},
            scenario,
        )
        assert counted["value"] == index.query_batch(
            np.array([100.0]), np.array([900.0])
        ).values[0]
        assert summed["value"] == sums.query_batch(
            np.array([100.0]), np.array([900.0])
        ).values[0]


class TestWritePath:
    @staticmethod
    def make_updatable(keys):
        return EngineHost(
            UpdatablePolyFitIndex.build(
                keys,
                aggregate=Aggregate.COUNT,
                delta=DELTA,
                policy=CompactionPolicy(auto=False),
            )
        )

    def test_insert_then_query_then_compact(self, keys):
        exact = Guarantee.relative(1e-9)  # forces exact fallback answers

        def scenario(url):
            before = query_remote(url, 400.0, 600.0, guarantee=exact)
            inserted = request_json(url, "/insert", {"keys": [500.0] * 5})
            after = query_remote(url, 400.0, 600.0, guarantee=exact)
            compacted = request_json(url, "/compact", {})
            settled = query_remote(url, 400.0, 600.0, guarantee=exact)
            return before, inserted, after, compacted, settled

        before, inserted, after, compacted, settled = with_server(
            lambda: self.make_updatable(keys), scenario
        )
        assert inserted["inserted"] == 5
        assert inserted["buffer_size"] == 5
        assert after["value"] == before["value"] + 5.0
        assert after["version"] > before["version"]
        assert compacted["compacted"] is True
        assert compacted["epoch"] == before["epoch"] + 1
        assert settled["value"] == after["value"]
        assert settled["epoch"] == compacted["epoch"]

    def test_writes_rejected_on_immutable_host(self, index):
        def scenario(url):
            with pytest.raises(QueryError) as insert_error:
                request_json(url, "/insert", {"keys": [1.0]})
            with pytest.raises(QueryError) as compact_error:
                request_json(url, "/compact", {})
            return str(insert_error.value), str(compact_error.value)

        insert_message, compact_message = with_server(
            lambda: EngineHost(index), scenario
        )
        assert "400" in insert_message and "immutable" in insert_message
        assert "400" in compact_message and "immutable" in compact_message


class TestErrorMapping:
    def test_unknown_route_is_404(self, index):
        def scenario(url):
            with pytest.raises(QueryError) as error:
                request_json(url, "/nope", {})
            return str(error.value)

        message = with_server(lambda: EngineHost(index), scenario)
        assert "404" in message

    def test_unknown_index_is_404(self, index):
        def scenario(url):
            with pytest.raises(QueryError) as error:
                query_remote(url, 1.0, 2.0, index="missing")
            return str(error.value)

        message = with_server(lambda: EngineHost(index), scenario)
        assert "404" in message and "unknown index" in message

    def test_bad_json_is_400(self, index):
        import urllib.error
        import urllib.request

        def scenario(url):
            request = urllib.request.Request(
                url + "/query",
                data=b"this is not json",
                headers={"Content-Type": "application/json",
                         "Connection": "close"},
                method="POST",
            )
            try:
                urllib.request.urlopen(request, timeout=10.0)
            except urllib.error.HTTPError as error:
                return error.code
            return None

        assert with_server(lambda: EngineHost(index), scenario) == 400

    def test_malformed_requests_are_400(self, index):
        def scenario(url):
            codes = []
            for payload in (
                {"low": 10.0},  # missing high
                {"low": 10.0, "high": 5.0},  # inverted
                {"low": "x", "high": "y"},  # non-numeric
                {"low": 1.0, "high": 2.0,
                 "guarantee": {"kind": "weird", "epsilon": 1.0}},
            ):
                with pytest.raises(QueryError) as error:
                    request_json(url, "/query", payload)
                codes.append("400" in str(error.value))
            with pytest.raises(QueryError) as error:
                request_json(url, "/query_batch", {"lows": [1.0], "highs": []})
            codes.append("400" in str(error.value))
            return codes

        assert all(with_server(lambda: EngineHost(index), scenario))


class TestCLI:
    def test_serve_args_parse(self):
        args = build_parser().parse_args(
            ["serve", "--synthetic", "5000", "--delta", "50",
             "--cache-size", "16", "--port", "0"]
        )
        assert args.command == "serve"
        assert args.synthetic == 5000
        assert args.cache_size == 16

    def test_build_serve_server_synthetic(self):
        args = build_parser().parse_args(
            ["serve", "--synthetic", "5000", "--delta", "50",
             "--cache-size", "4"]
        )
        host, server = build_serve_server(args)
        assert host.updatable
        assert server.coalescer.hosts["default"] is host
        direct = host.index.query_batch(np.array([0.0]), np.array([1e18]))
        assert direct.values[0] >= 0.0

    def test_build_serve_server_requires_one_budget(self):
        args = build_parser().parse_args(["serve", "--synthetic", "100"])
        with pytest.raises(QueryError):
            build_serve_server(args)

    def test_build_serve_server_rejects_two_sources(self):
        args = build_parser().parse_args(
            ["serve", "some.json", "--synthetic", "100", "--delta", "50"]
        )
        with pytest.raises(QueryError):
            build_serve_server(args)

    def test_query_remote_command_end_to_end(self, index, capsys):
        async def run():
            server = ServeServer(EngineHost(index))
            await server.start(port=0)
            url = f"http://127.0.0.1:{server.port}"
            loop = asyncio.get_running_loop()
            try:
                codes = []
                codes.append(await loop.run_in_executor(
                    None, main, ["query-remote", url, "100", "600"]
                ))
                codes.append(await loop.run_in_executor(
                    None, main, ["query-remote", url, "--stats"]
                ))
                return codes
            finally:
                await server.stop()

        codes = asyncio.run(run())
        assert codes == [0, 0]
        output = capsys.readouterr().out
        assert "[100, 600] =" in output
        assert "batch_size=" in output
        assert '"coalescer"' in output  # the --stats JSON dump
