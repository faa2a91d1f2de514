"""Serving-layer failure handling: client retries, deadlines, partial reads.

Client retry logic is tested as pure arithmetic against a
:class:`~repro.testing.faults.FaultClock` (injected ``sleep``/``clock``/
``rng``), so backoff sequences, Retry-After hints and deadline caps are
asserted exactly.  The HTTP tests run a real server: a request whose
``deadline_ms`` cannot be met turns into a 503 that carries a
``Retry-After`` hint, and a query answered around a failed fleet partition
comes back as HTTP 206 with ``partial``/``degraded``/``failed_partitions``
in the payload while the widened bound still contains the truth.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import Aggregate, IndexFleet, PolyFitIndex
from repro.config import FitConfig, IndexConfig, SegmentationConfig
from repro.errors import QueryError, ServerOverloadedError
from repro.serve import EngineHost, ServeServer, query_batch_remote, query_remote
from repro.serve import client as client_module
from repro.serve.client import request_json
from repro.testing.faults import FaultClock, FlakyView

FAST = IndexConfig(fit=FitConfig(degree=1), segmentation=SegmentationConfig(delta=25.0))


# --------------------------------------------------------------------- #
# Client retry/backoff (no sockets: _request_once is stubbed)
# --------------------------------------------------------------------- #


class _Script:
    """A scripted transport: raises/returns each entry in order."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def __call__(self, base_url, path, payload, timeout):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


class TestClientRetry:
    def _run(self, monkeypatch, outcomes, **kwargs):
        script = _Script(outcomes)
        clock = FaultClock()
        monkeypatch.setattr(client_module, "_request_once", script)
        result = request_json(
            "http://x", "/query", {},
            sleep=clock.sleep, clock=clock.time, rng=random.Random(0),
            **kwargs,
        )
        return result, script, clock

    def test_retries_503_until_success(self, monkeypatch):
        ok = {"value": 1.0}
        result, script, clock = self._run(
            monkeypatch,
            [ServerOverloadedError("busy"), ServerOverloadedError("busy"), ok],
            retries=3, backoff_s=0.05, max_backoff_s=2.0,
        )
        assert result == ok and script.calls == 3
        assert len(clock.sleeps) == 2
        # Full jitter: the k-th sleep is within (0, backoff * 2**k].
        assert 0.0 <= clock.sleeps[0] <= 0.05
        assert 0.0 <= clock.sleeps[1] <= 0.10

    def test_server_retry_after_hint_wins(self, monkeypatch):
        ok = {"value": 1.0}
        _, _, clock = self._run(
            monkeypatch,
            [ServerOverloadedError("busy", retry_after_s=0.7), ok],
            retries=1,
        )
        assert clock.sleeps == [0.7]

    def test_connection_errors_retry(self, monkeypatch):
        ok = {"status": "ok"}
        result, script, _ = self._run(
            monkeypatch,
            [client_module._ConnectionFailed("cannot reach"), ok],
            retries=1,
        )
        assert result == ok and script.calls == 2

    def test_application_errors_never_retry(self, monkeypatch):
        script = _Script([QueryError("server returned 400: bad bounds")])
        clock = FaultClock()
        monkeypatch.setattr(client_module, "_request_once", script)
        with pytest.raises(QueryError):
            request_json("http://x", "/query", {}, retries=5,
                         sleep=clock.sleep, clock=clock.time)
        assert script.calls == 1 and clock.sleeps == []

    def test_retries_exhausted_reraises(self, monkeypatch):
        with pytest.raises(ServerOverloadedError):
            self._run(
                monkeypatch,
                [ServerOverloadedError("busy")] * 3,
                retries=2,
            )

    def test_deadline_caps_total_time(self, monkeypatch):
        # The hinted sleep would blow the deadline: re-raise instead.
        with pytest.raises(ServerOverloadedError):
            self._run(
                monkeypatch,
                [ServerOverloadedError("busy", retry_after_s=10.0), {"v": 1}],
                retries=5, deadline_s=1.0,
            )

    def test_zero_retries_by_default(self, monkeypatch):
        script = _Script([ServerOverloadedError("busy")])
        monkeypatch.setattr(client_module, "_request_once", script)
        with pytest.raises(ServerOverloadedError):
            request_json("http://x", "/query", {})
        assert script.calls == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(QueryError):
            request_json("http://x", "/query", {}, retries=-1)


# --------------------------------------------------------------------- #
# HTTP integration: deadlines, Retry-After, 206 partial reads
# --------------------------------------------------------------------- #


def _with_server(make_hosts, scenario, **server_kwargs):
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


def _raw_post(base_url, path, payload):
    """POST returning (status, headers, decoded body) without raising."""
    request = urllib.request.Request(
        base_url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", "Connection": "close"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _degraded_fleet():
    rng = np.random.default_rng(51)
    keys = np.sort(rng.uniform(0.0, 1000.0, size=4000))
    fleet = IndexFleet.build(
        keys, None, Aggregate.COUNT,
        delta=25.0, config=FAST, num_partitions=4, failure_policy="degrade",
    )
    snapshot = fleet.snapshot()  # cached: the host pins this same object
    router = snapshot._router
    flaky = FlakyView(router._views[1])
    router._views[1] = flaky
    router._engines[1] = flaky
    oracle = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT,
                                delta=25.0, config=FAST)
    return fleet, oracle


class TestHttpResilience:
    def test_deadline_expiry_is_503_with_retry_after(self):
        keys = np.sort(np.random.default_rng(3).uniform(0.0, 1000.0, 5000))
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT,
                                   delta=25.0, config=FAST)
        release = threading.Event()

        class SlowIndex:
            """Blocks every batch until the client has seen its 503."""

            def query_batch(self, lows, highs, guarantee=None):
                release.wait(timeout=10.0)
                return index.query_batch(lows, highs, guarantee)

        def scenario(url):
            # An engine call that outlasts the budget cannot serve a 10ms
            # deadline.
            try:
                return _raw_post(url, "/query",
                                 {"low": 0.0, "high": 10.0, "deadline_ms": 10})
            finally:
                release.set()

        status, headers, body = _with_server(
            lambda: EngineHost(SlowIndex()), scenario
        )
        assert status == 503
        assert "deadline" in body["error"]
        assert body["retry_after_s"] > 0
        assert int(headers["Retry-After"]) >= 1 or headers["Retry-After"] == "0"

    def test_bad_deadline_is_400(self):
        keys = np.sort(np.random.default_rng(3).uniform(0.0, 1000.0, 2000))
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT,
                                   delta=25.0, config=FAST)
        status, _, body = _with_server(
            lambda: EngineHost(index),
            lambda url: _raw_post(url, "/query",
                                  {"low": 0.0, "high": 1.0, "deadline_ms": -5}),
        )
        assert status == 400 and "deadline_ms" in body["error"]

    def test_degraded_scalar_query_is_206_partial(self):
        fleet, oracle = _degraded_fleet()

        def scenario(url):
            return _raw_post(url, "/query", {"low": 0.0, "high": 1000.0})

        status, _, body = _with_server(lambda: EngineHost(fleet), scenario)
        assert status == 206
        assert body["partial"] is True
        truth = float(oracle.exact_batch(np.array([0.0]), np.array([1000.0]))[0])
        assert abs(body["value"] - truth) <= body["error_bound"] + 1e-9

    def test_degraded_batch_query_surfaces_flags(self):
        fleet, oracle = _degraded_fleet()
        lows = [0.0, 100.0, 800.0]
        highs = [1000.0, 400.0, 900.0]

        def scenario(url):
            return _raw_post(url, "/query_batch", {"lows": lows, "highs": highs})

        status, _, body = _with_server(lambda: EngineHost(fleet), scenario)
        assert status == 206
        assert body["partial"] is True
        assert body["failed_partitions"] == [1]
        assert any(body["degraded"])
        truth = oracle.exact_batch(np.array(lows), np.array(highs))
        for value, bound, exact in zip(body["values"], body["error_bounds"], truth):
            if bound is not None and np.isfinite(bound):
                assert abs(value - exact) <= bound + 1e-9

    def test_healthy_answers_stay_200_with_partial_false(self):
        keys = np.sort(np.random.default_rng(5).uniform(0.0, 1000.0, 3000))
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT,
                                   delta=25.0, config=FAST)

        def scenario(url):
            scalar = _raw_post(url, "/query", {"low": 0.0, "high": 500.0})
            batch = _raw_post(url, "/query_batch",
                              {"lows": [0.0], "highs": [500.0]})
            return scalar, batch

        (s_status, _, s_body), (b_status, _, b_body) = _with_server(
            lambda: EngineHost(index), scenario
        )
        assert s_status == 200 and s_body["partial"] is False
        assert b_status == 200 and b_body["partial"] is False
        assert b_body["failed_partitions"] == []

    def test_client_retry_end_to_end_after_degraded_503(self):
        # Overload path: a server already stopped refuses connections; the
        # retrying client gives up with the typed connection error.
        with pytest.raises(QueryError, match="cannot reach"):
            query_remote("http://127.0.0.1:9", 0.0, 1.0, retries=2, timeout=0.2)

    def test_query_batch_remote_carries_deadline(self):
        keys = np.sort(np.random.default_rng(7).uniform(0.0, 1000.0, 3000))
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT,
                                   delta=25.0, config=FAST)
        body = _with_server(
            lambda: EngineHost(index),
            lambda url: query_batch_remote(
                url, [0.0, 10.0], [500.0, 20.0], deadline_ms=30000
            ),
        )
        assert len(body["values"]) == 2 and body["partial"] is False
