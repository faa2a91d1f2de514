"""Asyncio HTTP/JSON front-end over the coalescing query engine.

A deliberately small HTTP/1.1 server on raw :func:`asyncio.start_server`
streams — no third-party web framework, so the serving layer runs anywhere
the library does (aiohttp-style frameworks add nothing here: the handlers
are four tiny JSON routes and the hot path is the coalescer, not the
parser).  Keep-alive is supported; request bodies are JSON.

Routes
------
``GET /healthz``
    Liveness: ``{"status": "ok", "hosts": {..}}`` where each host reports
    its epoch, write version, buffered-insert count and WAL lag (insert
    records since the last checkpoint seal — what a restart would replay).
``GET /stats``
    Coalescer counters, per-host epoch/version/cache info, uptime.  A JSON
    *view* over the same instruments ``/metrics`` exposes — the two can
    never disagree.
``GET /metrics``
    The full metrics registry in Prometheus text exposition format 0.0.4:
    HTTP, coalescer, host, cache, shard, fleet, WAL and compaction series.
``GET /slowlog``
    Recent requests slower than ``slow_query_ms``, newest last.
``GET /traces``
    Recently sampled query traces (see ``trace_sample_rate``): per-request
    span timelines (queue wait -> pin -> cache probe -> fan-out -> merge).
``POST /query``
    One scalar query ``{"low": .., "high": ..}`` (2-D: ``x_low``/``x_high``/
    ``y_low``/``y_high``), optional ``"index"`` and ``"guarantee":
    {"kind": "absolute"|"relative", "epsilon": ..}``.  Served through the
    coalescer — concurrent clients share one vectorized engine call.
``POST /query_batch``
    A whole workload ``{"lows": [..], "highs": [..]}`` in one call,
    bypassing the coalescer (it already *is* a batch); same cache and
    epoch pinning.
``POST /insert`` / ``POST /compact``
    Write endpoints for updatable indexes (404 on immutable hosts would be
    wrong — they return 400 with the library's NotSupported message).

Status codes: 400 malformed request, 404 unknown route/index, 503 admission
control / shutdown / expired deadline, 500 engine fault.  A query answered
*around* failed fleet partitions (degraded read, see
:class:`~repro.fleet.router.FleetRouter`) returns **206 Partial Content**:
the body is a normal answer whose certified bound was widened to cover the
missing partitions, with ``"partial": true`` so clients can tell.  Every 503
carries a ``Retry-After`` header (and ``retry_after_s`` in the JSON body) so
well-behaved clients back off instead of hammering an overloaded server.

Requests may set ``"deadline_ms"``: if the server cannot answer within that
budget the request fails with 503 rather than occupying a queue slot forever.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import time
from typing import Mapping, NamedTuple

import numpy as np

from ..errors import NotSupportedError, QueryError, ReproError, ServerOverloadedError
from ..obs.metrics import (
    EXPOSITION_CONTENT_TYPE,
    MetricsRegistry,
    counter_family,
    histogram_family,
)
from ..obs.slowlog import SlowQueryLog
from ..obs.tracing import Tracer
from ..queries.types import Guarantee
from .coalescer import Coalescer, ServedAnswer
from .host import EngineHost

__all__ = ["ServeServer", "HttpMetrics"]

_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Back-off hint attached to 503 responses that carry no explicit hint.
_DEFAULT_RETRY_AFTER_S = 0.1

#: Routes that get their own ``endpoint`` label value; anything else is
#: folded into ``"other"`` so junk paths cannot explode series cardinality.
_KNOWN_ENDPOINTS = frozenset(
    {
        "/healthz",
        "/stats",
        "/metrics",
        "/metrics.json",
        "/slowlog",
        "/traces",
        "/query",
        "/query_batch",
        "/insert",
        "/compact",
    }
)


class _RawText(NamedTuple):
    """A non-JSON response body (the ``/metrics`` exposition)."""

    content_type: str
    text: str


class HttpMetrics:
    """Front-door instruments: per-endpoint traffic, latency, slow queries."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.requests_total = counter_family(
            "repro_http_requests_total",
            "HTTP requests answered, by endpoint and status code.",
            ("endpoint", "status"),
            enabled=enabled,
        )
        self.request_seconds = histogram_family(
            "repro_http_request_seconds",
            "Wall time from routing a request to having its response body.",
            ("endpoint",),
            enabled=enabled,
        )
        self.slow_queries_total = counter_family(
            "repro_http_slow_queries_total",
            "Query requests that crossed the slow-query threshold.",
            enabled=enabled,
        )

    def families(self) -> list:
        return [
            family
            for family in (
                self.requests_total,
                self.request_seconds,
                self.slow_queries_total,
            )
            if getattr(family, "enabled", False)
        ]


def _parse_guarantee(payload: dict) -> Guarantee | None:
    """Build a :class:`Guarantee` from the optional request field."""
    spec = payload.get("guarantee")
    if spec is None:
        return None
    if not isinstance(spec, dict) or "kind" not in spec or "epsilon" not in spec:
        raise QueryError('guarantee must be {"kind": "absolute"|"relative", "epsilon": x}')
    kind = spec["kind"]
    epsilon = float(spec["epsilon"])
    if kind == "absolute":
        return Guarantee.absolute(epsilon)
    if kind == "relative":
        return Guarantee.relative(epsilon)
    raise QueryError(f"unknown guarantee kind {kind!r}")


def _scalar_bounds(payload: dict, dims: int) -> tuple[float, ...]:
    """Extract one request's bounds for a 1-D or 2-D host."""
    names = ("low", "high") if dims == 1 else ("x_low", "x_high", "y_low", "y_high")
    try:
        return tuple(float(payload[name]) for name in names)
    except KeyError as missing:
        raise QueryError(f"missing bound {missing.args[0]!r}") from None
    except (TypeError, ValueError):
        raise QueryError("bounds must be numbers") from None


def _batch_bounds(payload: dict, dims: int) -> tuple[np.ndarray, ...]:
    """Extract a workload's bound arrays for a 1-D or 2-D host."""
    names = ("lows", "highs") if dims == 1 else ("x_lows", "x_highs", "y_lows", "y_highs")
    try:
        columns = tuple(
            np.asarray(payload[name], dtype=np.float64) for name in names
        )
    except KeyError as missing:
        raise QueryError(f"missing bound array {missing.args[0]!r}") from None
    except (TypeError, ValueError):
        raise QueryError("bound arrays must be lists of numbers") from None
    sizes = {column.shape for column in columns}
    if len(sizes) != 1 or columns[0].ndim != 1 or columns[0].size == 0:
        raise QueryError("bound arrays must be equal-length non-empty lists")
    return columns


def _answer_payload(answer: ServedAnswer) -> dict:
    return {
        "value": answer.value,
        "guaranteed": answer.guaranteed,
        "exact_fallback": answer.exact_fallback,
        "error_bound": answer.error_bound,
        "epoch": answer.epoch,
        "version": answer.version,
        "batch_size": answer.batch_size,
        "partial": answer.partial,
    }


def _deadline_s(payload: dict) -> float | None:
    """Parse the optional per-request ``deadline_ms`` budget."""
    raw = payload.get("deadline_ms")
    if raw is None:
        return None
    try:
        deadline = float(raw)
    except (TypeError, ValueError):
        raise QueryError("deadline_ms must be a positive number") from None
    if not deadline > 0:
        raise QueryError("deadline_ms must be a positive number")
    return deadline / 1000.0


async def _within_deadline(awaitable, deadline: float | None):
    """Await with an optional budget; expiry becomes a retryable 503."""
    if deadline is None:
        return await awaitable
    try:
        return await asyncio.wait_for(awaitable, timeout=deadline)
    except asyncio.TimeoutError:
        raise ServerOverloadedError(
            f"deadline of {deadline * 1000:.0f}ms expired before the answer "
            f"was ready",
            retry_after_s=deadline,
        ) from None


class ServeServer:
    """The serving process: hosts + coalescer + HTTP listener.

    Parameters mirror the coalescer's; ``hosts`` is one
    :class:`EngineHost` or a name->host mapping.  Use :meth:`start` /
    :meth:`stop` (drain-then-stop) directly, or :meth:`serve_forever` from
    a CLI entry point.

    Observability knobs
    -------------------
    ``instrument``
        When False the server's own instruments (HTTP + coalescer) are
        no-ops and the registry exposes only whatever the hosts still
        record; pair with ``EngineHost(instrument=False)`` for a fully
        uninstrumented A/B baseline.
    ``trace_sample_rate`` / ``trace_capacity`` / ``trace_seed``
        Fraction of ``/query`` requests that record a span timeline, the
        ring size, and an optional seed for deterministic sampling.
    ``slow_query_ms``
        Query requests at or above this wall time land in ``/slowlog``.
    ``log_format`` / ``log_stream``
        ``"json"`` emits one access-log line per request (status, latency,
        epoch, batch size) to ``log_stream`` (default stdout); the default
        ``"plain"`` keeps the historical behaviour of logging nothing.
    """

    def __init__(
        self,
        hosts: Mapping[str, EngineHost] | EngineHost,
        *,
        max_batch: int = 8192,
        max_pending: int = 65536,
        instrument: bool = True,
        trace_sample_rate: float = 0.0,
        trace_capacity: int = 256,
        trace_seed: int | None = None,
        slow_query_ms: float = 250.0,
        log_format: str = "plain",
        log_stream=None,
    ) -> None:
        if log_format not in ("plain", "json"):
            raise QueryError(f"log_format must be 'plain' or 'json', got {log_format!r}")
        self.tracer = Tracer(
            sample_rate=trace_sample_rate,
            capacity=trace_capacity,
            seed=trace_seed,
        )
        self.coalescer = Coalescer(
            hosts,
            max_batch=max_batch,
            max_pending=max_pending,
            instrument=instrument,
            tracer=self.tracer,
        )
        self._hosts = self.coalescer.hosts
        self._server: asyncio.AbstractServer | None = None
        self._started_at = time.monotonic()
        self.requests_served = 0
        self.slowlog = SlowQueryLog(threshold_ms=slow_query_ms)
        self._log_format = log_format
        self._log_stream = log_stream
        self._obs = HttpMetrics(enabled=instrument)
        self.metrics = MetricsRegistry()
        self.metrics.register_all(self._obs.families())
        self.metrics.register_all(self.coalescer.metrics_families())
        self._refresh_host_families()

    def _refresh_host_families(self) -> None:
        """(Re-)register every host's families under its ``index`` label.

        Idempotent (the registry dedupes), and called again on each
        ``/metrics`` scrape so families created after startup — e.g. by a
        fleet partition split — are picked up without a restart.
        """
        for name, engine_host in self._hosts.items():
            self.metrics.register_all(
                engine_host.metrics_families(), {"index": name}
            )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's choice)."""
        if self._server is None or not self._server.sockets:
            raise QueryError("server is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self, host: str = "127.0.0.1", port: int = 8080) -> None:
        """Bind and start accepting connections."""
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(self._handle_connection, host, port)

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, then drain in-flight requests."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.coalescer.stop()
        for engine_host in self._hosts.values():
            engine_host.close()

    async def serve_forever(self, host: str = "127.0.0.1", port: int = 8080) -> None:
        """Start and serve until cancelled; drains on the way out."""
        await self.start(host, port)
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                started = time.perf_counter()
                status, payload = await self._route(method, path, body)
                duration = time.perf_counter() - started
                self.requests_served += 1
                self._observe_request(method, path, status, duration, payload)
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - client went away
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, dict, bytes] | None:
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, path, _ = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > _MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict | _RawText",
        keep_alive: bool,
    ) -> None:
        reasons = {200: "OK", 206: "Partial Content", 400: "Bad Request",
                   404: "Not Found", 500: "Internal Server Error",
                   503: "Service Unavailable"}
        if isinstance(payload, _RawText):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
            retry_header = ""
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
            retry_after = payload.get("retry_after_s")
            retry_header = (
                f"Retry-After: {max(0, math.ceil(retry_after))}\r\n"
                if isinstance(retry_after, (int, float))
                else ""
            )
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{retry_header}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Per-request observability (metrics, slow-query log, access log)
    # ------------------------------------------------------------------ #

    def _observe_request(
        self,
        method: str,
        path: str,
        status: int,
        duration: float,
        payload: "dict | _RawText",
    ) -> None:
        endpoint = path if path in _KNOWN_ENDPOINTS else "other"
        self._obs.requests_total.labels(endpoint=endpoint, status=str(status)).inc()
        self._obs.request_seconds.labels(endpoint=endpoint).observe(duration)
        if endpoint in ("/query", "/query_batch"):
            if self.slowlog.record(endpoint, duration, status=status):
                self._obs.slow_queries_total.inc()
        if self._log_format == "json":
            record: dict = {
                "ts": round(time.time(), 6),
                "method": method,
                "path": path,
                "status": status,
                "duration_ms": round(duration * 1e3, 3),
            }
            if isinstance(payload, dict):
                for field in ("epoch", "batch_size"):
                    if field in payload:
                        record[field] = payload[field]
            stream = self._log_stream if self._log_stream is not None else sys.stdout
            print(json.dumps(record), file=stream, flush=True)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> "tuple[int, dict | _RawText]":
        try:
            if method == "GET" and path == "/healthz":
                return 200, self._health_payload()
            if method == "GET" and path == "/stats":
                return 200, self._stats_payload()
            if method == "GET" and path == "/metrics":
                self._refresh_host_families()
                return 200, _RawText(EXPOSITION_CONTENT_TYPE, self.metrics.exposition())
            if method == "GET" and path == "/metrics.json":
                self._refresh_host_families()
                return 200, self.metrics.snapshot()
            if method == "GET" and path == "/slowlog":
                return 200, self.slowlog.as_dict()
            if method == "GET" and path == "/traces":
                return 200, {
                    "sample_rate": self.tracer.sample_rate,
                    "sampled_total": self.tracer.sampled_total,
                    "traces": self.tracer.payloads(),
                }
            if method != "POST" or path not in (
                "/query", "/query_batch", "/insert", "/compact"
            ):
                return 404, {"error": f"no route for {method} {path}"}
            try:
                payload = json.loads(body.decode() or "{}")
            except (json.JSONDecodeError, UnicodeDecodeError):
                return 400, {"error": "request body is not valid JSON"}
            if not isinstance(payload, dict):
                return 400, {"error": "request body must be a JSON object"}
            host = self._resolve_host(payload)
            if path == "/query":
                return await self._handle_query(host, payload)
            if path == "/query_batch":
                return await self._handle_query_batch(host, payload)
            if path == "/insert":
                return self._handle_insert(host, payload)
            return self._handle_compact(host)
        except ServerOverloadedError as error:
            retry_after = getattr(error, "retry_after_s", None)
            if retry_after is None:
                retry_after = _DEFAULT_RETRY_AFTER_S
            return 503, {"error": str(error), "retry_after_s": retry_after}
        except QueryError as error:
            if str(error).startswith("unknown index"):
                return 404, {"error": str(error)}
            return 400, {"error": str(error)}
        except ReproError as error:
            return 400, {"error": str(error)}
        except Exception as error:  # pragma: no cover - unexpected faults
            return 500, {"error": f"{type(error).__name__}: {error}"}

    def _resolve_host(self, payload: dict) -> EngineHost:
        name = payload.get("index", "default")
        host = self._hosts.get(name)
        if host is None:
            raise QueryError(f"unknown index {name!r}")
        return host

    def _health_payload(self) -> dict:
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "hosts": {
                name: host.health_info() for name, host in self._hosts.items()
            },
        }

    def _stats_payload(self) -> dict:
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "requests_served": self.requests_served,
            "pending": self.coalescer.pending,
            "coalescer": self.coalescer.stats.as_dict(),
            "slow_queries": self.slowlog.total,
            "hosts": {name: host.info() for name, host in self._hosts.items()},
        }

    async def _handle_query(self, host: EngineHost, payload: dict) -> tuple[int, dict]:
        guarantee = _parse_guarantee(payload)
        deadline = _deadline_s(payload)
        bounds = _scalar_bounds(payload, host.dims)
        answer = await _within_deadline(
            self.coalescer.submit(bounds, guarantee, index=host.name), deadline
        )
        return (206 if answer.partial else 200), _answer_payload(answer)

    async def _handle_query_batch(
        self, host: EngineHost, payload: dict
    ) -> tuple[int, dict]:
        guarantee = _parse_guarantee(payload)
        deadline = _deadline_s(payload)
        columns = _batch_bounds(payload, host.dims)
        view = host.pin()
        loop = asyncio.get_running_loop()
        answer = await _within_deadline(
            loop.run_in_executor(None, host.execute, view, columns, guarantee),
            deadline,
        )
        # One C-level conversion, then a NaN -> None pass over plain floats
        # (the coalescer's scatter idiom): per-element NumPy calls here
        # would cost milliseconds per body on the event-loop thread.
        bounds_list = [b if b == b else None for b in answer.error_bounds.tolist()]
        degraded_column = getattr(answer, "degraded", None)
        degraded = (
            degraded_column.tolist()
            if degraded_column is not None
            else [False] * answer.values.size
        )
        partial = any(degraded)
        body = {
            "values": answer.values.tolist(),
            "guaranteed": answer.guaranteed.tolist(),
            "exact_fallback": answer.exact_fallback.tolist(),
            "error_bounds": bounds_list,
            "epoch": view.epoch,
            "version": view.version,
            "partial": partial,
            "degraded": degraded,
            "failed_partitions": list(getattr(answer, "failed_partitions", ())),
        }
        return (206 if partial else 200), body

    def _handle_insert(self, host: EngineHost, payload: dict) -> tuple[int, dict]:
        keys = payload.get("keys")
        if not isinstance(keys, list) or not keys:
            raise QueryError('insert needs {"keys": [..]} (optional "measures")')
        measures = payload.get("measures")
        try:
            key_array = np.asarray(keys, dtype=np.float64)
            measure_array = (
                None if measures is None else np.asarray(measures, dtype=np.float64)
            )
        except (TypeError, ValueError):
            raise QueryError("keys and measures must be lists of numbers") from None
        inserted = host.insert(key_array, measure_array)
        return 200, {
            "inserted": inserted,
            "epoch": int(getattr(host.index, "epoch", 0)),
            "version": int(getattr(host.index, "version", 0)),
            "buffer_size": int(getattr(host.index, "buffer_size", 0)),
        }

    def _handle_compact(self, host: EngineHost) -> tuple[int, dict]:
        if not host.updatable:
            raise NotSupportedError(
                f"index {host.name!r} is immutable; compact requires an updatable index"
            )
        changed = host.compact()
        return 200, {
            "compacted": changed,
            "epoch": int(getattr(host.index, "epoch", 0)),
            "version": int(getattr(host.index, "version", 0)),
        }
