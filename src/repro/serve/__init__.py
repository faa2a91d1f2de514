"""Query serving: asyncio micro-batching in front of the batch engines.

The library's batch read path answers N queries 60-80x faster per query
than N scalar calls, but a server's clients issue scalar requests.  This
package turns one into the other:

* :class:`~repro.serve.coalescer.Coalescer` — group commit: queues
  concurrent requests per ``(index, guarantee)`` and flushes them as one
  vectorized ``query_batch`` call as soon as no flush of that queue is in
  flight, bit-identical to direct calls.
* :class:`~repro.serve.host.EngineHost` — pins epoch snapshots on
  updatable indexes and wires the cache/shard knobs.
* :class:`~repro.serve.http.ServeServer` — a dependency-free asyncio
  HTTP/JSON front (``/query``, ``/query_batch``, ``/stats``, ``/healthz``,
  plus write endpoints for updatable indexes).
* :mod:`~repro.serve.client` — blocking helpers for remote smoke tests
  (``repro query-remote``).

See ``benchmarks/bench_serve_latency.py`` for the latency/throughput
protocol and the coalesced-vs-naive gates.
"""

from .coalescer import Coalescer, CoalescerMetrics, CoalescerStats, ServedAnswer
from .host import EngineHost, HostMetrics, PinnedView
from .http import HttpMetrics, ServeServer
from .client import (
    health_remote,
    metrics_remote,
    query_batch_remote,
    query_remote,
    request_json,
    request_text,
    slowlog_remote,
    stats_remote,
    traces_remote,
)

__all__ = [
    "Coalescer",
    "CoalescerMetrics",
    "CoalescerStats",
    "ServedAnswer",
    "EngineHost",
    "HostMetrics",
    "PinnedView",
    "ServeServer",
    "HttpMetrics",
    "request_json",
    "request_text",
    "query_remote",
    "query_batch_remote",
    "stats_remote",
    "health_remote",
    "metrics_remote",
    "slowlog_remote",
    "traces_remote",
]
