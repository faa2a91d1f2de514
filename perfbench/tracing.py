"""Span recording around the library's public calls, and span analysis.

The benchmark measures layers from outside the program: :func:`install`
replaces a fixed set of methods on the library's classes with wrappers
that record one span per call — ``(id, parent, name, start, end, attrs)``
on the ``time.perf_counter`` clock, which on Linux is the system-wide
monotonic clock, so server spans and client round trips share a time base.

Parents follow a :mod:`contextvars` variable.  Coroutines of one
connection share their task's context, and the launcher gives the event
loop an executor that runs each job in a copy of the submitting context,
so engine calls on worker threads nest under the flush or request that
issued them.

The launcher uses the wrapping half (:func:`install`); ``run.py`` uses the
analysis half (:func:`load_spans`, :func:`self_times`, :func:`layer_table`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor

#: Id of the span the current code runs under (None at a root).
_PARENT: contextvars.ContextVar = contextvars.ContextVar("bench_parent", default=None)
#: Client-assigned request id of the HTTP request being handled.
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("bench_request", default=None)


class ContextExecutor(ThreadPoolExecutor):
    """Thread pool that runs every job inside a copy of the caller's context."""

    def submit(self, fn, /, *args, **kwargs):
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)


class Recorder:
    """The spans recorded in one server process.

    ``list.append`` and ``next`` on a counter are atomic under the GIL, so
    worker threads record without a lock.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        #: Coalescer future id -> (parent span id, submit instant).
        self.submitted: dict[int, tuple] = {}

    def new_id(self) -> int:
        return next(self._ids)

    def record(self, name, parent, start, end, attrs=None, span_id=None) -> None:
        self.spans.append((span_id or self.new_id(), parent, name, start, end, attrs))

    def dump(self, path) -> int:
        """Write every recorded span as one JSON object per line."""
        spans = list(self.spans)
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, attrs in spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start": start, "end": end, "attrs": attrs or {}}))
                handle.write("\n")
        return len(spans)


def _wrap_sync(recorder: Recorder, func, name, attrs_of=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span_id = recorder.new_id()
        parent = _PARENT.get()
        token = _PARENT.set(span_id)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _PARENT.reset(token)
        attrs = attrs_of(args, result) if attrs_of is not None else None
        recorder.record(name, parent, start, end, attrs, span_id)
        return result

    return wrapper


def _query_batch_attrs(args, result):
    aggregate = getattr(args[0], "aggregate", None)
    return {"n": int(result.values.size), "fallback": int(result.exact_fallback.sum()),
            "agg": getattr(aggregate, "value", None)}


def _estimate_attrs(args, result):
    aggregate = getattr(args[0], "aggregate", None)
    return {"n": int(len(args[1])), "agg": getattr(aggregate, "value", None)}


def _plan_attrs(args, result):
    plans = result[2]
    return {"n": int(len(args[1])),
            "pairs": int(sum(plan.query_indices.size for plan in plans))}


def _probe_attrs(args, result):
    return {"hit": result is not None}


def _insert_attrs(args, result):
    return {"n": int(result)}


def install() -> Recorder:
    """Wrap the serving, engine, fleet and stream entry points; the
    returned recorder collects their spans."""
    from repro import (
        DirectoryOverlay,
        FleetRouter,
        PolyFit2DIndex,
        PolyFitIndex,
        UpdatablePolyFitIndex,
    )
    from repro.queries.cache import ResultCache
    from repro.serve.coalescer import Coalescer
    from repro.serve.host import EngineHost
    from repro.serve.http import ServeServer
    from repro.stream.wal import WriteAheadLog

    recorder = Recorder()
    sync_targets = [
        (EngineHost, "pin", "serve.host.pin", None),
        (EngineHost, "execute", "serve.host.execute", None),
        (ResultCache, "get", "queries.cache.probe", _probe_attrs),
        (PolyFitIndex, "query_batch", "index.query_batch", _query_batch_attrs),
        (PolyFitIndex, "estimate_batch", "index.estimate_batch", _estimate_attrs),
        (PolyFitIndex, "exact_batch", "index.exact_batch", _estimate_attrs),
        (DirectoryOverlay, "query_batch", "index.query_batch", _query_batch_attrs),
        (DirectoryOverlay, "estimate_batch", "overlay.estimate_batch", _estimate_attrs),
        (DirectoryOverlay, "exact_batch", "overlay.exact_batch", _estimate_attrs),
        (PolyFit2DIndex, "query_batch", "index2d.query_batch", _query_batch_attrs),
        (FleetRouter, "query_batch", "fleet.query_batch", _query_batch_attrs),
        (FleetRouter, "plan", "fleet.plan", _plan_attrs),
        (UpdatablePolyFitIndex, "insert", "stream.insert", _insert_attrs),
        (UpdatablePolyFitIndex, "compact", "stream.compact", None),
        (UpdatablePolyFitIndex, "snapshot", "stream.snapshot", None),
        (WriteAheadLog, "append_insert", "stream.wal.append", None),
    ]
    # functools.wraps keeps the signatures inspectable: EngineHost reads
    # the query_batch signature to learn a host's key arity.
    for cls, attr, name, attrs_of in sync_targets:
        setattr(cls, attr, _wrap_sync(recorder, getattr(cls, attr), name, attrs_of))
    _wrap_server(recorder, ServeServer)
    _wrap_coalescer(recorder, Coalescer)
    return recorder


def _wrap_server(recorder: Recorder, server_cls) -> None:
    read_request = server_cls._read_request
    route = server_cls._route
    write_response = server_cls._write_response

    async def _read(reader):
        request = await read_request(reader)
        if request is not None:
            _REQUEST.set(request[2].get("x-bench-id"))
        return request

    async def _route(self, method, path, body):
        span_id = recorder.new_id()
        token = _PARENT.set(span_id)
        start = time.perf_counter()
        try:
            result = await route(self, method, path, body)
        finally:
            end = time.perf_counter()
            _PARENT.reset(token)
        recorder.record("serve.http.route", None, start, end,
                        {"path": path, "req": _REQUEST.get()}, span_id)
        return result

    async def _write(writer, status, payload, keep_alive):
        start = time.perf_counter()
        await write_response(writer, status, payload, keep_alive)
        recorder.record("serve.http.write", None, start, time.perf_counter(),
                        {"req": _REQUEST.get()})

    server_cls._read_request = staticmethod(_read)
    server_cls._route = _route
    server_cls._write_response = staticmethod(_write)


def _wrap_coalescer(recorder: Recorder, coalescer_cls) -> None:
    submit = coalescer_cls.submit
    flush = coalescer_cls._flush

    def _submit(self, bounds, guarantee=None, *, index="default"):
        start = time.perf_counter()
        future = submit(self, bounds, guarantee, index=index)
        end = time.perf_counter()
        recorder.record("serve.coalescer.submit", _PARENT.get(), start, end)
        recorder.submitted[id(future)] = (_PARENT.get(), end)
        return future

    async def _flush(self, key, batch):
        # The flusher task inherited the context of whichever request
        # started it; a flush belongs to no single request, so it is a root.
        span_id = recorder.new_id()
        token_parent = _PARENT.set(span_id)
        token_request = _REQUEST.set(None)
        start = time.perf_counter()
        for _, future, _, _ in batch:
            parent, submitted = recorder.submitted.pop(id(future), (None, start))
            recorder.record("serve.coalescer.wait", parent, submitted, start)
        try:
            await flush(self, key, batch)
        finally:
            end = time.perf_counter()
            _PARENT.reset(token_parent)
            _REQUEST.reset(token_request)
        recorder.record("serve.coalescer.flush", None, start, end, {"n": len(batch)}, span_id)

    coalescer_cls.submit = _submit
    coalescer_cls._flush = _flush


# ---------------------------------------------------------------------- #
# Analysis (client side)
# ---------------------------------------------------------------------- #


def load_spans(path, window: tuple[float, float]) -> list[dict]:
    """Spans that started inside ``window`` (the timed phase)."""
    spans = []
    with open(path) as handle:
        for line in handle:
            span = json.loads(line)
            if window[0] <= span["start"] <= window[1]:
                spans.append(span)
    return spans


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out[span["id"]] = max(0.0, end - start - covered)
    return out


def layer_table(spans: list[dict], selfs: dict[int, float], requests: int,
                rtt_total_s: float) -> list[dict]:
    """Per span name: calls, busy and self time, and self time's share of RTT."""
    rows: dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(span["name"], {"layer": span["name"], "calls": 0,
                                             "busy_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["busy_ms"] += (span["end"] - span["start"]) * 1e3
        row["self_ms"] += selfs[span["id"]] * 1e3
    table = sorted(rows.values(), key=lambda row: -row["self_ms"])
    for row in table:
        row["self_ms_per_request"] = row["self_ms"] / max(requests, 1)
        row["share_of_rtt"] = row["self_ms"] / 1e3 / rtt_total_s if rtt_total_s else 0.0
    return table
