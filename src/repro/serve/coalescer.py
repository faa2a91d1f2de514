"""Request coalescing: scalar traffic in, vectorized batches out.

The batch read path answers a query inside a large batch far more cheaply
than a batch of one (a traced perfbench run reports both, as
``index.us_per_query`` and ``index.batch1_us_p50``), but end users issue
*scalar* requests.  :class:`Coalescer` converts one into the other with group
commit: concurrent requests accumulate in per-``(index, guarantee)``
queues, and a queue is flushed as **one** ``query_batch`` call as soon as
no flush of it is in flight; per-query answers are scattered back to
per-request futures.

Correctness invariant: every batch kernel in the library is
element-independent (evaluating a concatenation of workloads equals
concatenating their evaluations — the property the sharding layer already
relies on), and a queue only ever mixes requests with the *same* guarantee
against the *same* index, evaluated against the *same* pinned epoch view.
A coalesced answer is therefore bit-identical to calling ``query_batch``
directly with the request's bounds.

Operational behaviour:

* **Group commit** — the first submit to an idle queue starts a flusher
  task.  It yields one loop turn (so requests already readable on other
  connections join), then drains the queue slice after slice and exits
  once it is empty.  A lone request waits for no timer; under load the
  arrivals during one flush form the next batch.
* **Overflow splitting** — a flush drains the queue in ``max_batch``-sized
  slices, issuing one engine call per slice, back to back.
* **Admission control** — at most ``max_pending`` requests may be queued
  across all queues; beyond that :meth:`submit` fails fast with
  :class:`~repro.errors.ServerOverloadedError` (HTTP 503) instead of
  building an unbounded backlog.
* **Drain-then-stop** — :meth:`stop` rejects new submissions, flushes
  everything already accepted, and resolves every in-flight future before
  returning.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..errors import QueryError, ServerOverloadedError
from ..obs.metrics import SIZE_BUCKETS, counter_family, gauge_family, histogram_family
from ..obs.tracing import Trace, Tracer
from ..queries.types import Guarantee
from .host import EngineHost

__all__ = ["Coalescer", "CoalescerMetrics", "ServedAnswer", "CoalescerStats"]

#: Queue key: one coalescing stream per (index name, guarantee).
_QueueKey = tuple[str, Guarantee | None]

#: Queue entry: request bounds, its future, the perf-counter enqueue instant
#: (queue-wait measurement) and the request's sampled trace (usually None).
_QueueItem = tuple[tuple[float, ...], asyncio.Future, float, "Trace | None"]


class ServedAnswer(NamedTuple):
    """One scalar answer scattered out of a coalesced batch.

    Mirrors :class:`~repro.queries.types.QueryResult` plus serving metadata:
    the epoch/version of the pinned view that produced it and the size of
    the batch it rode in (1 when the request was alone in its queue).

    A NamedTuple rather than a dataclass: the scatter loop builds one per
    request on the serving hot path, and tuple construction is several
    times cheaper than frozen-dataclass ``__init__``.
    """

    value: float
    guaranteed: bool
    exact_fallback: bool
    error_bound: float | None
    epoch: int
    version: int
    batch_size: int
    #: True when the answer was computed around failed fleet partitions
    #: (degraded read: the certified bound is widened, see FleetRouter).
    partial: bool = False


@dataclass
class CoalescerStats:
    """Monotone counters exposed through the server's ``/stats`` endpoint."""

    submitted: int = 0
    served: int = 0
    rejected: int = 0
    failed: int = 0
    batches: int = 0
    ticks: int = 0
    max_batch_size: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average requests per engine call (the coalescing win)."""
        return self.served / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "served": self.served,
            "rejected": self.rejected,
            "failed": self.failed,
            "batches": self.batches,
            "ticks": self.ticks,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": round(self.mean_batch_size, 2),
        }


class CoalescerMetrics:
    """Per-coalescer instrument bundle (the single source of truth).

    :attr:`Coalescer.stats` is a *view* over these instruments, so the
    ``/stats`` JSON and the ``/metrics`` exposition can never disagree.
    Label-less children are pre-resolved once — the flush path touches
    plain ``Counter``/``Histogram`` objects, never the family dict.
    """

    def __init__(self) -> None:
        self._fam_submitted = counter_family(
            "repro_coalescer_submitted_total",
            "Scalar requests accepted into a coalescing queue.",
        )
        self._fam_served = counter_family(
            "repro_coalescer_served_total",
            "Requests answered out of a coalesced batch.",
        )
        self._fam_rejected = counter_family(
            "repro_coalescer_rejected_total",
            "Requests refused by admission control or shutdown.",
        )
        self._fam_failed = counter_family(
            "repro_coalescer_failed_total",
            "Requests failed by an engine error during their flush.",
        )
        self._fam_batches = counter_family(
            "repro_coalescer_batches_total",
            "Engine calls issued (one per flushed slice).",
        )
        self._fam_ticks = counter_family(
            "repro_coalescer_ticks_total",
            "Flusher passes: one per flushed slice, plus one per flusher "
            "that found its queue already drained.",
        )
        self._fam_pending = gauge_family(
            "repro_coalescer_pending",
            "Requests accepted but not yet answered.",
        )
        self._fam_max_batch = gauge_family(
            "repro_coalescer_max_batch_size",
            "Largest batch flushed so far.",
        )
        self._fam_queue_wait = histogram_family(
            "repro_coalescer_queue_wait_seconds",
            "Time a request spent queued before its flush began.",
        )
        self._fam_flush = histogram_family(
            "repro_coalescer_flush_seconds",
            "Engine-call latency of one flushed slice (pin to answer).",
        )
        self._fam_batch_size = histogram_family(
            "repro_coalescer_batch_size",
            "Requests per engine call (the coalescing win).",
            buckets=SIZE_BUCKETS,
        )
        self.submitted = self._fam_submitted.labels()
        self.served = self._fam_served.labels()
        self.rejected = self._fam_rejected.labels()
        self.failed = self._fam_failed.labels()
        self.batches = self._fam_batches.labels()
        self.ticks = self._fam_ticks.labels()
        self.pending = self._fam_pending.labels()
        self.max_batch_size = self._fam_max_batch.labels()
        self.queue_wait_seconds = self._fam_queue_wait.labels()
        self.flush_seconds = self._fam_flush.labels()
        self.batch_size = self._fam_batch_size.labels()

    def families(self) -> list:
        return [
            self._fam_submitted,
            self._fam_served,
            self._fam_rejected,
            self._fam_failed,
            self._fam_batches,
            self._fam_ticks,
            self._fam_pending,
            self._fam_max_batch,
            self._fam_queue_wait,
            self._fam_flush,
            self._fam_batch_size,
        ]


class Coalescer:
    """Collects concurrent scalar requests into vectorized batch calls.

    Parameters
    ----------
    hosts:
        Named :class:`~repro.serve.host.EngineHost` instances (or one host,
        registered under its own name).
    max_batch:
        Largest single engine call; a fuller queue is drained in slices.
    max_pending:
        Admission-control bound on queued requests across all queues.
    tracer:
        Optional sampled :class:`~repro.obs.tracing.Tracer`.  The sampling
        decision is made per request at :meth:`submit`; sampled requests
        carry a :class:`~repro.obs.tracing.Trace` through the queue and the
        flush, picking up queue-wait, pin and engine-side spans.
    """

    def __init__(
        self,
        hosts: Mapping[str, EngineHost] | EngineHost,
        *,
        max_batch: int = 8192,
        max_pending: int = 65536,
        tracer: Tracer | None = None,
    ) -> None:
        if isinstance(hosts, EngineHost):
            hosts = {hosts.name: hosts}
        if not hosts:
            raise QueryError("coalescer needs at least one host")
        if max_batch < 1:
            raise QueryError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise QueryError(f"max_pending must be >= 1, got {max_pending}")
        self._hosts = dict(hosts)
        self._max_batch = int(max_batch)
        self._max_pending = int(max_pending)
        self._queues: dict[_QueueKey, list[_QueueItem]] = {}
        self._flushers: dict[_QueueKey, asyncio.Task] = {}
        self._pending = 0
        self._closed = False
        self._obs = CoalescerMetrics()
        self._tracer = tracer

    @property
    def stats(self) -> CoalescerStats:
        """Counter view for ``/stats`` — reads the same instruments as
        ``/metrics``, so the two endpoints cannot drift apart."""
        obs = self._obs
        return CoalescerStats(
            submitted=int(obs.submitted.value),
            served=int(obs.served.value),
            rejected=int(obs.rejected.value),
            failed=int(obs.failed.value),
            batches=int(obs.batches.value),
            ticks=int(obs.ticks.value),
            max_batch_size=int(obs.max_batch_size.value),
        )

    @property
    def metrics(self) -> CoalescerMetrics:
        """The live instrument bundle (register via ``families()``)."""
        return self._obs

    def metrics_families(self) -> list:
        """Metric families for registry registration."""
        return self._obs.families()

    # ------------------------------------------------------------------ #
    # Submission (event-loop thread)
    # ------------------------------------------------------------------ #

    def submit(
        self,
        bounds: Sequence[float],
        guarantee: Guarantee | None = None,
        *,
        index: str = "default",
    ) -> "asyncio.Future[ServedAnswer]":
        """Enqueue one scalar request; the future resolves at its flush.

        ``bounds`` is ``(low, high)`` for 1-D hosts and ``(x_low, x_high,
        y_low, y_high)`` for 2-D hosts.  Malformed bounds, a NaN included,
        are rejected here, per request — never inside a flush, where one bad
        request would fail its whole batch.
        """
        if self._closed:
            self._obs.rejected.inc()
            raise ServerOverloadedError("server is shutting down")
        host = self._hosts.get(index)
        if host is None:
            raise QueryError(f"unknown index {index!r}")
        bounds = tuple(map(float, bounds))
        if len(bounds) != 2 * host.dims:
            raise QueryError(
                f"index {index!r} expects {2 * host.dims} bounds, got {len(bounds)}"
            )
        for low, high in zip(bounds[::2], bounds[1::2]):
            if not low <= high:  # also false for a NaN bound
                raise QueryError(f"invalid query range [{low}, {high}]")
        if self._pending >= self._max_pending:
            self._obs.rejected.inc()
            raise ServerOverloadedError(
                f"admission control: {self._pending} requests already pending "
                f"(max_pending={self._max_pending})"
            )
        key: _QueueKey = (index, guarantee)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        trace = (
            self._tracer.start(
                "query",
                index=index,
                guarantee=getattr(guarantee, "value", None),
            )
            if self._tracer is not None
            else None
        )
        self._queues.setdefault(key, []).append(
            (bounds, future, time.perf_counter(), trace)
        )
        self._pending += 1
        self._obs.submitted.inc()
        self._obs.pending.set(self._pending)
        flusher = self._flushers.get(key)
        if flusher is None or flusher.done():
            self._flushers[key] = asyncio.ensure_future(self._flush_loop(key))
        return future

    @property
    def pending(self) -> int:
        """Requests accepted but not yet answered."""
        return self._pending

    @property
    def closed(self) -> bool:
        """Whether :meth:`stop` has begun (new submissions are rejected)."""
        return self._closed

    @property
    def hosts(self) -> dict[str, EngineHost]:
        """The named hosts this coalescer serves (read-only view)."""
        return dict(self._hosts)

    # ------------------------------------------------------------------ #
    # Flushing
    # ------------------------------------------------------------------ #

    async def _flush_loop(self, key: _QueueKey) -> None:
        """Per-queue group-commit flusher: yield once, drain, exit.

        The single ``sleep(0)`` lets requests already readable on other
        connections join the first slice.  The empty-check-then-return path
        contains no await, so a submit can only interleave while this task
        is parked on that yield or inside a flush — both of which
        re-examine the queue afterwards; no request can be stranded.
        """
        await asyncio.sleep(0)
        if not self._queues[key]:  # drained by stop() meanwhile
            self._obs.ticks.inc()
            return
        await self._drain(key)

    async def _drain(self, key: _QueueKey) -> None:
        """Flush ``key``'s queue in ``max_batch`` slices until it is empty.

        Each slice is popped synchronously, so two drains of one queue (a
        flusher and :meth:`stop`) never double-serve a request.
        """
        queue = self._queues[key]
        while queue:
            batch = queue[:self._max_batch]
            del queue[:self._max_batch]
            self._obs.ticks.inc()
            await self._flush(key, batch)

    async def _flush(self, key: _QueueKey, batch: list[_QueueItem]) -> None:
        """Evaluate one slice as a single batch call and scatter the answers."""
        index_name, guarantee = key
        host = self._hosts[index_name]
        flush_start = time.perf_counter()
        self._obs.queue_wait_seconds.observe_many(
            [flush_start - enqueued for _, _, enqueued, _ in batch]
        )
        traces = [trace for _, _, _, trace in batch if trace is not None]
        for trace in traces:
            trace.attrs.setdefault("batch_size", len(batch))
        # One C-level conversion of the bounds tuples, then column views.
        bounds_matrix = np.array([bounds for bounds, _, _, _ in batch], dtype=np.float64)
        columns = tuple(
            np.ascontiguousarray(bounds_matrix[:, i])
            for i in range(2 * host.dims)
        )
        view = host.pin()  # on the loop: atomic w.r.t. writes
        pinned_at = time.perf_counter()
        for _, _, enqueued, trace in batch:
            if trace is not None:
                trace.add_span("queue_wait", enqueued, flush_start)
                trace.add_span("pin", flush_start, pinned_at, epoch=view.epoch)
        # Only the first sampled request carries the trace into the engine:
        # the whole slice shares one execute call, so the engine-side spans
        # (cache probe, fan-out, shard exec, merge) would be identical.
        lead_trace = traces[0] if traces else None
        loop = asyncio.get_running_loop()
        try:
            answer = await loop.run_in_executor(
                None, host.execute, view, columns, guarantee, lead_trace
            )
        except Exception as error:  # pragma: no cover - engine faults are rare
            self._pending -= len(batch)
            self._obs.pending.set(self._pending)
            self._obs.failed.inc(len(batch))
            self._finish_traces(traces, error=type(error).__name__)
            for _, future, _, _ in batch:
                if not future.done():
                    future.set_exception(error)
            return
        self._pending -= len(batch)
        self._obs.pending.set(self._pending)
        self._obs.batches.inc()
        self._obs.served.inc(len(batch))
        self._obs.max_batch_size.set_max(len(batch))
        self._obs.flush_seconds.observe(time.perf_counter() - flush_start)
        self._obs.batch_size.observe(len(batch))
        self._finish_traces(traces)
        size = len(batch)
        epoch, version = view.epoch, view.version
        # Bulk-convert the columns once (C loops) instead of indexing numpy
        # scalars per request — the scatter loop is the serving hot path.
        values = answer.values.tolist()
        guaranteed = answer.guaranteed.tolist()
        fallback = answer.exact_fallback.tolist()
        error_bounds = answer.error_bounds.tolist()
        degraded_column = getattr(answer, "degraded", None)
        degraded = (
            degraded_column.tolist() if degraded_column is not None else [False] * size
        )
        for i, (_, future, _, _) in enumerate(batch):
            if future.done():  # cancelled by the client
                continue
            bound = error_bounds[i]
            future.set_result(
                ServedAnswer(
                    values[i], guaranteed[i], fallback[i],
                    bound if bound == bound else None,  # NaN -> None
                    epoch, version, size, degraded[i],
                )
            )

    def _finish_traces(self, traces: list[Trace], error: str | None = None) -> None:
        if self._tracer is None:
            return
        for trace in traces:
            if error is not None:
                trace.attrs["error"] = error
            self._tracer.finish(trace)

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #

    async def stop(self) -> None:
        """Drain-then-stop: reject new work, answer everything accepted.

        Idempotent.  After it returns every previously returned future is
        resolved (with an answer or an engine error) and :meth:`submit`
        raises :class:`~repro.errors.ServerOverloadedError`.
        """
        self._closed = True
        # Drain directly instead of waiting for the flushers, which exit on
        # their own once their queues are empty.  Never cancel a flusher:
        # one caught mid-flush would abandon its batch's futures.
        for key in list(self._queues):
            await self._drain(key)
        flushers = [task for task in self._flushers.values() if not task.done()]
        await asyncio.gather(*flushers, return_exceptions=True)
        self._flushers.clear()
