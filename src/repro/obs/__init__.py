"""Observability layer: metrics registry, sampled tracing, slow-query log.

Dependency-free (stdlib + numpy) so it can instrument every layer of the
system — serving front, coalescer, engine host, result cache, shard pools,
fleet router, WAL, and compaction — without pulling a client library into
the hot path.  See ``docs/OBSERVABILITY.md`` for the metric catalogue.
"""

from repro.obs.metrics import (
    EXPOSITION_CONTENT_TYPE,
    DEFAULT_LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
    counter_family,
    exposed_metric_names,
    gauge_family,
    histogram_family,
    log_buckets,
    validate_exposition,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import Span, Trace, Tracer

__all__ = [
    "EXPOSITION_CONTENT_TYPE",
    "DEFAULT_LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "CounterFamily",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "counter_family",
    "exposed_metric_names",
    "gauge_family",
    "histogram_family",
    "log_buckets",
    "validate_exposition",
    "SlowQueryLog",
    "Span",
    "Trace",
    "Tracer",
]
