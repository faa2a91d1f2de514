"""Benchmark harness utilities.

These helpers are shared by the driver modules in ``benchmarks/``: per-query
timing in nanoseconds, parameter sweeps, and plain-text table formatting that
mirrors the rows/series the paper reports.
"""

from .harness import (
    time_per_query_ns,
    time_batch_per_query_ns,
    time_callable_ns,
    sweep_shard_counts,
    MethodTiming,
)
from .reporting import format_table, format_series

__all__ = [
    "time_per_query_ns",
    "time_batch_per_query_ns",
    "time_callable_ns",
    "sweep_shard_counts",
    "MethodTiming",
    "format_table",
    "format_series",
]
