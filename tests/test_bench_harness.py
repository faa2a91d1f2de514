"""Tests for the timing harness and reporting helpers."""

import pytest

from repro.bench import (
    MethodTiming,
    format_series,
    format_table,
    time_callable_ns,
    time_per_query_ns,
)
from repro.errors import QueryError


class TestTimePerQuery:
    def test_basic_measurement(self):
        calls = []
        timing = time_per_query_ns(calls.append, list(range(50)), repeats=2, method="noop")
        assert isinstance(timing, MethodTiming)
        assert timing.method == "noop"
        assert timing.per_query_ns > 0
        assert timing.total_queries == 50
        assert timing.repeats == 2
        # warmup + 2 repeats
        assert len(calls) == 150

    def test_no_warmup(self):
        calls = []
        time_per_query_ns(calls.append, [1, 2, 3], repeats=1, warmup=False)
        assert len(calls) == 3

    def test_slow_function_measured_higher(self):
        import time as _time

        fast = time_per_query_ns(lambda q: None, list(range(5)), repeats=1, warmup=False)
        slow = time_per_query_ns(lambda q: _time.sleep(0.001), list(range(5)),
                                 repeats=1, warmup=False)
        assert slow.per_query_ns > fast.per_query_ns

    def test_empty_workload_rejected(self):
        with pytest.raises(QueryError):
            time_per_query_ns(lambda q: None, [])

    def test_bad_repeats_rejected(self):
        with pytest.raises(QueryError):
            time_per_query_ns(lambda q: None, [1], repeats=0)


class TestTimeCallable:
    def test_returns_positive_time(self):
        assert time_callable_ns(lambda: sum(range(1000))) > 0

    def test_bad_repeats(self):
        with pytest.raises(QueryError):
            time_callable_ns(lambda: None, repeats=0)


class TestFormatting:
    def test_format_table_contains_all_cells(self):
        text = format_table(["method", "time"], [["PolyFit", 93], ["RMI", 578]],
                            title="Table V")
        assert "Table V" in text
        assert "PolyFit" in text and "578" in text

    def test_format_table_ragged_rows(self):
        text = format_table(["a", "b"], [[1], [1, 2]])
        assert "1" in text

    def test_format_series(self):
        text = format_series("eps", [50, 100], {"PolyFit": [1.0, 2.0], "RMI": [3.0, 4.0]})
        assert "eps" in text and "PolyFit" in text and "RMI" in text

    def test_float_formatting(self):
        text = format_table(["v"], [[0.0001234], [1234567.0], [1.5]])
        assert "e" in text  # scientific notation used for extremes
