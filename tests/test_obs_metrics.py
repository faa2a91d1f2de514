"""Metrics registry unit tests: instruments, exposition grammar, threading.

The exposition tests check the Prometheus text-format 0.0.4 rules the
scraping ecosystem actually enforces — escaping, TYPE declarations,
cumulative histogram buckets — both through the library's own
``validate_exposition`` checker and with direct string assertions so the
checker itself cannot paper over a regression.
"""

import math
import threading

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    EXPOSITION_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_family,
    exposed_metric_names,
    log_buckets,
    validate_exposition,
)


class TestInstruments:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_counter_reset(self):
        counter = Counter()
        counter.inc(7)
        counter.reset()
        assert counter.value == 0.0

    def test_gauge_set_inc_dec_max(self):
        gauge = Gauge()
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec(3.0)
        assert gauge.value == 4.0
        gauge.set_max(2.0)
        assert gauge.value == 4.0
        gauge.set_max(9.0)
        assert gauge.value == 9.0

    def test_log_buckets_geometric(self):
        buckets = log_buckets(1e-3, 1.0, 4)
        assert buckets[0] == 1e-3
        assert buckets[-1] == 1.0
        ratios = [b2 / b1 for b1, b2 in zip(buckets, buckets[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-6) for r in ratios)
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0, 4)

    def test_histogram_bucket_boundaries_are_le(self):
        # le-semantics: a value exactly on a bound lands in that bucket.
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 2.0, 3.0, 100.0):
            hist.observe(value)
        cumulative = hist.cumulative_counts()
        assert cumulative == [(1.0, 2), (2.0, 3), (4.0, 4), (math.inf, 5)]
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.5)

    def test_histogram_observe_many_matches_scalar(self):
        rng = np.random.default_rng(3)
        # Short inputs loop observe(); long ones bin with NumPy: both paths,
        # fed arrays and lists, must land exactly where scalar calls do.
        for size in (0, 1, 2, 1000):
            values = rng.uniform(0.0, 5.0, size=size)
            for batch in (values, values.tolist()):
                scalar = Histogram(buckets=(1.0, 2.0, 4.0))
                vector = Histogram(buckets=(1.0, 2.0, 4.0))
                for v in values:
                    scalar.observe(v)
                vector.observe_many(batch)
                assert scalar.cumulative_counts() == vector.cumulative_counts()
                assert scalar.count == vector.count == size
                assert scalar.sum == pytest.approx(vector.sum)
                # p99 interpolates into the overflow bucket up to the max.
                assert scalar.percentile(99) == pytest.approx(vector.percentile(99))

    def test_histogram_percentiles(self):
        hist = Histogram(buckets=tuple(float(b) for b in range(1, 101)))
        hist.observe_many(np.arange(1, 101, dtype=np.float64))
        result = hist.percentiles()
        assert set(result) == {"p50", "p95", "p99"}
        assert result["p50"] == pytest.approx(50.0, abs=1.0)
        assert result["p99"] == pytest.approx(99.0, abs=1.0)

    def test_histogram_percentile_overflow_clamps_to_max(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(123.0)
        assert hist.percentile(99) <= 123.0

    def test_default_buckets_span_micro_to_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-5)
        assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0


class TestFamilies:
    def test_labeled_family_children(self):
        fam = counter_family("t_requests_total", "help", ("route",))
        fam.labels(route="/a").inc()
        fam.labels(route="/a").inc()
        fam.labels(route="/b").inc()
        assert fam.labels(route="/a").value == 2
        assert fam.labels(route="/b").value == 1
        with pytest.raises(ValueError):
            fam.labels(wrong="x")

    def test_labelless_family_proxies_instrument(self):
        fam = counter_family("t_plain_total", "help")
        fam.inc(3)
        assert fam.value == 3

    def test_labeled_family_rejects_proxy(self):
        fam = counter_family("t_lab_total", "help", ("x",))
        with pytest.raises(ValueError):
            fam.inc()

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            counter_family("0bad", "help")
        with pytest.raises(ValueError):
            counter_family("ok_total", "help", ("0bad",))
        with pytest.raises(ValueError):
            counter_family("ok_total", "help", ("__reserved",))


class TestRegistryExposition:
    def test_content_type_constant(self):
        assert "version=0.0.4" in EXPOSITION_CONTENT_TYPE

    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_hits_total", "Cache hits.")
        gauge = registry.gauge("t_entries", "Entries.")
        counter.inc(3)
        gauge.set(7)
        text = registry.exposition()
        assert "# HELP t_hits_total Cache hits." in text
        assert "# TYPE t_hits_total counter" in text
        assert "t_hits_total 3" in text
        assert "# TYPE t_entries gauge" in text
        assert "t_entries 7" in text
        assert validate_exposition(text) == []

    def test_histogram_exposition_shape(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.exposition()
        assert 't_lat_seconds_bucket{le="0.1"} 1' in text
        assert 't_lat_seconds_bucket{le="1"} 2' in text
        assert 't_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "t_lat_seconds_count 3" in text
        assert validate_exposition(text) == []

    def test_help_and_label_escaping(self):
        registry = MetricsRegistry()
        fam = registry.counter(
            "t_esc_total", 'tricky help with \\ backslash\nand newline', ("who",)
        )
        fam.labels(who='quote " backslash \\ newline \n end').inc()
        text = registry.exposition()
        assert "# HELP t_esc_total tricky help with \\\\ backslash\\nand newline" in text
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert validate_exposition(text) == []

    def test_extra_labels_merge_and_distinguish(self):
        registry = MetricsRegistry()
        fam_a = counter_family("t_shared_total", "Shared.", ())
        fam_b = counter_family("t_shared_total", "Shared.", ())
        fam_a.inc(1)
        fam_b.inc(2)
        registry.register(fam_a, {"index": "a"})
        registry.register(fam_b, {"index": "b"})
        text = registry.exposition()
        assert 't_shared_total{index="a"} 1' in text
        assert 't_shared_total{index="b"} 2' in text
        # HELP/TYPE appear once per name even with two registrants.
        assert text.count("# TYPE t_shared_total") == 1
        assert validate_exposition(text) == []

    def test_register_all_accepts_family_label_tuples(self):
        registry = MetricsRegistry()
        fam = counter_family("t_part_total", "Per partition.", ())
        fam.inc(4)
        registry.register_all([(fam, {"partition": "3"})], {"index": "fleet"})
        text = registry.exposition()
        assert 't_part_total{index="fleet",partition="3"} 4' in text

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("t_conflict", "c")
        with pytest.raises(ValueError):
            registry.gauge("t_conflict", "g")

    def test_register_is_idempotent(self):
        registry = MetricsRegistry()
        fam = counter_family("t_idem_total", "i")
        fam.inc()
        registry.register(fam)
        registry.register(fam)
        assert registry.exposition().count("t_idem_total 1") == 1

    def test_exposed_metric_names(self):
        registry = MetricsRegistry()
        registry.counter("t_one_total", "1")
        registry.histogram("t_two_seconds", "2")
        assert exposed_metric_names(registry.exposition()) == [
            "t_one_total",
            "t_two_seconds",
        ]

    def test_snapshot_mirrors_exposition(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_snap_total", "Snap.")
        hist = registry.histogram("t_snap_seconds", "Lat.")
        counter.inc(2)
        hist.observe(0.5)
        snap = registry.snapshot()
        assert snap["t_snap_total"]["samples"][0]["value"] == 2
        hist_sample = snap["t_snap_seconds"]["samples"][0]
        assert hist_sample["count"] == 1
        assert "p99" in hist_sample

    def test_validator_flags_broken_payloads(self):
        assert validate_exposition("t_bad{unclosed 1\n") != []
        assert validate_exposition("no_type_declared 1\n") != []
        broken_hist = (
            "# TYPE t_h histogram\n"
            't_h_bucket{le="1"} 5\n'
            't_h_bucket{le="2"} 3\n'  # decreasing => not cumulative
            't_h_bucket{le="+Inf"} 5\n'
            "t_h_sum 1\n"
            "t_h_count 5\n"
        )
        assert any("cumulative" in p for p in validate_exposition(broken_hist))


class TestThreadSafety:
    def test_concurrent_counter_increments(self):
        # Mimics the real contention: event-loop thread + flusher executor
        # threads all hitting the same instruments.
        counter = Counter()
        hist = Histogram(buckets=(0.5, 1.0))
        threads_n, iterations = 8, 2500

        def hammer():
            for _ in range(iterations):
                counter.inc()
                hist.observe(0.75)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == threads_n * iterations
        assert hist.count == threads_n * iterations
        assert hist.cumulative_counts()[-1][1] == threads_n * iterations

    def test_concurrent_labels_resolution(self):
        fam = counter_family("t_conc_total", "c", ("worker",))
        errors: list[Exception] = []

        def hammer(worker_id: int):
            try:
                for _ in range(500):
                    fam.labels(worker=str(worker_id % 4)).inc()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = sum(child.value for _, child in fam.children())
        assert total == 8 * 500
