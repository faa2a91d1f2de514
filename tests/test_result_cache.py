"""Result-cache correctness: LRU semantics, keying, and staleness safety.

The cache is keyed on ``(version, guarantee, bounds)`` where ``version`` is
the index's monotone write counter, so the staleness property under test is
strong: after ANY insert or compaction, a repeated workload must produce a
fresh (recomputed) answer that matches an uncached engine bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import Aggregate
from repro.queries.cache import ResultCache
from repro.queries.engine import QueryEngine
from repro.queries.types import Guarantee, RangeQuery, RangeQuery2D
from repro.stream.updatable import UpdatablePolyFitIndex
from repro.stream.updatable2d import UpdatablePolyFit2DIndex


def _values(raw) -> np.ndarray:
    """Columnar answers of a raw batch result, whichever shape it takes."""
    return np.asarray(getattr(raw, "values", raw))


class TestResultCacheUnit:
    """Direct unit coverage of the OrderedDict LRU."""

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            ResultCache(0)
        with pytest.raises(ValueError):
            ResultCache(-3)

    def test_counters_and_roundtrip(self):
        cache = ResultCache(4)
        key = ResultCache.make_key(0, None, (np.array([1.0]), np.array([2.0])))
        assert cache.get(key) is None
        payload = np.array([42.0])
        cache.put(key, payload)
        assert cache.get(key) is payload
        info = cache.info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 1, 4, 1)

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        keys = [ResultCache.make_key(0, None, (np.array([float(i)]),)) for i in range(3)]
        cache.put(keys[0], "a")
        cache.put(keys[1], "b")
        # Touch key 0 so key 1 becomes the least recently used.
        assert cache.get(keys[0]) == "a"
        cache.put(keys[2], "c")
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) == "a"
        assert cache.get(keys[2]) == "c"
        assert cache.info().currsize == 2

    def test_clear_resets_everything(self):
        cache = ResultCache(2)
        key = ResultCache.make_key(0, None, (np.array([1.0]),))
        cache.put(key, "x")
        cache.get(key)
        cache.get(ResultCache.make_key(9, None, (np.array([1.0]),)))
        cache.clear()
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_make_key_discriminates_each_component(self):
        bounds = (np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        base = ResultCache.make_key(1, None, bounds)
        assert ResultCache.make_key(2, None, bounds) != base
        assert ResultCache.make_key(1, Guarantee.relative(0.1), bounds) != base
        other = (np.array([1.0, 2.0]), np.array([3.0, 5.0]))
        assert ResultCache.make_key(1, None, other) != base
        # Same bit pattern => same key, even through a fresh array object.
        clone = (np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert ResultCache.make_key(1, None, clone) == base

    def test_make_key_treats_nan_payloads_as_equal(self):
        a = (np.array([np.nan, 1.0]),)
        b = (np.array([np.nan, 1.0]),)
        assert ResultCache.make_key(0, None, a) == ResultCache.make_key(0, None, b)

    def test_guarantees_hash_by_value(self):
        bounds = (np.array([1.0]),)
        k1 = ResultCache.make_key(0, Guarantee.relative(0.05), bounds)
        k2 = ResultCache.make_key(0, Guarantee.relative(0.05), bounds)
        k3 = ResultCache.make_key(0, Guarantee.absolute(100.0), bounds)
        assert k1 == k2
        assert k1 != k3


@pytest.fixture(scope="module")
def stream_keys():
    rng = np.random.default_rng(97)
    return np.sort(rng.uniform(0.0, 1000.0, 5000))


@pytest.fixture(scope="module")
def stream_queries(stream_keys):
    rng = np.random.default_rng(193)
    lows = rng.uniform(0.0, 900.0, 64)
    spans = rng.uniform(1.0, 100.0, 64)
    return [
        RangeQuery(low, low + span, Aggregate.COUNT)
        for low, span in zip(lows, spans)
    ]


class TestEngineCache1D:
    def _engines(self, index):
        cached = QueryEngine.for_index(index, "cached", cache_size=8)
        plain = QueryEngine.for_index(index, "plain")
        return cached, plain

    def test_repeat_workload_is_all_hits(self, stream_keys, stream_queries):
        index = UpdatablePolyFitIndex.build(stream_keys, guarantee=Guarantee.absolute(200.0))
        cached, _ = self._engines(index)
        guarantee = Guarantee.relative(0.1)
        first = cached.run_batch_raw(stream_queries, guarantee)
        for _ in range(3):
            again = cached.run_batch_raw(stream_queries, guarantee)
            assert again is first
        info = cached.cache_info()
        assert info.misses == 1
        assert info.hits == 3

    def test_insert_invalidates_by_version(self, stream_keys, stream_queries):
        index = UpdatablePolyFitIndex.build(stream_keys, guarantee=Guarantee.absolute(200.0))
        cached, plain = self._engines(index)
        rng = np.random.default_rng(7)
        for _ in range(4):
            cached_res = cached.run_batch_raw(stream_queries)
            plain_res = plain.run_batch_raw(stream_queries)
            np.testing.assert_array_equal(_values(cached_res), _values(plain_res))
            index.insert(rng.uniform(0.0, 1000.0, 50))
        # 4 distinct versions were queried: no hit was ever possible.
        assert cached.cache_info().hits == 0
        assert cached.cache_info().misses == 4

    def test_compaction_invalidates_by_version(self, stream_keys, stream_queries):
        index = UpdatablePolyFitIndex.build(stream_keys, guarantee=Guarantee.absolute(200.0))
        cached, plain = self._engines(index)
        index.insert(np.random.default_rng(11).uniform(0.0, 1000.0, 200))
        before = cached.run_batch_raw(stream_queries)
        assert index.compact()
        after = cached.run_batch_raw(stream_queries)
        assert after is not before
        np.testing.assert_array_equal(
            _values(after), _values(plain.run_batch_raw(stream_queries))
        )

    def test_guarantee_distinguishes_entries(self, stream_keys, stream_queries):
        index = UpdatablePolyFitIndex.build(stream_keys, guarantee=Guarantee.absolute(200.0))
        cached, _ = self._engines(index)
        cached.run_batch_raw(stream_queries)
        cached.run_batch_raw(stream_queries, Guarantee.relative(0.1))
        assert cached.cache_info().misses == 2
        cached.run_batch_raw(stream_queries)
        cached.run_batch_raw(stream_queries, Guarantee.relative(0.1))
        assert cached.cache_info().hits == 2

    def test_cache_clear_and_info_lifecycle(self, stream_keys, stream_queries):
        index = UpdatablePolyFitIndex.build(stream_keys, guarantee=Guarantee.absolute(200.0))
        cached, plain = self._engines(index)
        assert plain.cache_info() is None
        plain.cache_clear()  # must be a harmless no-op
        cached.run_batch_raw(stream_queries)
        assert cached.cache_info().currsize == 1
        cached.cache_clear()
        info = cached.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_run_batch_uses_cache(self, stream_keys, stream_queries):
        index = UpdatablePolyFitIndex.build(stream_keys, guarantee=Guarantee.absolute(200.0))
        cached, _ = self._engines(index)
        cached.run(stream_queries)
        cached.run(stream_queries)
        assert cached.cache_info().hits >= 1


class TestEngineCache2D:
    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(37)
        return rng.uniform(0.0, 100.0, 4000), rng.uniform(0.0, 100.0, 4000)

    @pytest.fixture(scope="class")
    def queries2d(self):
        rng = np.random.default_rng(53)
        x_lows = rng.uniform(0.0, 80.0, 32)
        y_lows = rng.uniform(0.0, 80.0, 32)
        return [
            RangeQuery2D(xl, xl + 15.0, yl, yl + 15.0, Aggregate.COUNT)
            for xl, yl in zip(x_lows, y_lows)
        ]

    def test_insert_and_compact_never_serve_stale(self, points, queries2d):
        xs, ys = points
        index = UpdatablePolyFit2DIndex.build(
            xs, ys, guarantee=Guarantee.absolute(400.0), grid_resolution=48
        )
        cached = QueryEngine.for_index(index, "cached2d", cache_size=4)
        plain = QueryEngine.for_index(index, "plain2d")
        rng = np.random.default_rng(41)
        for step in range(3):
            cached_res = _values(cached.run_batch_raw(queries2d))
            np.testing.assert_array_equal(
                cached_res, _values(plain.run_batch_raw(queries2d))
            )
            # Exactness check against ground truth: cached answers must track
            # the live dataset, not the one at cache-fill time.
            index.insert(
                rng.uniform(0.0, 100.0, 100), rng.uniform(0.0, 100.0, 100)
            )
        assert cached.cache_info().hits == 0
        index.compact()
        np.testing.assert_array_equal(
            _values(cached.run_batch_raw(queries2d)),
            _values(plain.run_batch_raw(queries2d)),
        )

    def test_repeat_hits_after_quiescence(self, points, queries2d):
        xs, ys = points
        index = UpdatablePolyFit2DIndex.build(
            xs, ys, guarantee=Guarantee.absolute(400.0), grid_resolution=48
        )
        cached = QueryEngine.for_index(index, "cached2d", cache_size=4)
        first = cached.run_batch_raw(queries2d)
        assert cached.run_batch_raw(queries2d) is first
        assert cached.cache_info().hits == 1
