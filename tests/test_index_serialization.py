"""Tests for index serialization through the codec.

``TestDictRoundTrip`` covers the codec's in-memory payload — the ``meta``
dict (the JSON header) and the named ``arrays`` dict of
:func:`~repro.index.codec.read_array_store` — re-written with
:func:`~repro.index.codec.write_array_store` and loaded back;
``TestFileRoundTrip`` covers :func:`save_index`/:func:`load_index` files.
"""

import json

import numpy as np
import pytest

from repro import (
    Aggregate,
    Guarantee,
    PolyFitIndex,
    RangeQuery,
    generate_range_queries,
    load_index,
    save_index,
)
from repro.errors import SerializationError
from repro.index.codec import read_array_store, write_array_store


def _payload(index, tmp_path):
    """The codec's ``(meta, arrays)`` payload of ``index``."""
    path = tmp_path / "payload.pfbin"
    save_index(index, path)
    return read_array_store(path, mmap=False)


def _from_payload(meta, arrays, tmp_path):
    path = tmp_path / "rewritten.pfbin"
    write_array_store(path, arrays, meta)
    return load_index(path)


class TestDictRoundTrip:
    def test_count_index_round_trip(self, count_index, tweet_small, tmp_path):
        keys, _ = tweet_small
        clone = _from_payload(*_payload(count_index, tmp_path), tmp_path)
        assert clone.num_segments == count_index.num_segments
        assert clone.delta == count_index.delta
        queries = generate_range_queries(keys, 30, Aggregate.COUNT, seed=1)
        for query in queries:
            assert clone.query_value(query.low, query.high) == pytest.approx(
                count_index.query_value(query.low, query.high)
            )

    def test_max_index_round_trip(self, max_index, hki_small, tmp_path):
        keys, _ = hki_small
        clone = _from_payload(*_payload(max_index, tmp_path), tmp_path)
        queries = generate_range_queries(keys, 30, Aggregate.MAX, seed=2)
        for query in queries:
            original = max_index.query(query).value
            restored = clone.query(query).value
            if np.isnan(original) and np.isnan(restored):
                continue
            assert restored == pytest.approx(original)

    def test_payload_is_json_serializable(self, count2d_index, tmp_path):
        # The meta dict is the file's JSON header — including the inline
        # 2-D quadtree oracle — so it must survive a JSON text round trip.
        meta, _ = _payload(count2d_index, tmp_path)
        assert json.loads(json.dumps(meta)) == meta

    def test_guarantees_preserved_after_round_trip(self, count_index, tweet_small, tmp_path):
        keys, _ = tweet_small
        clone = _from_payload(*_payload(count_index, tmp_path), tmp_path)
        queries = generate_range_queries(keys, 30, Aggregate.COUNT, seed=3)
        for query in queries:
            result = clone.query(query, Guarantee.absolute(100.0))
            exact = clone.exact(query)
            assert abs(result.value - exact) <= 100.0 + 1e-6

    def test_malformed_payload_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            _from_payload({"format_version": 1}, {}, tmp_path)

    def test_wrong_version_rejected(self, count_index, tmp_path):
        meta, arrays = _payload(count_index, tmp_path)
        meta["format_version"] = 999
        with pytest.raises(SerializationError):
            _from_payload(meta, dict(arrays), tmp_path)


class TestFileRoundTrip:
    def test_save_and_load(self, count_index, tmp_path, tweet_small):
        keys, _ = tweet_small
        path = tmp_path / "index.pfbin"
        save_index(count_index, path)
        restored = load_index(path)
        assert restored.num_segments == count_index.num_segments
        query = RangeQuery(float(keys[100]), float(keys[-100]), Aggregate.COUNT)
        assert restored.query_value(query.low, query.high) == pytest.approx(
            count_index.query_value(query.low, query.high)
        )

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_index(tmp_path / "missing.pfbin")

    def test_load_corrupted_file(self, tmp_path):
        path = tmp_path / "corrupt.pfbin"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_index(path)

    def test_serialized_sum_index(self, tweet_small, tmp_path):
        keys, measures = tweet_small
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.SUM, delta=100.0)
        path = tmp_path / "sum.pfbin"
        save_index(index, path)
        clone = load_index(path)
        assert clone.aggregate is Aggregate.SUM
        query = RangeQuery(float(keys[10]), float(keys[-10]), Aggregate.SUM)
        assert clone.query_value(query.low, query.high) == pytest.approx(
            index.query_value(query.low, query.high)
        )
