"""Tests for the zero-copy binary index codec.

Coverage: the generic array store (layout, alignment, zero-copy mmap
views), save/load round-trip equality (arrays bit-identical to the
original index, query results matching after reload) for 1-D COUNT/SUM/MAX
and 2-D COUNT/SUM indexes, and the corrupted-file error paths.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro import (
    Aggregate,
    PolyFit2DIndex,
    PolyFitIndex,
    RangeQuery,
    RangeQuery2D,
    load_index,
    save_index,
)
from repro.errors import SerializationError
from repro.index.codec import BINARY_MAGIC, read_array_store, write_array_store


def _range_bounds(keys, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(float(keys[0]), float(keys[-1]), size=(2, n))
    return np.minimum(a[0], a[1]), np.maximum(a[0], a[1])


class TestArrayStore:
    def test_round_trip_preserves_bytes_and_meta(self, tmp_path):
        path = tmp_path / "store.pfbin"
        arrays = {
            "floats": np.linspace(0.0, 1.0, 17),
            "matrix": np.arange(12, dtype=np.float64).reshape(3, 4),
            "codes": np.array([1, 5, 2**40], dtype=np.uint64),
            "mask": np.array([True, False, True]),
        }
        meta = {"kind": "unit-test", "nested": {"a": 1}}
        write_array_store(path, arrays, meta)
        for mmap in (True, False):
            got_meta, got = read_array_store(path, mmap=mmap)
            assert got_meta == meta
            assert set(got) == set(arrays)
            for name, array in arrays.items():
                assert got[name].dtype == array.dtype
                assert got[name].shape == array.shape
                assert got[name].tobytes() == array.tobytes()

    def test_mmap_views_are_read_only(self, tmp_path):
        path = tmp_path / "store.pfbin"
        write_array_store(path, {"x": np.zeros(4)}, {})
        _, arrays = read_array_store(path, mmap=True)
        with pytest.raises((ValueError, RuntimeError)):
            arrays["x"][0] = 1.0

    def test_blobs_are_aligned(self, tmp_path):
        path = tmp_path / "store.pfbin"
        write_array_store(path, {"a": np.zeros(3), "b": np.zeros(5)}, {})
        raw = path.read_bytes()
        (header_length,) = struct.unpack("<Q", raw[8:16])
        table = json.loads(raw[16: 16 + header_length])["arrays"]
        for entry in table.values():
            assert entry["offset"] % 64 == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pfbin"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 64)
        with pytest.raises(SerializationError):
            read_array_store(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.pfbin"
        path.write_bytes(BINARY_MAGIC + struct.pack("<Q", 10_000) + b"{}")
        with pytest.raises(SerializationError):
            read_array_store(path)

    def test_truncated_blob_rejected(self, tmp_path):
        path = tmp_path / "cut.pfbin"
        write_array_store(path, {"x": np.zeros(1000)}, {})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 512])
        with pytest.raises(SerializationError):
            read_array_store(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "garbage.pfbin"
        garbage = b"{not json"
        path.write_bytes(BINARY_MAGIC + struct.pack("<Q", len(garbage)) + garbage)
        with pytest.raises(SerializationError):
            read_array_store(path)


class TestRoundTrip1D:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_count_queries_match(self, count_index, tweet_small, tmp_path, mmap):
        keys, _ = tweet_small
        path = tmp_path / "count.pfbin"
        save_index(count_index, path)
        clone = load_index(path, mmap=mmap)
        bounds = _range_bounds(keys, 2_000, seed=1)
        assert np.array_equal(
            clone.estimate_batch(*bounds), count_index.estimate_batch(*bounds)
        )
        assert clone.num_segments == count_index.num_segments
        assert clone.delta == count_index.delta
        assert clone.size_in_bytes() == count_index.size_in_bytes()

    def test_clone_arrays_bit_identical_to_original(self, count_index, tweet_small, tmp_path):
        keys, _ = tweet_small
        clone = load_index(_save(count_index, tmp_path / "i.pfbin"))
        a, b = count_index._directory, clone._directory  # noqa: SLF001
        for attr in ("keys", "lows", "highs", "errors"):
            assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()
        assert a.bank.coeffs.tobytes() == b.bank.coeffs.tobytes()
        fa = count_index._cumulative  # noqa: SLF001
        fb = clone._cumulative  # noqa: SLF001
        assert fa.keys.tobytes() == fb.keys.tobytes()
        assert fa.values.tobytes() == fb.values.tobytes()
        bounds = _range_bounds(keys, 2_000, seed=2)
        assert np.array_equal(
            count_index.estimate_batch(*bounds), clone.estimate_batch(*bounds)
        )

    def test_sum_round_trip(self, tweet_small, tmp_path):
        keys, measures = tweet_small
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.SUM, delta=100.0)
        clone = load_index(_save(index, tmp_path / "sum.pfbin"))
        assert clone.aggregate is Aggregate.SUM
        query = RangeQuery(float(keys[10]), float(keys[-10]), Aggregate.SUM)
        assert clone.query_value(query.low, query.high) == pytest.approx(
            index.query_value(query.low, query.high)
        )

    def test_max_round_trip_including_batch(self, max_index, hki_small, tmp_path):
        keys, _ = hki_small
        clone = load_index(_save(max_index, tmp_path / "max.pfbin"))
        bounds = _range_bounds(keys, 1_000, seed=3)
        assert np.array_equal(
            clone.estimate_batch(*bounds),
            max_index.estimate_batch(*bounds),
            equal_nan=True,
        )


class TestRoundTrip2D:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_count_round_trip(self, count2d_index, osm_small, tmp_path, mmap):
        xs, ys = osm_small
        clone = load_index(_save(count2d_index, tmp_path / "c2.pfbin"), mmap=mmap)
        rng = np.random.default_rng(4)
        ax = np.sort(rng.uniform(xs.min(), xs.max(), size=(2, 1_500)), axis=0)
        ay = np.sort(rng.uniform(ys.min(), ys.max(), size=(2, 1_500)), axis=0)
        bounds = (ax[0], ax[1], ay[0], ay[1])
        assert np.array_equal(
            clone.estimate_batch(*bounds), count2d_index.estimate_batch(*bounds)
        )
        # The pointer-tree scalar oracle round-trips too.
        query = RangeQuery2D(
            float(ax[0][0]), float(ax[1][0]), float(ay[0][0]), float(ay[1][0])
        )
        assert clone.query(query).value == count2d_index.query(query).value
        assert clone.exact(query) == count2d_index.exact(query)
        assert clone.size_in_bytes() == count2d_index.size_in_bytes()

    def test_clone_directory_bit_identical_to_original(self, count2d_index, tmp_path):
        clone = load_index(_save(count2d_index, tmp_path / "c2.pfbin"))
        a, b = count2d_index.directory, clone.directory
        for attr in (
            "keys",
            "lows",
            "highs",
            "errors",
            "exact_mask",
            "exact_ranges",
            "grid_x",
            "grid_y",
            "grid_cf",
        ):
            assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes(), attr
        assert (
            a.surfaces.to_arrays()["coeffs"].tobytes()
            == b.surfaces.to_arrays()["coeffs"].tobytes()
        )

    def test_sum_with_weights_round_trip(self, osm_small, tmp_path):
        xs, ys = osm_small
        weights = np.random.default_rng(6).uniform(0.5, 2.0, xs.size)
        index = PolyFit2DIndex.build(
            xs, ys, measures=weights, aggregate=Aggregate.SUM, delta=500.0,
            grid_resolution=32,
        )
        clone = load_index(_save(index, tmp_path / "s2.pfbin"))
        assert clone.aggregate is Aggregate.SUM
        query = RangeQuery2D(
            float(np.quantile(xs, 0.2)),
            float(np.quantile(xs, 0.8)),
            float(np.quantile(ys, 0.1)),
            float(np.quantile(ys, 0.9)),
            Aggregate.SUM,
        )
        assert clone.exact(query) == pytest.approx(index.exact(query))
        assert clone.estimate(query) == pytest.approx(index.estimate(query))


class TestExtremePayloadV2:
    """Format v2 no longer carries a 2-D point-extreme payload; v1 files still load."""

    def test_v1_files_still_load(self, count_index, tmp_path):
        path = tmp_path / "v1.pfbin"
        save_index(count_index, path)
        meta, arrays = read_array_store(path, mmap=False)
        meta["format_version"] = 1
        write_array_store(path, dict(arrays), meta)
        clone = load_index(path)
        assert isinstance(clone, PolyFitIndex)


class TestFormatDispatch:
    def test_save_index_auto_picks_binary_by_suffix(self, count_index, tmp_path):
        path = tmp_path / "auto.pfbin"
        save_index(count_index, path)
        assert path.read_bytes()[: len(BINARY_MAGIC)] == BINARY_MAGIC

    def test_save_index_explicit_binary_any_suffix(self, count_index, tmp_path):
        path = tmp_path / "explicit.dat"
        save_index(count_index, path)
        assert path.read_bytes()[: len(BINARY_MAGIC)] == BINARY_MAGIC
        assert isinstance(load_index(path), PolyFitIndex)

    def test_load_index_sniffs_json(self, tmp_path):
        # A file without the codec magic (here a JSON document) is rejected
        # with a typed error, never parsed as some other format.
        path = tmp_path / "index.json"
        path.write_text(json.dumps({"format_version": 1, "aggregate": "count"}))
        with pytest.raises(SerializationError, match="bad magic"):
            load_index(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_index(tmp_path / "missing.pfbin")

    def test_binary_load_of_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "alien.pfbin"
        write_array_store(path, {"x": np.zeros(2)}, {"format_version": 1, "kind": "alien"})
        with pytest.raises(SerializationError):
            load_index(path)

    def test_binary_load_of_wrong_version_rejected(self, count_index, tmp_path):
        path = tmp_path / "old.pfbin"
        save_index(count_index, path)
        meta, arrays = read_array_store(path, mmap=False)
        meta["format_version"] = 999
        write_array_store(path, dict(arrays), meta)
        with pytest.raises(SerializationError):
            load_index(path)


def _save(index, path):
    save_index(index, path)
    return path
