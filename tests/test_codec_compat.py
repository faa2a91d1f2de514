"""Binary-codec version compatibility and corruption handling.

The on-disk format promises two things the fleet manifest now leans on:

* **backwards compatibility** — v1 files keep loading, and so do v2 files
  that carry the retired 2-D point-extreme payload (``ext_*`` arrays plus
  the ``extreme_aggregate`` meta key): the reader ignores it, because v2
  was purely additive;
* **typed failures** — a corrupted or foreign file raises
  :class:`~repro.errors.SerializationError`, never a bare
  ``struct.error`` / ``json.JSONDecodeError`` / ``KeyError`` crash.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Aggregate,
    Guarantee,
    PolyFit2DIndex,
    PolyFitIndex,
    SerializationError,
    load_index,
    save_index,
)
from repro.cli import main
from repro.index.codec import BINARY_MAGIC, read_array_store, write_array_store
from repro.stream import UpdatablePolyFitIndex


def _build_index(aggregate=Aggregate.COUNT, n=2000, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.uniform(0.0, 1000.0, size=n)
    measures = None if aggregate is Aggregate.COUNT else rng.uniform(1.0, 50.0, n)
    return PolyFitIndex.build(keys, measures, aggregate, delta=50.0)


def _rewrite_version(path, version):
    """Rewrite a saved index file's embedded format version in place."""
    meta, arrays = read_array_store(path, mmap=False)
    meta = dict(meta)
    meta["format_version"] = version
    write_array_store(path, dict(arrays), meta)


class TestVersionCompatibility:
    @pytest.mark.parametrize("aggregate", [Aggregate.COUNT, Aggregate.MAX])
    def test_v1_files_still_load(self, tmp_path, aggregate):
        # A 1-D index never carries the v2-only ``ext_*`` payload, so a v1
        # file is byte-for-byte a v2 file with the older version stamp —
        # rewriting the stamp reproduces a genuine pre-v2 artifact.
        index = _build_index(aggregate)
        path = tmp_path / "index.pfbin"
        save_index(index, path)
        _rewrite_version(path, 1)
        loaded = load_index(path)
        lows = np.linspace(0.0, 900.0, 50)
        highs = lows + 80.0
        assert np.array_equal(
            loaded.estimate_batch(lows, highs),
            index.estimate_batch(lows, highs),
            equal_nan=True,
        )
        assert loaded.certified_bound == index.certified_bound

    def test_updatable_v1_file_still_loads(self, tmp_path):
        index = _build_index()
        updatable = UpdatablePolyFitIndex.wrap(index)
        updatable.insert(np.array([1.5, 2.5, 3.5]))
        path = tmp_path / "updatable.pfbin"
        save_index(updatable, path)
        _rewrite_version(path, 1)
        loaded = load_index(path)
        assert loaded.buffer_size == updatable.buffer_size
        lows = np.array([0.0, 500.0])
        highs = np.array([100.0, 600.0])
        assert np.array_equal(
            loaded.snapshot().exact_batch(lows, highs),
            updatable.snapshot().exact_batch(lows, highs),
        )

    def test_legacy_v2_extreme_payload_is_ignored(self, tmp_path, capsys):
        # A legacy v2 file can carry a rectangle MAX payload on a 2-D index;
        # the reader skips those arrays and loads the plain index.
        rng = np.random.default_rng(29)
        xs = rng.uniform(0.0, 10.0, 3000)
        ys = rng.uniform(0.0, 10.0, 3000)
        index = PolyFit2DIndex.build(xs, ys, delta=40.0, grid_resolution=32)
        path = tmp_path / "legacy2d.pfbin"
        save_index(index, path)
        meta, arrays = read_array_store(path, mmap=False)
        meta = dict(meta, extreme_aggregate="max", format_version=2)
        arrays = dict(arrays, ext_xs=xs, ext_ys=ys,
                      ext_measures=rng.uniform(0.0, 50.0, xs.size))
        write_array_store(path, arrays, meta)
        loaded = load_index(path)
        assert isinstance(loaded, PolyFit2DIndex)
        a = np.sort(rng.uniform(-1.0, 11.0, (2, 400)), axis=0)
        b = np.sort(rng.uniform(-1.0, 11.0, (2, 400)), axis=0)
        for guarantee in (Guarantee.absolute(100.0), Guarantee.relative(0.05)):
            got = loaded.query_batch(a[0], a[1], b[0], b[1], guarantee)
            want = index.query_batch(a[0], a[1], b[0], b[1], guarantee)
            for field in ("values", "guaranteed", "exact_fallback", "error_bounds"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert main(["fsck", str(path)]) == 0
        out = capsys.readouterr().out
        assert "legacy2d.pfbin: ok" in out
        assert "format v2 predates per-array checksums" in out

    def test_unsupported_future_version_raises(self, tmp_path):
        index = _build_index()
        path = tmp_path / "index.pfbin"
        save_index(index, path)
        _rewrite_version(path, 99)
        with pytest.raises(SerializationError, match="version"):
            load_index(path)


class TestCorruption:
    def test_corrupted_magic_raises_typed_error(self, tmp_path):
        index = _build_index()
        path = tmp_path / "index.pfbin"
        save_index(index, path)
        data = bytearray(path.read_bytes())
        data[: len(BINARY_MAGIC)] = b"X" * len(BINARY_MAGIC)
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError, match="magic"):
            load_index(path)

    def test_file_shorter_than_magic_raises(self, tmp_path):
        path = tmp_path / "stub.pfbin"
        path.write_bytes(b"PF")
        with pytest.raises(SerializationError):
            load_index(path)

    def test_truncated_header_raises(self, tmp_path):
        index = _build_index()
        path = tmp_path / "index.pfbin"
        save_index(index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(BINARY_MAGIC) + 12])  # magic + length + 4 bytes
        with pytest.raises(SerializationError):
            load_index(path)

    def test_truncated_blob_raises(self, tmp_path):
        index = _build_index()
        path = tmp_path / "index.pfbin"
        save_index(index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(SerializationError, match="truncated"):
            load_index(path, mmap=False)

    def test_garbage_header_raises(self, tmp_path):
        import struct

        path = tmp_path / "garbage.pfbin"
        body = b"{definitely not json"
        path.write_bytes(BINARY_MAGIC + struct.pack("<Q", len(body)) + body)
        with pytest.raises(SerializationError, match="malformed"):
            load_index(path)

    def test_unknown_kind_raises(self, tmp_path):
        index = _build_index()
        path = tmp_path / "index.pfbin"
        save_index(index, path)
        meta, arrays = read_array_store(path, mmap=False)
        write_array_store(path, dict(arrays), {**meta, "kind": "mystery9d"})
        with pytest.raises(SerializationError, match="kind"):
            load_index(path)
