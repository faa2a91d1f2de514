"""Property tests for the flat cell-directory core.

The pointer structures (1-D segment list walk, 2-D quadtree descent) are the
correctness oracles; the flat directories must agree with them cell-for-cell
— including on cell-boundary and domain-edge coordinates, where tie-breaking
is easy to get wrong — and the flat arrays must survive serialization
verbatim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Aggregate,
    PolyFitIndex,
    QuadDirectory,
    RangeQuery2D,
    SegmentDirectory,
    load_index,
    save_index,
)
from repro.errors import QueryError, SerializationError
from repro.index.codec import read_array_store, write_array_store
from repro.fitting.quadtree import linearize_quadtree, morton_interleave2
from repro.index.directory import RangeExtremeTable, _axis_cells, _dyadic_boundaries


class TestMortonLinearization:
    def test_codes_strictly_increasing(self, count2d_index):
        _, codes, depth = linearize_quadtree(count2d_index._root)
        assert depth >= 1
        assert np.all(codes[1:] > codes[:-1])

    def test_directory_row_order_matches_linearization(self, count2d_index):
        leaves, codes, depth = linearize_quadtree(count2d_index._root)
        directory = count2d_index.directory
        assert len(directory) == len(leaves)
        assert directory.depth == depth
        assert np.array_equal(directory.keys, codes)
        for row, leaf in enumerate(leaves):
            assert directory.lows[row, 0] == leaf.x_low
            assert directory.highs[row, 1] == leaf.y_high
            assert bool(directory.exact_mask[row]) == leaf.is_exact

    def test_morton_interleave_bits(self):
        gx = np.array([0, 1, 0, 1, 2, 3], dtype=np.uint64)
        gy = np.array([0, 0, 1, 1, 2, 3], dtype=np.uint64)
        codes = morton_interleave2(gx, gy)
        assert codes.tolist() == [0, 1, 2, 3, 12, 15]


class TestLocateEquivalence:
    """Morton-linearized lookup must agree with pointer-tree ``locate``."""

    def _expected_rows(self, index, us, vs):
        leaves, _, _ = linearize_quadtree(index._root)
        leaf_rows = {id(leaf): row for row, leaf in enumerate(leaves)}
        return np.array(
            [leaf_rows[id(index._root.locate(u, v))] for u, v in zip(us, vs)],
            dtype=np.intp,
        )

    def test_random_points_agree(self, count2d_index):
        xmin, xmax, ymin, ymax = count2d_index._bounds
        rng = np.random.default_rng(17)
        us = rng.uniform(xmin, xmax, 3000)
        vs = rng.uniform(ymin, ymax, 3000)
        rows = count2d_index.directory.locate_batch(us, vs)
        assert np.array_equal(rows, self._expected_rows(count2d_index, us, vs))

    def test_cell_boundary_coordinates_agree(self, count2d_index):
        """Leaf corners and split lines hit the exact tie-break paths."""
        directory = count2d_index.directory
        xmin, xmax, ymin, ymax = count2d_index._bounds
        us = np.concatenate((directory.lows[:, 0], directory.highs[:, 0]))
        vs = np.concatenate((directory.lows[:, 1], directory.highs[:, 1]))
        us = np.clip(us, xmin, xmax)
        vs = np.clip(vs, ymin, ymax)
        rows = directory.locate_batch(us, vs)
        assert np.array_equal(rows, self._expected_rows(count2d_index, us, vs))

    def test_domain_edges_agree(self, count2d_index):
        xmin, xmax, ymin, ymax = count2d_index._bounds
        x_mid = (xmin + xmax) / 2.0
        y_mid = (ymin + ymax) / 2.0
        us = np.array([xmin, xmin, xmax, xmax, x_mid, xmin, xmax, x_mid])
        vs = np.array([ymin, ymax, ymin, ymax, y_mid, y_mid, y_mid, ymin])
        rows = count2d_index.directory.locate_batch(us, vs)
        assert np.array_equal(rows, self._expected_rows(count2d_index, us, vs))

    def test_evaluation_matches_scalar_corner(self, count2d_index):
        xmin, xmax, ymin, ymax = count2d_index._bounds
        rng = np.random.default_rng(23)
        us = rng.uniform(xmin, xmax, 1500)
        vs = rng.uniform(ymin, ymax, 1500)
        directory = count2d_index.directory
        rows = directory.locate_batch(us, vs)
        batch = directory.evaluate_batch(rows, us, vs)
        scalar = np.array([count2d_index._corner(u, v) for u, v in zip(us, vs)])
        assert np.allclose(batch, scalar)

    def test_exact_cells_hit_and_agree(self, osm_small):
        """Points inside exact cells take the nearest-grid-sample gather."""
        from repro import PolyFit2DIndex
        from repro.config import QuadTreeConfig

        xs, ys = osm_small
        # A tight budget with a shallow depth cap forces depth-exhausted
        # exact leaves; a generous min_cell_points adds small-sample ones.
        index = PolyFit2DIndex.build(
            xs, ys, delta=5.0, grid_resolution=32,
            config=QuadTreeConfig(max_depth=3, min_cell_points=40),
        )
        directory = index.directory
        exact_rows = np.nonzero(directory.exact_mask)[0]
        assert exact_rows.size > 0
        count2d_index = index
        rng = np.random.default_rng(29)
        centers_u = rng.uniform(
            directory.lows[exact_rows, 0], directory.highs[exact_rows, 0]
        )
        centers_v = rng.uniform(
            directory.lows[exact_rows, 1], directory.highs[exact_rows, 1]
        )
        rows = directory.locate_batch(centers_u, centers_v)
        values = directory.evaluate_batch(rows, centers_u, centers_v)
        scalar = np.array(
            [count2d_index._corner(u, v) for u, v in zip(centers_u, centers_v)]
        )
        assert np.allclose(values, scalar)

    def test_locate_fast_paths_match_descent(self, count2d_index):
        """Arithmetic cells and the row table agree with the level descent."""
        directory = count2d_index.directory
        xmin, xmax, ymin, ymax = count2d_index._bounds
        rng = np.random.default_rng(31)
        us = np.concatenate(
            (rng.uniform(xmin, xmax, 2000), directory._x_boundaries)
        )
        vs = np.concatenate(
            (rng.uniform(ymin, ymax, 2000),
             np.resize(directory._y_boundaries, directory._x_boundaries.size))
        )
        gx_descent, gy_descent = directory._locate_descent(us, vs)
        gx_fast = _axis_cells(us, directory._x_boundaries, directory._x_scale)
        gy_fast = _axis_cells(vs, directory._y_boundaries, directory._y_scale)
        assert np.array_equal(gx_fast, gx_descent.astype(np.intp))
        assert np.array_equal(gy_fast, gy_descent.astype(np.intp))

    def test_dyadic_boundaries_match_tree_splits(self, count2d_index):
        """Every leaf edge value appears verbatim in the boundary arrays."""
        directory = count2d_index.directory
        x_values = set(directory._x_boundaries.tolist())
        y_values = set(directory._y_boundaries.tolist())
        for value in directory.lows[:, 0].tolist() + directory.highs[:, 0].tolist():
            assert value in x_values
        for value in directory.lows[:, 1].tolist() + directory.highs[:, 1].tolist():
            assert value in y_values

    def test_degenerate_boundaries_rejected(self):
        assert _dyadic_boundaries(1.0, 1.0, 3) is None
        boundaries = _dyadic_boundaries(0.0, 8.0, 3)
        assert boundaries is not None
        assert np.array_equal(boundaries, np.arange(9.0))


class TestSegmentDirectoryCore:
    def test_flat_arrays_describe_segments(self, count_index):
        directory = count_index._directory
        assert isinstance(directory, SegmentDirectory)
        assert len(directory) == count_index.num_segments
        for row, segment in enumerate(count_index.segments):
            assert directory.lows[row] == segment.key_low
            assert directory.highs[row] == segment.key_high
            assert directory.errors[row] == segment.max_error
        assert not directory.exact_mask.any()
        assert directory.size_in_bytes() > 0

    def test_locate_batch_matches_scalar(self, count_index, tweet_small):
        keys, _ = tweet_small
        directory = count_index._directory
        rng = np.random.default_rng(5)
        probes = np.concatenate(
            (rng.uniform(keys[0] - 10, keys[-1] + 10, 500),
             directory.lows, directory.highs)
        )
        batch = directory.locate_batch(probes)
        scalar = np.array([directory.locate(k) for k in probes])
        assert np.array_equal(batch, scalar)


class TestRangeExtremeTable:
    @pytest.mark.parametrize("maximize", [True, False], ids=["max", "min"])
    @pytest.mark.parametrize("size", [1, 7, 64, 65, 513])
    def test_matches_bruteforce(self, maximize, size):
        rng = np.random.default_rng(size)
        values = rng.normal(size=size)
        table = RangeExtremeTable(values, maximize=maximize)
        lo = rng.integers(0, size, 300)
        hi = np.array([rng.integers(low, size) for low in lo])
        got = table.query(lo, hi)
        expected = np.array(
            [values[low: high + 1].max() if maximize else values[low: high + 1].min()
             for low, high in zip(lo, hi)]
        )
        assert np.array_equal(got, expected)

    def test_rejects_bad_windows(self):
        table = RangeExtremeTable(np.arange(10.0), maximize=True)
        with pytest.raises(QueryError):
            table.query(np.array([3]), np.array([2]))
        with pytest.raises(QueryError):
            table.query(np.array([0]), np.array([10]))


def _codec_clone(index, tmp_path):
    path = tmp_path / "index.pfbin"
    save_index(index, path)
    return load_index(path)


def _rewrite_codec_file(index, tmp_path, edit):
    """Save ``index``, let ``edit(meta, arrays)`` damage the payload, and
    write it back as a well-formed, CRC-valid codec file."""
    path = tmp_path / "edited.pfbin"
    save_index(index, path)
    meta, arrays = read_array_store(path, mmap=False)
    arrays = {name: np.array(array) for name, array in arrays.items()}
    edit(meta, arrays)
    write_array_store(path, arrays, meta)
    return path


class TestDirectorySerialization:
    def test_1d_flat_arrays_round_trip(self, count_index, tmp_path):
        clone = _codec_clone(count_index, tmp_path)
        original = count_index._directory
        restored = clone._directory
        assert np.array_equal(original.keys, restored.keys)
        assert np.array_equal(original.lows, restored.lows)
        assert np.array_equal(original.highs, restored.highs)
        assert np.array_equal(original.errors, restored.errors)
        assert np.array_equal(original.bank.coeffs, restored.bank.coeffs)

    def test_2d_flat_arrays_round_trip(self, count2d_index, tmp_path):
        clone = _codec_clone(count2d_index, tmp_path)
        original = count2d_index.directory
        restored = clone.directory
        assert isinstance(restored, QuadDirectory)
        assert restored.depth == original.depth
        assert restored.root_bounds == original.root_bounds
        assert np.array_equal(original.keys, restored.keys)
        assert np.array_equal(original.lows, restored.lows)
        assert np.array_equal(original.highs, restored.highs)
        assert np.array_equal(original.errors, restored.errors)
        assert np.array_equal(original.exact_mask, restored.exact_mask)
        assert np.array_equal(original.exact_ranges, restored.exact_ranges)
        assert np.array_equal(original.surfaces.coeffs, restored.surfaces.coeffs)
        assert restored.size_in_bytes() == original.size_in_bytes()

    def test_2d_round_trip_answers_agree(self, count2d_index, osm_small, tmp_path):
        xs, ys = osm_small
        clone = _codec_clone(count2d_index, tmp_path)
        rng = np.random.default_rng(41)
        x1 = rng.uniform(xs.min(), xs.max(), 40)
        x2 = np.maximum(x1, rng.uniform(xs.min(), xs.max(), 40))
        y1 = rng.uniform(ys.min(), ys.max(), 40)
        y2 = np.maximum(y1, rng.uniform(ys.min(), ys.max(), 40))
        assert np.array_equal(
            clone.estimate_batch(x1, x2, y1, y2),
            count2d_index.estimate_batch(x1, x2, y1, y2),
        )
        query = RangeQuery2D(float(x1[0]), float(x2[0]), float(y1[0]), float(y2[0]))
        assert clone.query(query).value == count2d_index.query(query).value
        assert clone.exact(query) == count2d_index.exact(query)

    def test_2d_wrong_version_rejected(self, count2d_index, tmp_path):
        def edit(meta, arrays):
            meta["format_version"] = 999

        path = _rewrite_codec_file(count2d_index, tmp_path, edit)
        with pytest.raises(SerializationError):
            load_index(path)

    def test_2d_malformed_directory_rejected(self, count2d_index, tmp_path):
        def edit(meta, arrays):
            del arrays["dir_keys"]

        path = _rewrite_codec_file(count2d_index, tmp_path, edit)
        with pytest.raises(SerializationError):
            load_index(path)

    def test_2d_unsorted_morton_keys_rejected(self, count2d_index, tmp_path):
        def edit(meta, arrays):
            keys = arrays["dir_keys"]
            keys[0], keys[-1] = keys[-1], keys[0]

        path = _rewrite_codec_file(count2d_index, tmp_path, edit)
        with pytest.raises(SerializationError, match="strictly increasing"):
            load_index(path)


class TestExtremeBatchAgainstScalarLoop:
    """The vectorized extreme path vs an explicit per-query reference loop.

    test_batch_equivalence already pins the batch path to the scalar oracle;
    this adds adversarial windows (single-sample, whole-segment, single
    segment interior, all segments) sized to hit every branch of the
    prefix/suffix + interior-table decomposition.
    """

    @pytest.mark.parametrize("aggregate", [Aggregate.MAX, Aggregate.MIN], ids=["max", "min"])
    def test_adversarial_windows(self, small_keys_measures, aggregate):
        keys, measures = small_keys_measures
        index = PolyFitIndex.build(keys, measures, aggregate=aggregate, delta=25.0)
        segments = index.segments
        lows, highs = [], []
        for segment in segments[:10]:
            span_keys = keys[segment.start: segment.stop]
            lows.append(span_keys[0]); highs.append(span_keys[-1])          # whole segment
            mid = span_keys[len(span_keys) // 2]
            lows.append(mid); highs.append(mid)                              # single sample
            if span_keys.size > 2:
                lows.append(span_keys[1]); highs.append(span_keys[-2])       # strict interior
        lows.append(keys[0]); highs.append(keys[-1])                         # all segments
        lows.append(keys[0]); highs.append(keys[min(1, keys.size - 1)])      # tiny prefix
        lows, highs = np.asarray(lows), np.asarray(highs)
        batch = index.estimate_batch(lows, highs)
        from repro.queries.types import RangeQuery

        scalar = np.array(
            [index.estimate(RangeQuery(low, high, aggregate)) for low, high in zip(lows, highs)]
        )
        assert np.allclose(batch, scalar, equal_nan=True)
