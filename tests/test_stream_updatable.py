"""Tests for the streaming write path: UpdatablePolyFitIndex and friends.

The correctness pins, in increasing strength:

* with a *non-empty* delta buffer, ``exact_batch`` equals a rebuild-from-
  scratch oracle exactly (COUNT integer-exact; SUM/MAX/MIN to float
  equality), and every estimate stays within the certified bound of the
  truth;
* after ``compact()``, segment boundaries are identical to a from-scratch
  :func:`~repro.fitting.segmentation.greedy_segmentation` build, and (for
  COUNT/MAX and append-only SUM) the whole index answers bit-identically to
  an index built from scratch over all records;
* the invariants survive interleaved inserts / queries / compactions with
  duplicate and out-of-order keys (hypothesis property test).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Aggregate,
    CompactionPolicy,
    Guarantee,
    PolyFitIndex,
    RangeQuery,
    UpdatablePolyFitIndex,
    load_index,
    save_index,
)
from repro.config import FitConfig, IndexConfig
from repro.errors import DataError, QueryError
from repro.fitting.segmentation import greedy_segmentation
from repro.queries.engine import QueryEngine
from repro.queries.sharding import ShardedQueryEngine
from repro.queries.workloads import generate_range_queries
from repro.stream.buffer import DeltaBuffer


def _boundaries(segments):
    return [(s.start, s.stop, s.key_low, s.key_high) for s in segments]


def _config(degree: int) -> IndexConfig:
    return IndexConfig(fit=FitConfig(degree=degree))


def _count_oracle(all_keys: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    return np.array(
        [
            float(np.count_nonzero((all_keys >= low) & (all_keys <= high)))
            for low, high in zip(lows, highs)
        ]
    )


def _bounds(rng, span, n):
    lows = rng.uniform(span[0] - 10, span[1] + 10, n)
    highs = lows + rng.uniform(0.0, (span[1] - span[0]) / 2, n)
    return lows, highs


class TestDeltaBuffer:
    def test_count_forces_unit_measures(self):
        buffer = DeltaBuffer(Aggregate.COUNT)
        buffer.insert([1.0, 2.0], measures=[7.0, 7.0])
        snapshot = buffer.snapshot()
        assert np.array_equal(snapshot.measures, [1.0, 1.0])

    def test_sum_requires_nonnegative_measures(self):
        buffer = DeltaBuffer(Aggregate.SUM)
        with pytest.raises(DataError):
            buffer.insert([1.0], measures=[-2.0])

    def test_extremes_require_measures(self):
        buffer = DeltaBuffer(Aggregate.MAX)
        with pytest.raises(DataError):
            buffer.insert([1.0])

    def test_rejects_non_finite(self):
        buffer = DeltaBuffer(Aggregate.COUNT)
        with pytest.raises(DataError):
            buffer.insert([np.nan])

    def test_empty_insert_is_noop(self):
        buffer = DeltaBuffer(Aggregate.COUNT)
        assert buffer.insert(np.array([])) == 0
        assert buffer.is_empty

    def test_snapshot_cached_until_mutation(self):
        buffer = DeltaBuffer(Aggregate.COUNT)
        buffer.insert([3.0, 1.0])
        first = buffer.snapshot()
        assert buffer.snapshot() is first
        assert np.array_equal(first.keys, [1.0, 3.0])
        buffer.insert([2.0])
        assert buffer.snapshot() is not first

    def test_contribution_inclusive_bounds(self):
        buffer = DeltaBuffer(Aggregate.COUNT)
        buffer.insert([1.0, 2.0, 2.0, 3.0])
        snapshot = buffer.snapshot()
        assert snapshot.contribution_batch([2.0], [2.0])[0] == 2.0
        assert snapshot.contribution_batch([1.0], [3.0])[0] == 4.0
        assert snapshot.contribution_batch([3.5], [4.0])[0] == 0.0


class TestAppendOnly:
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_compaction_matches_from_scratch(self, degree):
        rng = np.random.default_rng(10 + degree)
        keys = np.sort(rng.uniform(0, 1000, 2500))
        index = UpdatablePolyFitIndex.build(
            keys,
            aggregate=Aggregate.COUNT,
            delta=25.0,
            config=_config(degree),
            policy=CompactionPolicy(auto=False),
        )
        seen = [keys]
        last = float(keys[-1])
        # Several epochs so the degree-1 path exercises the corridor resume.
        for _ in range(3):
            fresh = np.sort(rng.uniform(last + 0.01, last + 400, 700))
            last = float(fresh[-1])
            seen.append(fresh)
            index.insert(fresh)
            all_keys = np.concatenate(seen)
            lows, highs = _bounds(rng, (0.0, last), 150)
            # Non-empty buffer: exact matches the oracle exactly, estimates
            # stay within the certified bound.
            assert index.buffer_size > 0
            assert np.array_equal(
                index.exact_batch(lows, highs), _count_oracle(all_keys, lows, highs)
            )
            errors = np.abs(
                index.estimate_batch(lows, highs) - _count_oracle(all_keys, lows, highs)
            )
            assert np.all(errors <= index.certified_bound + 1e-9)
            index.compact()
            assert index.buffer_size == 0
            scratch = PolyFitIndex.build(
                all_keys, aggregate=Aggregate.COUNT, delta=25.0, config=_config(degree)
            )
            assert _boundaries(index.segments) == _boundaries(scratch.segments)
            assert np.array_equal(
                index.estimate_batch(lows, highs), scratch.estimate_batch(lows, highs)
            )

    def test_sum_append_bit_identical(self):
        rng = np.random.default_rng(21)
        keys = np.sort(rng.uniform(0, 500, 2000))
        measures = rng.uniform(0, 10, 2000)
        index = UpdatablePolyFitIndex.build(
            keys,
            measures,
            aggregate=Aggregate.SUM,
            delta=50.0,
            config=_config(1),
            policy=CompactionPolicy(auto=False),
        )
        fresh = np.sort(rng.uniform(500.01, 900, 800))
        fresh_measures = rng.uniform(0, 10, 800)
        index.insert(fresh, fresh_measures)
        index.compact()
        scratch = PolyFitIndex.build(
            np.concatenate([keys, fresh]),
            np.concatenate([measures, fresh_measures]),
            aggregate=Aggregate.SUM,
            delta=50.0,
            config=_config(1),
        )
        function = index.base._cumulative  # noqa: SLF001
        oracle_function = scratch._cumulative  # noqa: SLF001
        assert np.array_equal(function.values, oracle_function.values)
        assert _boundaries(index.segments) == _boundaries(scratch.segments)

    def test_scanner_resumes_across_epochs(self):
        rng = np.random.default_rng(22)
        keys = np.sort(rng.uniform(0, 100, 1500))
        index = UpdatablePolyFitIndex.build(
            keys,
            aggregate=Aggregate.COUNT,
            delta=15.0,
            config=_config(1),
            policy=CompactionPolicy(auto=False),
        )
        last = float(keys[-1])
        index.insert(np.sort(rng.uniform(last + 0.01, last + 40, 400)))
        index.compact()
        scanner = index._scanner  # noqa: SLF001
        assert scanner is not None and scanner.alive
        last = float(index.base._cumulative.keys[-1])  # noqa: SLF001
        index.insert(np.sort(rng.uniform(last + 0.01, last + 40, 400)))
        index.compact()
        # The retained scanner covers the open last segment of the new base.
        assert index._scanner is not None  # noqa: SLF001
        assert index._scanner_start == index.segments[-1].start  # noqa: SLF001


class TestOutOfOrderAndDuplicates:
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_count_matches_from_scratch(self, degree):
        rng = np.random.default_rng(30 + degree)
        keys = np.sort(rng.uniform(0, 1000, 1500))
        index = UpdatablePolyFitIndex.build(
            keys,
            aggregate=Aggregate.COUNT,
            delta=20.0,
            config=_config(degree),
            policy=CompactionPolicy(auto=False),
        )
        inserted = np.concatenate(
            [
                rng.uniform(-50, 1100, 400),  # out of order, partly out of span
                rng.choice(keys, 80),  # exact duplicates of base keys
            ]
        )
        index.insert(inserted)
        all_keys = np.concatenate([keys, inserted])
        lows, highs = _bounds(rng, (-50.0, 1100.0), 200)
        assert np.array_equal(
            index.exact_batch(lows, highs), _count_oracle(all_keys, lows, highs)
        )
        index.compact()
        scratch = PolyFitIndex.build(
            all_keys, aggregate=Aggregate.COUNT, delta=20.0, config=_config(degree)
        )
        assert _boundaries(index.segments) == _boundaries(scratch.segments)
        assert np.array_equal(
            index.estimate_batch(lows, highs), scratch.estimate_batch(lows, highs)
        )

    def test_sum_out_of_order_boundaries_match_merged_function(self):
        rng = np.random.default_rng(41)
        keys = rng.uniform(0, 300, 1200)
        measures = rng.uniform(0, 5, 1200)
        index = UpdatablePolyFitIndex.build(
            keys,
            measures,
            aggregate=Aggregate.SUM,
            delta=30.0,
            config=_config(1),
            policy=CompactionPolicy(auto=False),
        )
        index.insert(rng.uniform(-20, 320, 300), rng.uniform(0, 5, 300))
        index.compact()
        function = index.base._cumulative  # noqa: SLF001
        reference = greedy_segmentation(function.keys, function.values, delta=30.0, degree=1)
        assert _boundaries(index.segments) == _boundaries(reference)

    def test_prefix_segments_are_reused(self):
        """An insert near the end must not re-fit the early segments."""
        rng = np.random.default_rng(42)
        keys = np.sort(rng.uniform(0, 1000, 3000))
        index = UpdatablePolyFitIndex.build(
            keys,
            aggregate=Aggregate.COUNT,
            delta=10.0,
            config=_config(1),
            policy=CompactionPolicy(auto=False),
        )
        before = index.segments
        assert len(before) > 4
        index.insert(np.array([999.5]))
        index.compact()
        after = index.segments
        # Everything up to the segment containing the touched key is the
        # *same object* — reused, not re-derived.
        reused = sum(1 for a, b in zip(after, before) if a is b)
        assert reused >= len(before) - 2


class TestExtremes:
    @pytest.mark.parametrize("aggregate", [Aggregate.MAX, Aggregate.MIN])
    def test_combined_queries_and_compaction(self, aggregate):
        rng = np.random.default_rng(50)
        keys = np.sort(rng.uniform(0, 100, 1200))
        measures = rng.normal(100, 15, 1200)
        index = UpdatablePolyFitIndex.build(
            keys,
            measures,
            aggregate=aggregate,
            delta=8.0,
            config=_config(1),
            policy=CompactionPolicy(auto=False),
        )
        fresh = rng.uniform(-10, 130, 350)
        fresh_measures = rng.normal(100, 15, 350)
        index.insert(fresh, fresh_measures)
        all_keys = np.concatenate([keys, fresh])
        all_measures = np.concatenate([measures, fresh_measures])
        reduce = np.max if aggregate is Aggregate.MAX else np.min

        lows, highs = _bounds(rng, (-10.0, 130.0), 200)
        exact = index.exact_batch(lows, highs)
        estimates = index.estimate_batch(lows, highs)
        for i, (low, high) in enumerate(zip(lows, highs)):
            window = all_measures[(all_keys >= low) & (all_keys <= high)]
            if window.size == 0:
                assert np.isnan(exact[i]) and np.isnan(estimates[i])
            else:
                truth = float(reduce(window))
                assert exact[i] == truth
                assert abs(estimates[i] - truth) <= index.certified_bound + 1e-9

        index.compact()
        scratch = PolyFitIndex.build(
            all_keys, all_measures, aggregate=aggregate, delta=8.0, config=_config(1)
        )
        assert _boundaries(index.segments) == _boundaries(scratch.segments)
        assert np.array_equal(
            index.estimate_batch(lows, highs),
            scratch.estimate_batch(lows, highs),
            equal_nan=True,
        )

    def test_dominated_duplicate_keeps_base(self):
        rng = np.random.default_rng(51)
        keys = np.sort(rng.uniform(0, 100, 500))
        measures = rng.uniform(50, 60, 500)
        index = UpdatablePolyFitIndex.build(
            keys, measures, aggregate=Aggregate.MAX, delta=5.0,
            config=_config(1), policy=CompactionPolicy(auto=False),
        )
        before = _boundaries(index.segments)
        # A dominated measure at an existing key leaves the function as-is.
        index.insert(np.array([keys[100]]), np.array([0.0]))
        assert index.compact()
        assert _boundaries(index.segments) == before
        assert index.buffer_size == 0
        assert index.epoch == 1


class TestGuaranteesAndPolicy:
    def test_relative_guarantee_falls_back_exactly(self):
        rng = np.random.default_rng(60)
        keys = np.sort(rng.uniform(0, 1000, 3000))
        index = UpdatablePolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=50.0,
            policy=CompactionPolicy(auto=False),
        )
        index.insert(rng.uniform(0, 1000, 200))
        lows, highs = _bounds(rng, (0.0, 1000.0), 100)
        result = index.query_batch(lows, highs, Guarantee.relative(0.01))
        exact = index.exact_batch(lows, highs)
        assert np.all(result.guaranteed)
        assert np.array_equal(result.values[result.exact_fallback],
                              exact[result.exact_fallback])
        relative = np.abs(result.values - exact) / np.maximum(np.abs(exact), 1e-12)
        assert np.all(relative[exact != 0] <= 0.01 + 1e-9)

    def test_absolute_guarantee_flags(self):
        rng = np.random.default_rng(61)
        keys = np.sort(rng.uniform(0, 100, 500))
        index = UpdatablePolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=10.0,
            policy=CompactionPolicy(auto=False),
        )
        index.insert(np.array([200.0]))
        query = RangeQuery(10.0, 90.0, Aggregate.COUNT)
        assert index.query(query, Guarantee.absolute(50.0)).guaranteed
        assert not index.query(query, Guarantee.absolute(1e-6)).guaranteed

    def test_auto_compaction_threshold(self):
        rng = np.random.default_rng(62)
        keys = np.sort(rng.uniform(0, 100, 400))
        index = UpdatablePolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=10.0,
            policy=CompactionPolicy(max_buffer=100, auto=True),
        )
        index.insert(rng.uniform(100, 110, 99))
        assert index.epoch == 0 and index.buffer_size == 99
        index.insert(rng.uniform(110, 111, 1))
        assert index.epoch == 1 and index.buffer_size == 0

    def test_max_fraction_threshold(self):
        policy = CompactionPolicy(max_buffer=10_000, max_fraction=0.1)
        assert policy.threshold(100) == 10
        assert policy.should_compact(10, 100)
        assert not policy.should_compact(9, 100)

    def test_policy_validation(self):
        with pytest.raises(QueryError):
            CompactionPolicy(max_buffer=0)
        with pytest.raises(QueryError):
            CompactionPolicy(max_fraction=-1.0)


class TestSnapshotOverlay:
    def test_snapshot_is_frozen(self):
        rng = np.random.default_rng(70)
        keys = np.sort(rng.uniform(0, 100, 800))
        index = UpdatablePolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=10.0,
            policy=CompactionPolicy(auto=False),
        )
        index.insert(np.array([200.0, 201.0]))
        overlay = index.snapshot()
        lows, highs = np.array([0.0]), np.array([300.0])
        before = overlay.exact_batch(lows, highs).copy()
        index.insert(np.array([202.0, 203.0]))
        # The old overlay still answers from its epoch ...
        assert np.array_equal(overlay.exact_batch(lows, highs), before)
        # ... while the index's current snapshot sees the new records.
        assert index.exact_batch(lows, highs)[0] == before[0] + 2

    def test_buffered_inserts_only_add_to_base_estimate(self, tweet_small):
        keys, _ = tweet_small
        index = UpdatablePolyFitIndex.build(
            keys, delta=40.0, policy=CompactionPolicy(auto=False)
        )
        rng = np.random.default_rng(23)
        inserted = rng.uniform(keys.min(), keys.max(), 200)
        index.insert(inserted)
        lows = rng.uniform(keys.min(), keys.max(), 500)
        highs = lows + rng.uniform(0, 20, 500)
        combined = index.estimate_batch(lows, highs)
        base = index.base.estimate_batch(lows, highs)
        # The overlay adds the buffer's exact count on top of the base
        # estimate, and nothing else.
        buffered = _count_oracle(inserted, lows, highs)
        assert np.array_equal(combined, base + buffered)
        assert np.all(combined - base >= 0)

    def test_overlay_epoch_and_aggregate_guard(self):
        rng = np.random.default_rng(71)
        keys = np.sort(rng.uniform(0, 100, 300))
        index = UpdatablePolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=10.0)
        overlay = index.snapshot()
        assert overlay.epoch == index.epoch
        with pytest.raises(Exception):
            overlay.query(RangeQuery(0, 1, Aggregate.MAX))


class TestPersistence:
    def test_round_trip_preserves_snapshot(self, tmp_path):
        rng = np.random.default_rng(80)
        keys = np.sort(rng.uniform(0, 500, 1200))
        index = UpdatablePolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=25.0,
            policy=CompactionPolicy(max_buffer=5000, max_fraction=0.5, auto=False),
        )
        index.insert(rng.uniform(400, 900, 300))
        index.compact()
        index.insert(rng.uniform(0, 900, 150))

        path = tmp_path / "u.pfbin"
        save_index(index, path)
        clone = load_index(path)
        assert isinstance(clone, UpdatablePolyFitIndex)
        assert clone.epoch == index.epoch
        assert clone.buffer_size == index.buffer_size
        assert clone.policy == index.policy
        lows, highs = _bounds(rng, (0.0, 900.0), 120)
        assert np.array_equal(
            clone.estimate_batch(lows, highs), index.estimate_batch(lows, highs)
        )
        assert np.array_equal(
            clone.exact_batch(lows, highs), index.exact_batch(lows, highs)
        )

    def test_sharded_workers_share_persisted_snapshot(self, tmp_path):
        rng = np.random.default_rng(81)
        keys = np.sort(rng.uniform(0, 500, 1500))
        index = UpdatablePolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=25.0,
            policy=CompactionPolicy(auto=False),
        )
        index.insert(rng.uniform(0, 700, 400))
        path = tmp_path / "u.pfbin"
        save_index(index, path)
        lows, highs = _bounds(rng, (0.0, 700.0), 2000)
        reference = index.estimate_batch(lows, highs)
        with ShardedQueryEngine(
            load_index(path), num_shards=2, min_queries_per_shard=1
        ) as engine:
            assert np.array_equal(engine.estimate_batch(lows, highs), reference)


class TestEngineIntegration:
    def test_for_index_detects_updatable_batch(self):
        rng = np.random.default_rng(90)
        keys = np.sort(rng.uniform(0, 1000, 2000))
        index = UpdatablePolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=50.0,
            policy=CompactionPolicy(auto=False),
        )
        index.insert(rng.uniform(0, 1000, 100))
        queries = generate_range_queries(keys, 50, Aggregate.COUNT, seed=9)
        with QueryEngine.for_index(index, name="updatable") as engine:
            assert engine.supports_batch
            batch = engine.run(queries)
            scalar = engine.run(queries, prefer_batch=False)
            for (batch_result, batch_exact), (scalar_result, scalar_exact) in zip(
                batch, scalar
            ):
                assert batch_result.value == scalar_result.value
                assert batch_exact == scalar_exact

    def test_sharded_engine_pins_snapshot(self):
        rng = np.random.default_rng(91)
        keys = np.sort(rng.uniform(0, 1000, 2000))
        index = UpdatablePolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=50.0,
            policy=CompactionPolicy(auto=False),
        )
        index.insert(rng.uniform(0, 1000, 100))
        queries = generate_range_queries(keys, 40, Aggregate.COUNT, seed=10)
        with QueryEngine.for_index(index, num_shards=2) as engine:
            before = [result.value for result, _ in engine.run(queries)]
            # Later inserts do not leak into the engine's pinned epoch —
            # neither through the batch path nor the scalar oracle path.
            index.insert(rng.uniform(0, 1000, 500))
            after = [result.value for result, _ in engine.run(queries)]
            assert before == after
            scalar = [
                result.value
                for result, _ in engine.run(queries, prefer_batch=False)
            ]
            assert scalar == before
        live = [result.value for result, _ in QueryEngine.for_index(index).run(queries)]
        assert live != before


# ----------------------------------------------------------------------- #
# Property test: interleaved inserts / queries / compactions vs an oracle
# ----------------------------------------------------------------------- #

_chunks = st.lists(
    st.tuples(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False,
                      allow_infinity=False),
            min_size=1,
            max_size=12,
        ),
        st.booleans(),  # compact after this chunk?
    ),
    min_size=1,
    max_size=6,
)


class TestPropertyOracle:
    @settings(max_examples=40, deadline=None)
    @given(chunks=_chunks, degree=st.integers(min_value=0, max_value=2),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_interleaved_matches_rebuild_oracle(self, chunks, degree, seed):
        rng = np.random.default_rng(seed)
        base_keys = np.sort(rng.uniform(-100, 100, 60))
        delta = 3.0
        index = UpdatablePolyFitIndex.build(
            base_keys,
            aggregate=Aggregate.COUNT,
            delta=delta,
            config=_config(degree),
            policy=CompactionPolicy(auto=False),
        )
        seen = [base_keys]
        lows = np.array([-150.0, -40.0, 0.0, 17.3])
        highs = np.array([150.0, 40.0, 0.0, 92.1])
        for inserted, do_compact in chunks:
            inserted = np.asarray(inserted, dtype=np.float64)
            index.insert(inserted)
            seen.append(inserted)
            all_keys = np.concatenate(seen)
            assert np.array_equal(
                index.exact_batch(lows, highs), _count_oracle(all_keys, lows, highs)
            )
            errors = np.abs(
                index.estimate_batch(lows, highs) - _count_oracle(all_keys, lows, highs)
            )
            assert np.all(errors <= index.certified_bound + 1e-9)
            if do_compact:
                index.compact()
                scratch = PolyFitIndex.build(
                    all_keys,
                    aggregate=Aggregate.COUNT,
                    delta=delta,
                    config=_config(degree),
                )
                assert _boundaries(index.segments) == _boundaries(scratch.segments)
                assert np.array_equal(
                    index.estimate_batch(lows, highs),
                    scratch.estimate_batch(lows, highs),
                )
