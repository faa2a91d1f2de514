"""Write-ahead log and crash-recovery tests.

The durability claim is universally quantified and these tests quantify it:

* **replay bit-identity** — recovering a base (or checkpoint) plus its WAL
  reproduces the live index's answers bit-for-bit, for all four aggregates,
  1-D and 2-D, across compactions;
* **crash-point sweep** — a :class:`~repro.testing.faults.FaultyFile` kills
  the log write at *every byte offset* of an ingest run; recovery must then
  produce exactly the acknowledged prefix (acked inserts all present,
  unacked batch absent), never a torn or invented state;
* **truncation sweep** — chopping the log at every byte offset recovers
  some acknowledged prefix, never wrong data;
* **corruption** — a bit flip before the final frame is detected as
  corruption (typed :class:`~repro.errors.SerializationError`); a flip in
  the final frame is indistinguishable from a torn write and recovers the
  prefix without it.  Either way: a typed error or a correct prefix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Aggregate, CompactionPolicy, UpdatablePolyFitIndex
from repro.config import FitConfig, IndexConfig, SegmentationConfig
from repro.errors import SerializationError
from repro.stream import WriteAheadLog, scan_wal
from repro.stream.wal import RT_COMPACT, RT_INSERT1D, RT_SEAL
from repro.stream.updatable2d import UpdatablePolyFit2DIndex
from repro.testing.faults import CrashPoint, FaultyFile, flip_bit, truncate_file

FAST = IndexConfig(fit=FitConfig(degree=1), segmentation=SegmentationConfig(delta=25.0))
AGGREGATES = [Aggregate.COUNT, Aggregate.SUM, Aggregate.MAX, Aggregate.MIN]


def _records(n=400, seed=3):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.uniform(0.0, 1000.0, size=n))
    measures = rng.uniform(1.0, 50.0, size=n)
    return keys, measures


def _build(aggregate, keys, measures, **kwargs):
    return UpdatablePolyFitIndex.build(
        keys,
        None if aggregate is Aggregate.COUNT else measures,
        aggregate=aggregate,
        delta=25.0,
        config=FAST,
        **kwargs,
    )


def _probe(index):
    lows = np.array([0.0, 100.0, 400.0, 900.0, -np.inf])
    highs = np.array([1500.0, 350.0, 650.0, 950.0, np.inf])
    bounds = (lows, highs) if index.dims == 1 else (lows / 10, highs / 10) * 2
    return index.exact_batch(*bounds), index.estimate_batch(*bounds)


def _same_answers(left, right):
    (le, la), (re, ra) = _probe(left), _probe(right)
    return np.array_equal(le, re, equal_nan=True) and np.array_equal(
        la, ra, equal_nan=True
    )


class TestWalFraming:
    def test_scan_round_trip(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append_insert(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
            wal.append_insert(np.array([5.0]))
            wal.append_compaction(1)
            wal.append_seal(epoch=1, buffer_size=0)
        scan = scan_wal(path)
        assert [r.kind for r in scan.records] == [
            RT_INSERT1D, RT_INSERT1D, RT_COMPACT, RT_SEAL
        ]
        assert np.array_equal(scan.records[0].keys, [1.0, 2.0])
        assert np.array_equal(scan.records[0].measures, [3.0, 4.0])
        assert scan.records[1].measures is None
        assert scan.records[2].epoch == 1
        assert scan.truncated_bytes == 0 and scan.damage is None

    def test_reopen_appends_after_valid_tail(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append_insert(np.array([1.0]))
        with WriteAheadLog(path) as wal:
            assert len(wal.scanned_records) == 1
            wal.append_insert(np.array([2.0]))
        assert len(scan_wal(path).records) == 2

    def test_bad_magic_is_typed(self, tmp_path):
        path = tmp_path / "not.wal"
        path.write_bytes(b"GARBAGE!" + b"\x00" * 32)
        with pytest.raises(SerializationError, match="bad magic"):
            scan_wal(path)

    def test_group_commit_batches_syncs(self, tmp_path):
        path = tmp_path / "log.wal"
        handles = []

        def opener(p, mode):
            handle = FaultyFile(p, mode=mode)
            handles.append(handle)
            return handle

        with WriteAheadLog(path, sync_every=3, opener=opener) as wal:
            for _ in range(6):
                wal.append_insert(np.array([1.0]))
        # 1 creation sync + 2 group barriers + 1 close (nothing pending).
        assert handles[0].sync_calls == 3 + 1

    def test_failed_fsync_does_not_ack(self, tmp_path):
        path = tmp_path / "log.wal"
        keys, measures = _records(64)
        handles = []

        def opener(p, mode):
            handle = FaultyFile(p, mode=mode)
            handles.append(handle)
            return handle

        index = _build(Aggregate.COUNT, keys, measures, wal_path=path, wal_opener=opener)
        handles[0]._fail_sync = True  # the creation barrier passed; fail the next
        with pytest.raises(CrashPoint):
            index.insert(np.array([2000.0]))
        # The failed barrier meant the insert was never acknowledged (the
        # live index never applied it) — recovery may or may not surface the
        # in-flight record (classic WAL semantics), but never a torn state.
        assert index.buffer_size == 0
        handles[0]._fail_sync = False
        index.wal.close()
        base = _build(Aggregate.COUNT, keys, measures)
        recovered = UpdatablePolyFitIndex.recover(base.base, path)
        assert recovered.buffer_size in (0, 1)


class TestReplayBitIdentity:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_recover_from_base_replays_everything(self, tmp_path, aggregate):
        keys, measures = _records()
        wal = tmp_path / "ingest.wal"
        live = _build(
            aggregate, keys[:200], measures[:200],
            policy=CompactionPolicy(max_buffer=64, auto=True),
            wal_path=wal,
        )
        for start in range(200, 400, 40):
            live.insert(
                keys[start:start + 40],
                None if aggregate is Aggregate.COUNT else measures[start:start + 40],
            )
        live.wal.close()
        base = _build(aggregate, keys[:200], measures[:200])
        recovered = UpdatablePolyFitIndex.recover(
            base.base, wal, policy=CompactionPolicy(max_buffer=64, auto=True)
        )
        assert recovered.epoch == live.epoch
        assert recovered.buffer_size == live.buffer_size
        assert _same_answers(recovered, live)

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_checkpoint_then_suffix_replay(self, tmp_path, aggregate):
        keys, measures = _records()
        wal = tmp_path / "ingest.wal"
        live = _build(aggregate, keys[:200], measures[:200], wal_path=wal)
        live.insert(keys[200:260], None if aggregate is Aggregate.COUNT else measures[200:260])
        checkpoint = live.checkpoint(tmp_path / "ckpt.pfbin")
        live.insert(keys[260:320], None if aggregate is Aggregate.COUNT else measures[260:320])
        live.compact()
        live.insert(keys[320:], None if aggregate is Aggregate.COUNT else measures[320:])
        live.wal.close()
        recovered = UpdatablePolyFitIndex.recover(checkpoint, wal, verify=True)
        assert recovered.epoch == live.epoch
        assert _same_answers(recovered, live)

    def test_recover_2d_checkpoint(self, tmp_path):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 100, 3000)
        ys = rng.uniform(0, 100, 3000)
        ws = rng.uniform(1, 5, 3000)
        wal = tmp_path / "ingest2d.wal"
        live = UpdatablePolyFit2DIndex.build(
            xs, ys, ws, aggregate=Aggregate.SUM, delta=500.0, wal_path=wal
        )
        live.insert(np.array([5.0, 6.0]), np.array([7.0, 8.0]), np.array([2.0, 3.0]))
        checkpoint = live.checkpoint(tmp_path / "ckpt2d.pfbin")
        live.insert(np.array([50.0]), np.array([60.0]), np.array([4.0]))
        live.compact()
        live.wal.close()
        recovered = UpdatablePolyFit2DIndex.recover(checkpoint, wal)
        assert recovered.epoch == live.epoch
        lows = np.array([0.0, 40.0]); highs = np.array([100.0, 70.0])
        assert np.array_equal(
            recovered.exact_batch(lows, highs, lows, highs),
            live.exact_batch(lows, highs, lows, highs),
        )
        assert np.array_equal(
            recovered.estimate_batch(lows, highs, lows, highs),
            live.estimate_batch(lows, highs, lows, highs),
        )

    def test_logging_does_not_perturb_answers(self, tmp_path):
        keys, measures = _records(1200, seed=5)
        lows, highs = np.sort(np.random.default_rng(6).uniform(-10, 1010, (2, 300)), axis=0)
        plain = _build(Aggregate.COUNT, keys[:600], measures[:600])
        logged = [
            _build(Aggregate.COUNT, keys[:600], measures[:600],
                   wal_path=tmp_path / f"sync{every}.wal", wal_sync_every=every)
            for every in (64, 1)
        ]
        for start in range(600, 1200, 100):
            for index in (plain, *logged):
                index.insert(keys[start:start + 100])
        for index in logged:
            assert np.array_equal(
                index.estimate_batch(lows, highs), plain.estimate_batch(lows, highs)
            )
            assert np.array_equal(index.exact_batch(lows, highs), plain.exact_batch(lows, highs))
            index.close()

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_checkpointed_base_replays_any_log_length(self, tmp_path, fraction):
        keys, measures = _records(1200, seed=8)
        lows, highs = np.sort(np.random.default_rng(9).uniform(-10, 1010, (2, 300)), axis=0)
        checkpoint = _build(Aggregate.COUNT, keys[:600], measures[:600]).checkpoint(
            tmp_path / "base.pfbin"
        )
        wal = tmp_path / "suffix.wal"
        writer = _build(
            Aggregate.COUNT, keys[:600], measures[:600], wal_path=wal, wal_sync_every=64
        )
        stop = 600 + int(600 * fraction)
        for start in range(600, stop, 100):
            writer.insert(keys[start:min(start + 100, stop)])
        writer.close()
        recovered = UpdatablePolyFitIndex.recover(checkpoint, wal)
        assert np.array_equal(
            recovered.estimate_batch(lows, highs), writer.estimate_batch(lows, highs)
        )
        assert np.array_equal(
            recovered.exact_batch(lows, highs), writer.exact_batch(lows, highs)
        )
        recovered.close()

    def test_fresh_wal_refuses_existing_records(self, tmp_path):
        keys, measures = _records(64)
        wal = tmp_path / "ingest.wal"
        index = _build(Aggregate.COUNT, keys, measures, wal_path=wal)
        index.insert(np.array([1.0]))
        index.wal.close()
        with pytest.raises(SerializationError, match="use recover"):
            _build(Aggregate.COUNT, keys, measures, wal_path=wal)

    def test_dimension_mismatch_is_typed(self, tmp_path):
        keys, measures = _records(64)
        wal = tmp_path / "ingest.wal"
        index = _build(Aggregate.COUNT, keys, measures, wal_path=wal)
        index.insert(np.array([1.0]))
        index.wal.close()
        rng = np.random.default_rng(1)
        base2d = UpdatablePolyFit2DIndex.build(
            rng.uniform(0, 10, 2000), rng.uniform(0, 10, 2000), None,
            aggregate=Aggregate.COUNT, delta=500.0,
        )
        base2d.compact()
        with pytest.raises(SerializationError):
            UpdatablePolyFit2DIndex.recover(base2d.base, wal)

    def test_wrong_checkpoint_for_log_is_typed(self, tmp_path):
        keys, measures = _records(128)
        wal = tmp_path / "ingest.wal"
        index = _build(Aggregate.COUNT, keys, measures, wal_path=wal)
        index.insert(np.array([1.0]))
        checkpoint = index.checkpoint(tmp_path / "ckpt.pfbin")
        index.wal.close()
        # A fresh, shorter log that cannot contain the checkpoint's prefix.
        other = tmp_path / "other.wal"
        WriteAheadLog(other).close()
        with pytest.raises(SerializationError, match="wrong log"):
            UpdatablePolyFitIndex.recover(checkpoint, other)


# Crash sweeps run the same ingest through both dimensions: ``dims`` picks
# 1-D keys in [0, 1000] or 2-D points in [0, 100]^2.
SWEEP_CASES = [
    pytest.param(1, Aggregate.COUNT, id="count"),
    pytest.param(1, Aggregate.SUM, id="sum"),
    pytest.param(2, Aggregate.COUNT, id="2d-count"),
    pytest.param(2, Aggregate.SUM, id="2d-sum"),
]


def _sweep_records(dims, n, seed):
    """``(coordinate columns, measures)`` for ``n`` records."""
    keys, measures = _records(n, seed=seed)
    if dims == 1:
        return (keys,), measures
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 100.0, n)), measures


def _sweep_build(dims, aggregate, columns, measures, stop, **kwargs):
    """An updatable index over the first ``stop`` records."""
    coordinates = [column[:stop] for column in columns]
    if dims == 1:
        return _build(aggregate, *coordinates, measures[:stop], **kwargs)
    return UpdatablePolyFit2DIndex.build(
        *coordinates,
        None if aggregate is Aggregate.COUNT else measures[:stop],
        aggregate=aggregate,
        delta=500.0,
        grid_resolution=16,
        **kwargs,
    )


def _sweep_batch(aggregate, columns, measures, start, stop):
    """Insert arguments for records ``[start, stop)``."""
    batch = [column[start:stop] for column in columns]
    batch.append(None if aggregate is Aggregate.COUNT else measures[start:stop])
    return batch


def _ingest_with_budget(tmp_path, dims, aggregate, budget):
    """One WAL'd ingest run killed after ``budget`` log bytes.

    Returns ``(acked, crashed, wal_path, base)`` where ``acked`` lists the
    insert arguments of every batch whose insert() returned and ``base`` is
    a fresh updatable index over the pre-ingest records.
    """
    columns, measures = _sweep_records(dims, 160, seed=11)
    wal = tmp_path / f"crash-{budget}.wal"
    index = _sweep_build(
        dims, aggregate, columns, measures, 80,
        wal_path=wal,
        wal_opener=lambda p, mode: FaultyFile(p, mode=mode, fail_after=budget),
    )
    acked = []
    try:
        for start in range(80, 160, 16):
            batch = _sweep_batch(aggregate, columns, measures, start, start + 16)
            index.insert(*batch)
            acked.append(batch)
        crashed = False
    except CrashPoint:
        crashed = True
    return acked, crashed, wal, _sweep_build(dims, aggregate, columns, measures, 80)


class TestCrashPointSweep:
    @pytest.mark.parametrize("dims, aggregate", SWEEP_CASES)
    def test_recovery_at_every_injection_site(self, tmp_path, dims, aggregate):
        # Full run first to learn the log length, then kill at every offset
        # (stride keeps the sweep dense but affordable; offsets hit frame
        # headers, payload bytes and sync boundaries alike).
        acked, crashed, wal, _ = _ingest_with_budget(tmp_path, dims, aggregate, 10**9)
        assert not crashed
        total = wal.stat().st_size
        for budget in range(8, total, 7):
            acked, crashed, wal, base = _ingest_with_budget(
                tmp_path, dims, aggregate, budget
            )
            recovered = type(base).recover(base.base, wal)
            # Exactly the acknowledged batches must be present: the WAL
            # syncs before insert() returns, so an acked batch survives any
            # later crash, and the torn batch was never acked.
            for batch in acked:
                base.insert(*batch)
            assert _same_answers(recovered, base), (dims, aggregate, budget)

    @pytest.mark.parametrize("dims, aggregate", SWEEP_CASES)
    def test_truncation_sweep_recovers_a_prefix(self, tmp_path, dims, aggregate):
        columns, measures = _sweep_records(dims, 96, seed=5)
        wal = tmp_path / "trunc.wal"
        index = _sweep_build(dims, aggregate, columns, measures, 48, wal_path=wal)
        prefixes = [_sweep_build(dims, aggregate, columns, measures, 48)]
        for start in range(48, 96, 12):
            index.insert(*_sweep_batch(aggregate, columns, measures, start, start + 12))
            snapshot = _sweep_build(dims, aggregate, columns, measures, 48)
            for stop in range(60, start + 13, 12):
                snapshot.insert(*_sweep_batch(aggregate, columns, measures, stop - 12, stop))
            prefixes.append(snapshot)
        index.wal.close()
        total = wal.stat().st_size
        prefix_answers = [_probe(p) for p in prefixes]
        for cut in range(0, total, 5):
            clone = tmp_path / "cut.wal"
            clone.write_bytes(wal.read_bytes()[:cut])
            base = _sweep_build(dims, aggregate, columns, measures, 48)
            recovered = type(base).recover(base.base, clone)
            got = _probe(recovered)
            assert any(
                np.array_equal(got[0], exact) and np.array_equal(got[1], approx)
                for exact, approx in prefix_answers
            ), f"truncation at {cut} produced a non-prefix state"

    def test_bit_flip_sweep_never_wrong_data(self, tmp_path):
        keys, measures = _records(96, seed=9)
        wal = tmp_path / "flip.wal"
        index = _build(Aggregate.COUNT, keys[:48], measures[:48], wal_path=wal)
        prefixes = [_build(Aggregate.COUNT, keys[:48], measures[:48])]
        for start in range(48, 96, 12):
            index.insert(keys[start:start + 12])
            snapshot = _build(Aggregate.COUNT, keys[:48], measures[:48])
            for stop in range(60, start + 13, 12):
                snapshot.insert(keys[stop - 12:stop])
            prefixes.append(snapshot)
        index.wal.close()
        pristine = wal.read_bytes()
        prefix_answers = [_probe(p) for p in prefixes]
        for offset in range(0, len(pristine), 11):
            clone = tmp_path / "flipped.wal"
            clone.write_bytes(pristine)
            flip_bit(clone, offset)
            base = _build(Aggregate.COUNT, keys[:48], measures[:48])
            try:
                recovered = UpdatablePolyFitIndex.recover(base.base, clone)
            except SerializationError:
                continue  # detected: a typed error, never silent corruption
            got = _probe(recovered)
            assert any(
                np.array_equal(got[0], exact) and np.array_equal(got[1], approx)
                for exact, approx in prefix_answers
            ), f"bit flip at {offset} produced a non-prefix state"

    def test_truncate_file_helper_matches_manual_cut(self, tmp_path):
        path = tmp_path / "t.wal"
        with WriteAheadLog(path) as wal:
            wal.append_insert(np.arange(4, dtype=float))
        before = path.read_bytes()
        truncate_file(path, len(before) - 5)
        assert path.read_bytes() == before[:-5]
