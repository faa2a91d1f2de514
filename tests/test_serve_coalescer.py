"""Coalescer and EngineHost tests: bit-identity, edge cases, epochs.

No pytest-asyncio dependency: each test drives its own event loop through
``asyncio.run``.  The correctness bar mirrors the rest of the repo — served
answers must be *bit-identical* to calling ``query_batch`` directly.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro import (
    Aggregate,
    CompactionPolicy,
    Guarantee,
    PolyFitIndex,
    PolyFit2DIndex,
    UpdatablePolyFitIndex,
)
from repro.errors import NotSupportedError, QueryError, ServerOverloadedError
from repro.serve import Coalescer, EngineHost

DELTA = 50.0


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(0)
    return np.sort(rng.uniform(0.0, 1000.0, size=30_000))


@pytest.fixture(scope="module")
def index(keys):
    return PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=DELTA)


def make_bounds(count, seed=1, span=(0.0, 1000.0)):
    rng = np.random.default_rng(seed)
    draws = rng.uniform(span[0], span[1], size=(2, count))
    lows, highs = np.minimum(draws[0], draws[1]), np.maximum(draws[0], draws[1])
    return lows, highs


def gather_answers(coalescer, lows, highs, guarantee=None, **submit_kwargs):
    async def run():
        futures = [
            coalescer.submit((low, high), guarantee, **submit_kwargs)
            for low, high in zip(lows, highs)
        ]
        answers = await asyncio.gather(*futures)
        await coalescer.stop()
        return answers

    return asyncio.run(run())


def answers_to_columns(answers):
    values = np.array([a.value for a in answers], dtype=np.float64)
    guaranteed = np.array([a.guaranteed for a in answers], dtype=bool)
    fallback = np.array([a.exact_fallback for a in answers], dtype=bool)
    bounds = np.array(
        [np.nan if a.error_bound is None else a.error_bound for a in answers],
        dtype=np.float64,
    )
    return values, guaranteed, fallback, bounds


class TestBitIdentity:
    """Coalesced answers == direct query_batch answers, bit for bit."""

    def test_plain_count_batch(self, index):
        lows, highs = make_bounds(500)
        coalescer = Coalescer(EngineHost(index))
        answers = gather_answers(coalescer, lows, highs)
        direct = index.query_batch(lows, highs)
        values, guaranteed, fallback, bounds = answers_to_columns(answers)
        assert np.array_equal(values, direct.values)
        assert np.array_equal(guaranteed, direct.guaranteed)
        assert np.array_equal(fallback, direct.exact_fallback)
        assert np.array_equal(bounds, direct.error_bounds, equal_nan=True)

    @pytest.mark.parametrize(
        "guarantee",
        [Guarantee.absolute(2 * DELTA), Guarantee.relative(0.05)],
        ids=["absolute", "relative"],
    )
    def test_guaranteed_queries(self, index, guarantee):
        lows, highs = make_bounds(300, seed=2)
        coalescer = Coalescer(EngineHost(index))
        answers = gather_answers(coalescer, lows, highs, guarantee)
        direct = index.query_batch(lows, highs, guarantee)
        values, guaranteed, fallback, bounds = answers_to_columns(answers)
        assert np.array_equal(values, direct.values)
        assert np.array_equal(guaranteed, direct.guaranteed)
        assert np.array_equal(fallback, direct.exact_fallback)
        assert np.array_equal(bounds, direct.error_bounds, equal_nan=True)

    def test_mixed_guarantees_coalesce_separately(self, index):
        """Different guarantees never share a batch (separate queues)."""
        lows, highs = make_bounds(60, seed=3)
        guarantee = Guarantee.relative(0.05)

        async def run():
            coalescer = Coalescer(EngineHost(index))
            plain = [
                coalescer.submit((low, high)) for low, high in zip(lows, highs)
            ]
            certified = [
                coalescer.submit((low, high), guarantee)
                for low, high in zip(lows, highs)
            ]
            answers = await asyncio.gather(*plain, *certified)
            await coalescer.stop()
            return answers

        answers = asyncio.run(run())
        direct_plain = index.query_batch(lows, highs)
        direct_certified = index.query_batch(lows, highs, guarantee)
        values = np.array([a.value for a in answers])
        assert np.array_equal(values[:60], direct_plain.values)
        assert np.array_equal(values[60:], direct_certified.values)

    def test_two_key_host(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 100, size=5_000)
        ys = rng.uniform(0, 100, size=5_000)
        index2d = PolyFit2DIndex.build(xs, ys, aggregate=Aggregate.COUNT, delta=25.0)
        host = EngineHost(index2d)
        assert host.dims == 2
        x_lows, x_highs = make_bounds(100, seed=8, span=(0.0, 100.0))
        y_lows, y_highs = make_bounds(100, seed=9, span=(0.0, 100.0))

        async def run():
            coalescer = Coalescer(host)
            futures = [
                coalescer.submit((xl, xh, yl, yh))
                for xl, xh, yl, yh in zip(x_lows, x_highs, y_lows, y_highs)
            ]
            answers = await asyncio.gather(*futures)
            await coalescer.stop()
            return answers

        answers = asyncio.run(run())
        direct = index2d.query_batch(x_lows, x_highs, y_lows, y_highs)
        assert np.array_equal(
            np.array([a.value for a in answers]), direct.values
        )


class TestEdgeCases:
    def test_single_request_rides_a_batch_of_one(self, index):
        coalescer = Coalescer(EngineHost(index))
        answers = gather_answers(coalescer, [100.0], [600.0])
        direct = index.query_batch(np.array([100.0]), np.array([600.0]))
        assert answers[0].value == direct.values[0]
        assert answers[0].batch_size == 1
        assert coalescer.stats.batches == 1

    def test_lone_request_flushes_without_a_timer(self, index):
        """An idle queue flushes after a few loop turns, not after a sleep."""

        async def run():
            coalescer = Coalescer(EngineHost(index))
            future = coalescer.submit((100.0, 600.0))
            for _ in range(3):
                await asyncio.sleep(0)
            # The slice was popped and its engine call issued without the
            # loop ever idling on a timer.
            assert coalescer.stats.ticks == 1
            answer = await future
            await coalescer.stop()
            return answer

        answer = asyncio.run(run())
        assert answer.batch_size == 1

    def test_zero_arrival_ticks_idle_out(self, index):
        """A drained queue stops its flusher; no batches run while idle."""

        async def run():
            coalescer = Coalescer(EngineHost(index))
            answer = await coalescer.submit((10.0, 500.0))
            assert answer.value >= 0.0
            # Once its queue is empty the flusher must have exited rather
            # than spin (its task is done), and no further batches or ticks
            # accumulate while nothing arrives.
            await asyncio.sleep(0.01)
            flushers = list(coalescer._flushers.values())
            assert all(task.done() for task in flushers)
            ticks_when_idle = coalescer.stats.ticks
            await asyncio.sleep(0.01)
            assert coalescer.stats.ticks == ticks_when_idle
            assert coalescer.stats.batches == 1
            await coalescer.stop()

        asyncio.run(run())

    def test_arrivals_during_a_flush_ride_the_next_batch(self, index):
        """Group commit: a lone request flushes at once; requests queued
        while its engine call runs form exactly one follow-up batch."""
        entered, release = threading.Event(), threading.Event()

        class BlockingIndex:
            def query_batch(self, lows, highs, guarantee=None):
                entered.set()
                assert release.wait(timeout=10.0), "engine never released"
                return index.query_batch(lows, highs, guarantee)

        lows, highs = make_bounds(11, seed=14)

        async def run():
            coalescer = Coalescer(EngineHost(BlockingIndex()))
            loop = asyncio.get_running_loop()
            first = coalescer.submit((lows[0], highs[0]))
            assert await loop.run_in_executor(None, entered.wait, 10.0)
            rest = [
                coalescer.submit((low, high))
                for low, high in zip(lows[1:], highs[1:])
            ]
            release.set()
            answers = await asyncio.gather(first, *rest)
            await coalescer.stop()
            return coalescer.stats, answers

        stats, answers = asyncio.run(run())
        assert stats.batches == 2
        assert stats.served == 11
        assert [a.batch_size for a in answers] == [1] + [10] * 10
        direct = index.query_batch(lows, highs)
        values, guaranteed, fallback, bounds = answers_to_columns(answers)
        assert np.array_equal(values, direct.values)
        assert np.array_equal(guaranteed, direct.guaranteed)
        assert np.array_equal(fallback, direct.exact_fallback)
        assert np.array_equal(bounds, direct.error_bounds, equal_nan=True)

    def test_max_batch_overflow_splits(self, index):
        lows, highs = make_bounds(100, seed=4)
        coalescer = Coalescer(EngineHost(index), max_batch=32)
        answers = gather_answers(coalescer, lows, highs)
        direct = index.query_batch(lows, highs)
        assert np.array_equal(
            np.array([a.value for a in answers]), direct.values
        )
        assert coalescer.stats.max_batch_size <= 32
        assert coalescer.stats.batches >= 4
        assert all(a.batch_size <= 32 for a in answers)

    def test_admission_control_fast_fails(self, index):
        async def run():
            coalescer = Coalescer(EngineHost(index), max_pending=10)
            accepted = [
                coalescer.submit((float(i), float(i + 1))) for i in range(10)
            ]
            with pytest.raises(ServerOverloadedError):
                coalescer.submit((0.0, 1.0))
            assert coalescer.stats.rejected == 1
            answers = await asyncio.gather(*accepted)
            assert len(answers) == 10
            # Drained: admission reopens.
            future = coalescer.submit((0.0, 1.0))
            await future
            await coalescer.stop()

        asyncio.run(run())

    def test_per_request_validation_never_fails_a_batch(self, index):
        async def run():
            coalescer = Coalescer(EngineHost(index))
            good = coalescer.submit((10.0, 700.0))
            with pytest.raises(QueryError):
                coalescer.submit((700.0, 10.0))  # inverted range
            with pytest.raises(QueryError):
                coalescer.submit((1.0, 2.0, 3.0, 4.0))  # 2-D bounds, 1-D host
            with pytest.raises(QueryError):
                coalescer.submit((1.0, 2.0), index="nope")
            answer = await good
            await coalescer.stop()
            return answer

        answer = asyncio.run(run())
        assert answer.value == index.query_batch(
            np.array([10.0]), np.array([700.0])
        ).values[0]

    def test_nan_bound_is_rejected_per_request(self, index):
        """A NaN bound fails its own submit, never the slice it would join.

        The first request holds the engine, so everything submitted while
        it runs would flush as one slice; the valid request in that slice
        is answered bit-identically to a direct batch.
        """
        entered, release = threading.Event(), threading.Event()

        class BlockingIndex:
            def query_batch(self, lows, highs, guarantee=None):
                entered.set()
                assert release.wait(timeout=10.0), "engine never released"
                return index.query_batch(lows, highs, guarantee)

        async def run():
            coalescer = Coalescer(EngineHost(BlockingIndex()))
            loop = asyncio.get_running_loop()
            first = coalescer.submit((10.0, 700.0))
            assert await loop.run_in_executor(None, entered.wait, 10.0)
            with pytest.raises(QueryError):
                coalescer.submit((float("nan"), 500.0))
            with pytest.raises(QueryError):
                coalescer.submit((100.0, float("nan")))
            mate = coalescer.submit((100.0, 500.0))
            release.set()
            answers = await asyncio.gather(first, mate)
            await coalescer.stop()
            return answers

        first, mate = asyncio.run(run())
        direct = index.query_batch(np.array([100.0]), np.array([500.0]))
        assert mate.value == direct.values[0]
        assert mate.error_bound == direct.error_bounds[0]
        assert mate.batch_size == 1

    def test_shutdown_drains_in_flight_futures(self, index):
        lows, highs = make_bounds(200, seed=5)

        async def run():
            coalescer = Coalescer(EngineHost(index))
            futures = [
                coalescer.submit((low, high)) for low, high in zip(lows, highs)
            ]
            # Stop immediately — before the flusher has had a loop turn.
            await coalescer.stop()
            assert all(f.done() for f in futures)
            with pytest.raises(ServerOverloadedError):
                coalescer.submit((0.0, 1.0))
            return [f.result() for f in futures]

        answers = asyncio.run(run())
        direct = index.query_batch(lows, highs)
        assert np.array_equal(
            np.array([a.value for a in answers]), direct.values
        )

    def test_stop_is_idempotent(self, index):
        async def run():
            coalescer = Coalescer(EngineHost(index))
            await coalescer.submit((1.0, 2.0))
            await coalescer.stop()
            await coalescer.stop()

        asyncio.run(run())


class TestEpochConsistency:
    """Concurrent inserts/compactions never tear a served batch."""

    @staticmethod
    def build_updatable(keys):
        return UpdatablePolyFitIndex.build(
            keys,
            aggregate=Aggregate.COUNT,
            delta=DELTA,
            policy=CompactionPolicy(auto=False),
        )

    def test_every_response_from_exactly_one_version(self, keys):
        """Each answer must equal the full answer of *its* pinned version.

        The probe range is fixed; between submissions the writer task
        inserts keys inside it (each insert bumps the live version) and
        compacts periodically.  A torn read — a batch mixing two buffer
        states — would produce a value matching no version's expected
        count.
        """
        updatable = self.build_updatable(keys)
        low, high = 200.0, 800.0
        # A tiny relative guarantee fails the Lemma-3 certificate for every
        # query, forcing the exact-fallback path: each answer IS the true
        # count of its pinned snapshot — making torn reads directly
        # observable as off-by-a-few values.
        exact = Guarantee.relative(1e-9)
        base_count = float(
            np.count_nonzero((keys >= low) & (keys <= high))
        )
        expected = {updatable.version: base_count}

        async def run():
            host = EngineHost(updatable)
            coalescer = Coalescer(host)
            rng = np.random.default_rng(11)
            futures = []
            inserted = 0.0
            for round_number in range(30):
                futures.extend(
                    coalescer.submit((low, high), exact) for _ in range(5)
                )
                await asyncio.sleep(0)  # let a flush interleave
                fresh = rng.uniform(low, high, size=7)
                updatable.insert(fresh)
                inserted += fresh.size
                expected[updatable.version] = base_count + inserted
                if round_number % 10 == 9:
                    updatable.compact()
                    expected[updatable.version] = base_count + inserted
            answers = await asyncio.gather(*futures)
            await coalescer.stop()
            return answers

        answers = asyncio.run(run())
        assert len(answers) == 150
        seen_versions = set()
        for answer in answers:
            assert answer.version in expected, "answer from an unknown version"
            assert answer.value == expected[answer.version], (
                f"torn read: version {answer.version} served "
                f"{answer.value}, expected {expected[answer.version]}"
            )
            seen_versions.add(answer.version)
        # The writer really did race the reader: multiple versions served.
        assert len(seen_versions) > 1

    def test_epoch_swap_does_not_drop_requests(self, keys):
        """Requests in flight across a compaction all resolve, correctly."""
        updatable = self.build_updatable(keys)
        low, high = 100.0, 900.0
        exact = Guarantee.relative(1e-9)  # force exact answers (see above)

        async def run():
            host = EngineHost(updatable)
            coalescer = Coalescer(host)
            futures = [coalescer.submit((low, high), exact) for _ in range(20)]
            updatable.insert(np.full(13, 500.0))
            updatable.compact()  # epoch swap while the batch is queued
            futures += [coalescer.submit((low, high), exact) for _ in range(20)]
            answers = await asyncio.gather(*futures)
            await coalescer.stop()
            return answers

        answers = asyncio.run(run())
        base = float(np.count_nonzero((keys >= low) & (keys <= high)))
        for answer in answers:
            assert answer.value in (base, base + 13.0)
        # Per-batch single epoch: answers sharing a version agree exactly.
        by_version = {}
        for answer in answers:
            by_version.setdefault(answer.version, set()).add(answer.value)
        assert all(len(values) == 1 for values in by_version.values())


class TestEngineHost:
    def test_rejects_batchless_index(self):
        class NoBatch:
            pass

        with pytest.raises(QueryError):
            EngineHost(NoBatch())

    def test_write_endpoints_require_updatable(self, index):
        host = EngineHost(index)
        with pytest.raises(NotSupportedError):
            host.insert(np.array([1.0]))
        with pytest.raises(NotSupportedError):
            host.compact()

    def test_cache_serves_repeat_batches(self, index):
        host = EngineHost(index, cache_size=4)
        lows, highs = make_bounds(50, seed=6)
        bounds = (lows, highs)
        view = host.pin()
        first = host.execute(view, bounds)
        second = host.execute(view, bounds)
        assert second is first  # replayed by reference
        info = host.cache_info()
        assert info.hits == 1 and info.misses == 1
        assert host.info()["cache"]["hits"] == 1

    def test_cache_invalidated_by_writes(self, keys):
        updatable = UpdatablePolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=DELTA,
            policy=CompactionPolicy(auto=False),
        )
        host = EngineHost(updatable, cache_size=4)
        bounds = (np.array([200.0]), np.array([800.0]))
        before = host.execute(host.pin(), bounds)
        updatable.insert(np.array([500.0]))
        after = host.execute(host.pin(), bounds)
        assert after.values[0] == before.values[0] + 1.0
        assert host.cache_info().misses == 2  # version bump = new key

    def test_sharded_static_host_is_bit_identical(self, index):
        lows, highs = make_bounds(400, seed=12)
        with EngineHost(index, num_shards=2) as host:
            answer = host.execute(host.pin(), (lows, highs))
        direct = index.query_batch(lows, highs)
        assert np.array_equal(answer.values, direct.values)

    def test_sharded_updatable_swaps_wrappers(self, keys):
        updatable = UpdatablePolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=DELTA,
            policy=CompactionPolicy(auto=False),
        )
        lows, highs = make_bounds(50, seed=13)
        with EngineHost(updatable, num_shards=2) as host:
            first = host.execute(host.pin(), (lows, highs))
            updatable.insert(np.array([500.0]))
            second = host.execute(host.pin(), (lows, highs))
        direct = updatable.query_batch(lows, highs)
        assert np.array_equal(second.values, direct.values)
        inside = (lows <= 500.0) & (highs >= 500.0)
        assert np.array_equal(
            second.values[inside], first.values[inside] + 1.0
        )

    def test_shard_count_validation(self, index):
        with pytest.raises(QueryError):
            EngineHost(index, num_shards=0)
