"""The single writer of an updatable host: reads flow while a write runs.

Every updatable :class:`~repro.serve.host.EngineHost` applies ``/insert``
and ``/compact`` on its own writer thread and publishes one immutable view
after each write.  These tests hold a write inside the writer with a
``threading.Event`` instead of timing anything: while it is held, reads
must complete against the state before the write; once released, the ack
must report the state the write itself published.
"""

import asyncio
import sys
import threading

import numpy as np
import pytest

from repro import Aggregate, CompactionPolicy, Guarantee, UpdatablePolyFitIndex
from repro.errors import NotSupportedError, ServerOverloadedError
from repro.serve import EngineHost, ServeServer, health_remote, query_remote, request_json

DELTA = 50.0
EXACT = Guarantee.relative(1e-9)  # fails every certificate: answers are exact counts
LOW, HIGH = 200.0, 800.0


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(31)
    return np.sort(rng.uniform(0.0, 1000.0, size=8_000))


def build(keys, **kwargs):
    return UpdatablePolyFitIndex.build(
        keys, aggregate=Aggregate.COUNT, delta=DELTA, **kwargs
    )


def hold_fold(index):
    """Make ``index``'s next compaction wait in the writer until released."""
    entered, release = threading.Event(), threading.Event()
    fold = index._fold

    def held_fold(*columns):
        entered.set()
        if not release.wait(timeout=30.0):
            raise RuntimeError("fold was never released")
        return fold(*columns)

    index._fold = held_fold
    return entered, release


def in_range(keys):
    return float(np.count_nonzero((keys >= LOW) & (keys <= HIGH)))


class TestReadsDuringWrites:
    def test_queries_served_at_pre_insert_version_while_compaction_held(self, keys):
        index = build(keys, policy=CompactionPolicy(max_buffer=16))
        entered, release = hold_fold(index)
        fresh = np.linspace(LOW, HIGH, 20)  # 20 >= max_buffer: auto-compacts

        async def run():
            server = ServeServer(EngineHost(index))
            await server.start(port=0)
            url = f"http://127.0.0.1:{server.port}"
            loop = asyncio.get_running_loop()
            try:
                insert = loop.run_in_executor(
                    None, request_json, url, "/insert", {"keys": fresh.tolist()}
                )
                assert await loop.run_in_executor(None, entered.wait, 30.0)
                held = [
                    await loop.run_in_executor(
                        None, lambda: query_remote(url, LOW, HIGH, guarantee=EXACT)
                    )
                    for _ in range(3)
                ]
                health = await loop.run_in_executor(None, health_remote, url)
                release.set()
                ack = await insert
                after = await loop.run_in_executor(
                    None, lambda: query_remote(url, LOW, HIGH, guarantee=EXACT)
                )
                return held, health, ack, after
            finally:
                release.set()
                await server.stop()

        held, health, ack, after = asyncio.run(run())
        base = in_range(keys)
        for answer in held:
            assert (answer["epoch"], answer["version"]) == (0, 0)
            assert answer["value"] == base
        assert health["hosts"]["default"] == {"epoch": 0, "version": 0, "buffer_size": 0}
        # The ack reports the post-compaction state: insert and fold both landed.
        assert ack["inserted"] == 20
        assert (ack["epoch"], ack["version"], ack["buffer_size"]) == (1, 2, 0)
        assert (after["epoch"], after["version"]) == (1, 2)
        assert after["value"] == base + 20.0


class TestWriteOrder:
    def test_concurrent_inserts_ack_the_replayed_versions(self, keys):
        index = build(keys, policy=CompactionPolicy(max_buffer=40))
        rng = np.random.default_rng(7)
        batches = [rng.uniform(0.0, 1000.0, size=7) for _ in range(16)]

        async def run():
            server = ServeServer(EngineHost(index))
            await server.start(port=0)
            url = f"http://127.0.0.1:{server.port}"
            loop = asyncio.get_running_loop()
            try:
                return await asyncio.gather(*(
                    loop.run_in_executor(
                        None, request_json, url, "/insert", {"keys": batch.tolist()}
                    )
                    for batch in batches
                ))
            finally:
                await server.stop()

        # More client threads than cores, and frequent thread switches, so
        # the writer, the loop and the clients interleave finely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            acks = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        order = sorted(range(len(acks)), key=lambda i: acks[i]["version"])
        versions = [acks[i]["version"] for i in order]
        assert all(a < b for a, b in zip(versions, versions[1:]))
        # Replaying the batches in acknowledged order reproduces every ack.
        replay = build(keys, policy=CompactionPolicy(max_buffer=40))
        for i in order:
            replay.insert(batches[i])
            assert (replay.epoch, replay.version, replay.buffer_size) == (
                acks[i]["epoch"], acks[i]["version"], acks[i]["buffer_size"]
            )
        assert replay.epoch >= 1  # the run crossed compactions
        lows, highs = np.array([0.0, LOW]), np.array([1000.0, HIGH])
        assert np.array_equal(index.exact_batch(lows, highs), replay.exact_batch(lows, highs))

    def test_submitted_writes_apply_in_submission_order(self, keys):
        index = build(keys, policy=CompactionPolicy(auto=False))
        host = EngineHost(index)

        async def run():
            writes = [host.submit_write("insert", np.array([float(i)])) for i in range(10)]
            writes.append(host.submit_write("compact"))
            return await asyncio.gather(*writes)

        results = asyncio.run(run())
        host.close()
        assert [view.version for _, view in results] == list(range(1, 12))
        assert [count for count, _ in results[:-1]] == [1] * 10
        assert results[-1][0] is True and results[-1][1].epoch == 1

    def test_writes_beyond_max_pending_get_503(self, keys):
        index = build(keys, policy=CompactionPolicy(max_buffer=4))
        entered, release = hold_fold(index)

        async def run():
            server = ServeServer(EngineHost(index), max_pending=1)
            await server.start(port=0)
            url = f"http://127.0.0.1:{server.port}"
            loop = asyncio.get_running_loop()
            try:
                first = loop.run_in_executor(
                    None, request_json, url, "/insert", {"keys": [1.0, 2.0, 3.0, 4.0]}
                )
                assert await loop.run_in_executor(None, entered.wait, 30.0)
                with pytest.raises(ServerOverloadedError) as refused:
                    await loop.run_in_executor(
                        None, request_json, url, "/insert", {"keys": [5.0]}
                    )
                release.set()
                return await first, refused.value
            finally:
                release.set()
                await server.stop()

        ack, refused = asyncio.run(run())
        assert ack["version"] == 2
        assert refused.retry_after_s is not None
        assert index.version == 2  # the refused write never reached the index


class TestShutdown:
    def test_stop_acks_the_insert_in_flight_and_recover_replays_it(self, keys, tmp_path):
        wal_path = tmp_path / "writer.wal"
        index = build(keys, policy=CompactionPolicy(max_buffer=16), wal_path=wal_path)
        base = index.base
        entered, release = hold_fold(index)
        fresh = np.linspace(LOW, HIGH, 20)

        async def run():
            server = ServeServer(EngineHost(index))
            await server.start(port=0)
            url = f"http://127.0.0.1:{server.port}"
            loop = asyncio.get_running_loop()
            insert = loop.run_in_executor(
                None, request_json, url, "/insert", {"keys": fresh.tolist()}
            )
            assert await loop.run_in_executor(None, entered.wait, 30.0)
            stopping = asyncio.ensure_future(server.stop())
            for _ in range(5):
                await asyncio.sleep(0)
            held_stop = not stopping.done()
            release.set()
            await stopping
            return held_stop, await insert

        held_stop, ack = asyncio.run(run())
        assert held_stop  # stop() waited for the queued write
        assert (ack["inserted"], ack["epoch"], ack["version"]) == (20, 1, 2)
        assert index.wal.closed
        recovered = UpdatablePolyFitIndex.recover(base, wal_path)
        try:
            assert (recovered.epoch, recovered.version) == (1, 2)
            lows, highs = np.array([LOW, 0.0]), np.array([HIGH, 1000.0])
            expected = [in_range(keys) + 20.0, float(keys.size + 20)]
            assert recovered.exact_batch(lows, highs).tolist() == expected
        finally:
            recovered.close()

    def test_writes_after_drain_are_refused(self, keys):
        host = EngineHost(build(keys, policy=CompactionPolicy(auto=False)))

        async def run():
            await host.drain_writes()
            with pytest.raises(ServerOverloadedError):
                await host.submit_write("insert", np.array([1.0]))

        asyncio.run(run())
        host.close()
        assert host.index.version == 0

    def test_immutable_host_refuses_submitted_writes(self, keys):
        host = EngineHost(build(keys).base)
        with pytest.raises(NotSupportedError):
            asyncio.run(host.submit_write("compact"))
