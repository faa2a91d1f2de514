"""Benchmark server launcher: builds named hosts and serves them over HTTP.

Usage (started by ``run.py``, one process per server)::

    python3 perfbench/server.py SPEC.json [--trace]

``SPEC.json`` names an ``.npz`` file of generated input arrays and the
hosts to build from them through the public API (``PolyFitIndex``,
``IndexFleet``, ``PolyFit2DIndex``, ``UpdatablePolyFitIndex`` with a WAL),
each wrapped in an ``EngineHost`` and served by one ``ServeServer`` on an
ephemeral port.  Once listening, the launcher prints one line
``READY {"port": .., "hosts": {name: {"bytes": .., "keys": ..}}}``.

Control lines on stdin: ``spans PATH`` writes the recorded spans (with
``--trace``) as JSONL and answers ``SPANS <count>``; ``stop`` or end of
input shuts the server down gracefully.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import tracing  # noqa: E402

from repro import (  # noqa: E402
    Aggregate,
    CompactionPolicy,
    Guarantee,
    IndexFleet,
    PolyFit2DIndex,
    PolyFitIndex,
    UpdatablePolyFitIndex,
)
from repro.serve import EngineHost, ServeServer  # noqa: E402


def build_index(spec: dict, arrays) -> tuple[object, int]:
    """One index from its host spec; returns (index, number of records)."""
    kind = spec["kind"]
    guarantee = Guarantee.absolute(spec["epsilon"])
    if kind == "polyfit2d":
        xs, ys = arrays[spec["xs"]], arrays[spec["ys"]]
        return PolyFit2DIndex.build(xs, ys, guarantee=guarantee,
                                    grid_resolution=spec["grid_resolution"]), xs.size
    keys = arrays[spec["keys"]]
    measures = arrays[spec["measures"]] if spec.get("measures") else None
    aggregate = Aggregate(spec["aggregate"])
    if kind == "polyfit1d":
        index = PolyFitIndex.build(keys, measures, aggregate, guarantee=guarantee)
    elif kind == "fleet":
        index = IndexFleet.build(keys, measures, aggregate, guarantee=guarantee,
                                 num_partitions=spec["num_partitions"])
    elif kind == "updatable1d":
        index = UpdatablePolyFitIndex.build(
            keys, measures, aggregate, guarantee=guarantee,
            policy=CompactionPolicy(max_buffer=spec["max_buffer"]),
            wal_path=spec["wal"], wal_sync_every=spec["wal_sync_every"],
        )
        index.checkpoint(spec["checkpoint"])
    else:
        raise ValueError(f"unknown host kind {kind!r}")
    return index, keys.size


async def serve(spec: dict, trace: bool) -> None:
    loop = asyncio.get_running_loop()
    recorder = None
    if trace:
        recorder = tracing.install()
        loop.set_default_executor(tracing.ContextExecutor())
    arrays = np.load(spec["arrays"])
    hosts, sizes = {}, {}
    for host_spec in spec["hosts"]:
        index, records = build_index(host_spec, arrays)
        name = host_spec["name"]
        hosts[name] = EngineHost(index, name=name, cache_size=host_spec["cache_size"])
        sizes[name] = {"bytes": int(index.size_in_bytes()), "keys": int(records)}
    server = ServeServer(hosts)
    await server.start("127.0.0.1", 0)
    print("READY " + json.dumps({"port": server.port, "hosts": sizes}), flush=True)

    stopped = asyncio.Event()

    def control() -> None:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "spans":
                count = recorder.dump(argument) if recorder is not None else 0
                print(f"SPANS {count}", flush=True)
            elif command == "stop":
                break
        loop.call_soon_threadsafe(stopped.set)

    threading.Thread(target=control, daemon=True).start()
    await stopped.wait()
    await server.stop()


def main() -> None:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    asyncio.run(serve(spec, "--trace" in sys.argv[2:]))


if __name__ == "__main__":
    main()
