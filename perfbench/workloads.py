"""The three workloads: inputs from a seed, hosts, load shape and checks.

Every input is a pure function of ``(seed, scale)``.  The datasets are the
in-repo ``repro.datasets`` stand-ins generated with the fixed
``DATA_SEED``, the way the paper fixes its datasets; every query and
insert batch comes from ``numpy.random.default_rng([seed, stream, i])``,
so a request can be regenerated when its answer is checked.  The server
receives only the generated arrays (an ``.npz`` file) and a host spec.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro import (
    Aggregate,
    CompactionPolicy,
    Guarantee,
    IndexFleet,
    PolyFit2DIndex,
    PolyFitIndex,
    UpdatablePolyFitIndex,
)
from repro.datasets.registry import get_dataset

import client
import oracle

#: Dataset sizes, guarantees and load shapes per scale.  ``tiny`` exists
#: for the self-test; the benchmark proper always runs ``full``.
SCALES = {
    "full": {
        "tweet": 1_000_000, "hki": 200_000, "osm": 200_000, "ingest_base": 200_000,
        "batch": 2048, "pool": 4, "fresh": 64, "insert_rate": 200.0, "insert_batch": 50,
        "query_rate": 100.0, "max_buffer": 5000,
    },
    "tiny": {
        "tweet": 50_000, "hki": 20_000, "osm": 20_000, "ingest_base": 20_000,
        "batch": 256, "pool": 2, "fresh": 24, "insert_rate": 100.0, "insert_batch": 20,
        "query_rate": 100.0, "max_buffer": 1000,
    },
}

#: Generator seed of the datasets.  Fixed, because index build and
#: compaction costs depend strongly on the dataset drawn (compacting one
#: 200k-key ``hki`` draw takes 4x as long as another), which would swamp the
#: differences between program versions that the benchmark exists to show.
DATA_SEED = 42

#: Absolute guarantees the indexes are built for (the certified bound of
#: every answer); queries ask for these or for a relative ``REL_EPS``.
COUNT_EPS = 200.0
SUM_EPS = 2.0e6
MAX_EPS = 200.0
GEO_EPS = 100.0
REL_EPS = 0.01
#: 2-D relative guarantee: at 1% nearly every rectangle of a 200k-point
#: set fails the Lemma 7 certificate, so the 2-D requests ask for 5%.
GEO_REL_EPS = 0.05
#: Share of 2-D batches asking for the relative guarantee; each such batch
#: runs one exact-fallback sweep over all points (~10x an absolute batch).
GEO_RELATIVE_SHARE = 0.25
#: Resolution of the 2-D index's CF sample grid.  Its certified bound holds
#: at the grid the surfaces are fitted on, so rectangle corners lie on it.
GEO_GRID = 96
#: Requests per second of the fastest server the query pools are sized for.
POOL_RATE = 8000
#: Share of ``batch_scan`` requests that repeat a dashboard batch.
REPEAT_SHARE = 0.25
#: 2-D queries checked against the brute-force oracle per run.
GEO_ORACLE_SAMPLE = 256
#: Late arrivals in ``ingest_mixed``: share of records, and how far back.
LATE_SHARE = 0.05
LATE_SPAN = 2000.0


def _guarantee_spec(relative: bool, absolute_eps: float, rel_eps: float = REL_EPS) -> dict:
    """A request's guarantee: relative ``rel_eps`` or the build's absolute one."""
    if relative:
        return {"kind": "relative", "epsilon": rel_eps}
    return {"kind": "absolute", "epsilon": absolute_eps}


def _guarantee(relative: bool, absolute_eps: float, rel_eps: float = REL_EPS) -> Guarantee:
    return Guarantee.relative(rel_eps) if relative else Guarantee.absolute(absolute_eps)


def _bound(value) -> float:
    return np.nan if value is None else float(value)


def decode_batch(body: bytes) -> dict:
    """Keep a ``/query_batch`` answer as compact NumPy columns."""
    payload = json.loads(body)
    return {
        "values": np.asarray(payload["values"], dtype=np.float64),
        "bounds": np.asarray([_bound(b) for b in payload["error_bounds"]]),
        "fallback": np.asarray(payload["exact_fallback"], dtype=bool),
        "guaranteed": np.asarray(payload["guaranteed"], dtype=bool),
    }


@dataclass
class Verdict:
    """What the correctness gate found for one run."""

    checked: int = 0
    failures: list[str] = field(default_factory=list)
    rel_errors: list[np.ndarray] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add(self, label: str, failures: int, rel_errors: np.ndarray | None = None,
            checked: int = 0) -> None:
        self.checked += checked
        if failures:
            self.failures.append(f"{label}: {failures} wrong answers")
        if rel_errors is not None:
            self.rel_errors.append(rel_errors)

    @property
    def rel_error_mean(self) -> float:
        errors = np.concatenate(self.rel_errors) if self.rel_errors else np.zeros(1)
        return float(errors.mean())


def _identical(label: str, served: dict, local, verdict: Verdict) -> None:
    """Served answers must be bit-identical to an in-process ``query_batch``."""
    same = (
        np.array_equal(served["values"], local.values, equal_nan=True)
        and np.array_equal(served["bounds"], local.error_bounds, equal_nan=True)
        and np.array_equal(served["fallback"], local.exact_fallback)
        and np.array_equal(served["guaranteed"], local.guaranteed)
    )
    verdict.checked += int(local.values.size)
    if not same:
        verdict.failures.append(f"{label}: HTTP answers differ from in-process query_batch")


def _scalar_columns(samples: list) -> dict:
    bodies = [s.body for s in samples]
    return {
        "values": np.asarray([b["value"] for b in bodies], dtype=np.float64),
        "bounds": np.asarray([_bound(b["error_bound"]) for b in bodies]),
        "fallback": np.asarray([b["exact_fallback"] for b in bodies], dtype=bool),
        "guaranteed": np.asarray([b["guaranteed"] for b in bodies], dtype=bool),
    }


def _select(columns: dict, mask: np.ndarray) -> dict:
    return {name: column[mask] for name, column in columns.items()}


class Workload:
    """Base: a name, its inputs, its hosts and how load is applied."""

    name = ""
    closed = True
    #: Which of the run's server launches is current (set by run.py).
    launch_index = 0
    #: The measured server's WAL file, when it has one.
    wal_path = None

    def __init__(self, seed: int, scale: str, seconds: float, out_dir: str) -> None:
        self.seed = seed
        self.sizes = SCALES[scale]
        self.seconds = seconds
        self.out_dir = out_dir
        self.arrays: dict[str, np.ndarray] = {}

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def hosts(self, launch: int) -> list[dict]:
        raise NotImplementedError

    def write_spec(self, launch: int) -> str:
        arrays_path = os.path.join(self.out_dir, "inputs.npz")
        if not os.path.exists(arrays_path):
            np.savez(arrays_path, **self.arrays)
        spec_path = os.path.join(self.out_dir, f"spec-{launch}.json")
        with open(spec_path, "w") as handle:
            json.dump({"arrays": arrays_path, "hosts": self.hosts(launch)}, handle)
        return spec_path

    async def warm(self, port: int) -> None:
        """Let lazy set-up finish and caches fill before timing."""
        await client.closed_loop(port, 2, 0.5, self.warm_request, self.decode)

    async def drive(self, port: int) -> client.LoopResult:
        return await client.closed_loop(port, 2, self.seconds, self.request, self.decode)

    decode = staticmethod(json.loads)

    def finish(self, server: client.ServerProcess, samples: list, verdict: Verdict) -> dict:
        """End the measured server (graceful stop unless overridden)."""
        server.stop()
        return {}


class PointQuery(Workload):
    """Scalar COUNT requests over ``tweet`` through the coalescer."""

    name = "point_query"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        _, (keys, _) = get_dataset("tweet", n=self.sizes["tweet"], seed=DATA_SEED)
        self.arrays = {"keys": keys}
        n = keys.size
        self.pool = int(POOL_RATE * self.seconds)
        total = self.pool + 2000  # the tail is the warm-up set
        rng = self.rng(1)
        # Rank widths from n/1000 to n/2: ~4% of ranges hold fewer keys
        # than the relative certificate needs at REL_EPS and fall back to
        # exact.  The floor keeps the mean relative error from resting on
        # a handful of near-empty ranges.
        width = rng.integers(n // 1000, n // 2, size=total)
        start = rng.integers(0, n - width)
        self.lows, self.highs = keys[start], keys[start + width]
        self.relative = rng.random(total) < 0.5

    def hosts(self, launch: int) -> list[dict]:
        return [{"name": "default", "kind": "polyfit1d", "aggregate": "count",
                 "keys": "keys", "epsilon": COUNT_EPS, "cache_size": 64}]

    def _payload(self, j: int) -> bytes:
        payload = {"low": float(self.lows[j]), "high": float(self.highs[j]),
                   "guarantee": _guarantee_spec(bool(self.relative[j]), COUNT_EPS)}
        return json.dumps(payload).encode()

    def request(self, i: int):
        return "query", "/query", self._payload(i % self.pool), 1

    def warm_request(self, i: int):
        return "query", "/query", self._payload(self.pool + i % 2000), 1

    def provenance(self) -> dict:
        return {"records": {"tweet": int(self.arrays["keys"].size)},
                "queries_per_request": 1, "query_pool": self.pool}

    def check(self, samples: list, verdict: Verdict) -> None:
        ok = [s for s in samples if s.ok]
        if not ok:
            return
        items = np.asarray([s.item % self.pool for s in ok])
        served = _scalar_columns(ok)
        lows, highs, relative = self.lows[items], self.highs[items], self.relative[items]
        exact = oracle.PrefixOracle(self.arrays["keys"])(lows, highs)
        failures, rel = oracle.check_answers(
            served["values"], served["bounds"], served["fallback"], exact,
            np.where(relative, REL_EPS, 0.0),
        )
        verdict.add("point_query oracle", failures, rel, len(ok))
        verdict.notes["exact_fallback_ratio"] = float(served["fallback"].mean())
        index = PolyFitIndex.build(self.arrays["keys"], None, Aggregate.COUNT,
                                   guarantee=Guarantee.absolute(COUNT_EPS))
        for is_relative in (False, True):
            mask = relative == is_relative
            local = index.query_batch(lows[mask], highs[mask],
                                      _guarantee(is_relative, COUNT_EPS))
            _identical("point_query", _select(served, mask), local, verdict)


class BatchScan(Workload):
    """``/query_batch`` over a SUM fleet, a MAX index and a 2-D COUNT index.

    Batches come from per-host pools encoded before timing starts: a small
    dashboard pool (about ``REPEAT_SHARE`` of requests, cache hits) and a
    fresh pool cycled in order, long enough that the host's LRU result
    cache has evicted a fresh batch before it comes round again.
    """

    name = "batch_scan"
    HOSTS = ("sum_fleet", "max", "geo")
    EPS = {"sum_fleet": SUM_EPS, "max": MAX_EPS, "geo": GEO_EPS}
    REL = {"sum_fleet": REL_EPS, "max": REL_EPS, "geo": GEO_REL_EPS}
    DASHBOARD, FRESH, WARM = 0, 1, 2
    CACHE_SIZE = 16

    def __init__(self, *args) -> None:
        super().__init__(*args)
        _, (keys, measures) = get_dataset("hki", n=self.sizes["hki"], seed=DATA_SEED)
        _, (xs, ys) = get_dataset("osm", n=self.sizes["osm"], seed=DATA_SEED)
        self.arrays = {"hki_keys": keys, "hki_measures": measures, "osm_x": xs, "osm_y": ys}
        self.grid = (np.linspace(xs.min(), xs.max(), GEO_GRID),
                     np.linspace(ys.min(), ys.max(), GEO_GRID))
        counts = {self.DASHBOARD: self.sizes["pool"], self.FRESH: self.sizes["fresh"],
                  self.WARM: 4}
        self.batches = {
            (host, stream, k): self._make(host, stream, k)
            for host in range(len(self.HOSTS)) for stream, n in counts.items()
            for k in range(n)
        }
        self.payloads = {batch_id: self._encode(batch_id) for batch_id in self.batches}
        #: First response body per body digest (the distinct answers seen).
        self.bodies: dict[bytes, bytes] = {}

    def hosts(self, launch: int) -> list[dict]:
        return [
            {"name": "sum_fleet", "kind": "fleet", "aggregate": "sum", "keys": "hki_keys",
             "measures": "hki_measures", "epsilon": SUM_EPS, "num_partitions": 4,
             "cache_size": self.CACHE_SIZE},
            {"name": "max", "kind": "polyfit1d", "aggregate": "max", "keys": "hki_keys",
             "measures": "hki_measures", "epsilon": MAX_EPS, "cache_size": self.CACHE_SIZE},
            {"name": "geo", "kind": "polyfit2d", "xs": "osm_x", "ys": "osm_y",
             "epsilon": GEO_EPS, "grid_resolution": GEO_GRID, "cache_size": self.CACHE_SIZE},
        ]

    def _make(self, host: int, stream: int, k: int) -> tuple[tuple[np.ndarray, ...], bool]:
        """Bound columns of one batch and whether its guarantee is relative."""
        rng = self.rng(3, host, stream, k)
        size = self.sizes["batch"]
        geo = self.HOSTS[host] == "geo"
        relative = bool(rng.random() < (GEO_RELATIVE_SHARE if geo else 0.5))
        if stream == self.WARM:
            # Both guarantees during warm-up, so the lazily built exact
            # structures exist before timing starts.
            relative = k % 2 == 0
        if geo:
            grid_x, grid_y = self.grid
            width_x, width_y = rng.integers(4, 30, size=(2, size))
            x0 = rng.integers(0, GEO_GRID - width_x)
            y0 = rng.integers(0, GEO_GRID - width_y)
            return (grid_x[x0], grid_x[x0 + width_x],
                    grid_y[y0], grid_y[y0 + width_y]), relative
        keys = self.arrays["hki_keys"]
        width = rng.integers(keys.size // 100, keys.size // 4, size=size)
        start = rng.integers(0, keys.size - width)
        return (keys[start], keys[start + width]), relative

    def _encode(self, batch_id: tuple) -> bytes:
        columns, relative = self.batches[batch_id]
        name = self.HOSTS[batch_id[0]]
        fields = ("x_lows", "x_highs", "y_lows", "y_highs") if name == "geo" else ("lows", "highs")
        payload = {"index": name, **{f: c.tolist() for f, c in zip(fields, columns)},
                   "guarantee": _guarantee_spec(relative, self.EPS[name], self.REL[name])}
        return json.dumps(payload).encode()

    def batch_id(self, i: int) -> tuple:
        """Request i -> (host, stream, k): hosts rotate, a dashboard batch
        with probability ``REPEAT_SHARE``, else the host's next fresh one."""
        host, turn = i % len(self.HOSTS), i // len(self.HOSTS)
        rng = self.rng(2, i)
        if rng.random() < REPEAT_SHARE:
            return host, self.DASHBOARD, int(rng.integers(self.sizes["pool"]))
        return host, self.FRESH, turn % self.sizes["fresh"]

    def request(self, i: int):
        return "query", "/query_batch", self.payloads[self.batch_id(i)], self.sizes["batch"]

    def warm_request(self, i: int):
        # Every dashboard batch once (the cache fills), then the warm pool.
        hosts = len(self.HOSTS)
        turn = i // hosts
        if turn < self.sizes["pool"]:
            batch_id = (i % hosts, self.DASHBOARD, turn)
        else:
            batch_id = (i % hosts, self.WARM, turn % 4)
        return "query", "/query_batch", self.payloads[batch_id], self.sizes["batch"]

    def decode(self, body: bytes) -> bytes:
        """Keep one copy of each distinct answer; samples hold its digest."""
        digest = hashlib.blake2b(body, digest_size=16).digest()
        self.bodies.setdefault(digest, body)
        return digest

    def provenance(self) -> dict:
        return {"records": {"hki": int(self.arrays["hki_keys"].size),
                            "osm": int(self.arrays["osm_x"].size)},
                "queries_per_request": self.sizes["batch"],
                "dashboard_batches_per_host": self.sizes["pool"],
                "fresh_batches_per_host": self.sizes["fresh"],
                "result_cache_size": self.CACHE_SIZE}

    def _local_hosts(self) -> dict:
        a = self.arrays
        return {
            "sum_fleet": IndexFleet.build(
                a["hki_keys"], a["hki_measures"], Aggregate.SUM,
                guarantee=Guarantee.absolute(SUM_EPS), num_partitions=4).snapshot(),
            "max": PolyFitIndex.build(a["hki_keys"], a["hki_measures"], Aggregate.MAX,
                                      guarantee=Guarantee.absolute(MAX_EPS)),
            "geo": PolyFit2DIndex.build(a["osm_x"], a["osm_y"],
                                        guarantee=Guarantee.absolute(GEO_EPS),
                                        grid_resolution=GEO_GRID),
        }

    def check(self, samples: list, verdict: Verdict) -> None:
        """Every distinct answer against the oracle (2-D: a seeded sample of
        queries) and against an in-process ``query_batch`` of its batch."""
        served: dict[tuple, dict[bytes, int]] = {}
        for sample in samples:
            if sample.ok:
                digests = served.setdefault(self.batch_id(sample.item), {})
                digests[sample.body] = digests.get(sample.body, 0) + 1
        if any(len(digests) > 1 for digests in served.values()):
            verdict.failures.append("batch_scan: one batch got different answers")
        local = self._local_hosts()
        a = self.arrays
        oracles = {
            "sum_fleet": (oracle.PrefixOracle(a["hki_keys"], a["hki_measures"]), 1e-9),
            "max": (oracle.SparseMaxOracle(a["hki_keys"], a["hki_measures"]), 0.0),
        }
        rng = self.rng(6)
        for host, name in enumerate(self.HOSTS):
            mine = [(batch_id, digest, count) for batch_id, digests in served.items()
                    if batch_id[0] == host for digest, count in digests.items()]
            if not mine:
                continue
            answers = [decode_batch(self.bodies[digest]) for _, digest, _ in mine]
            for (batch_id, _, _), answer in zip(mine, answers):
                columns, relative = self.batches[batch_id]
                local_answer = local[name].query_batch(
                    *columns, guarantee=_guarantee(relative, self.EPS[name], self.REL[name]))
                _identical(name, answer, local_answer, verdict)
            weights = np.repeat([count for _, _, count in mine], self.sizes["batch"])
            columns = tuple(np.concatenate([self.batches[b][0][k] for b, _, _ in mine])
                            for k in range(len(self.batches[mine[0][0]][0])))
            relative = np.concatenate([
                np.full(self.sizes["batch"], self.REL[name] if self.batches[b][1] else 0.0)
                for b, _, _ in mine])
            answer = {key: np.concatenate([a[key] for a in answers]) for key in answers[0]}
            pick = slice(None)
            if name == "geo":
                pick = rng.choice(relative.size, size=min(GEO_ORACLE_SAMPLE, relative.size),
                                  replace=False)
                exact = oracle.brute_force_count_2d(
                    a["osm_x"], a["osm_y"], np.stack([c[pick] for c in columns], axis=1))
                tolerance = 0.0
            else:
                exact_of, tolerance = oracles[name]
                exact = exact_of(*columns)
            failures, rel = oracle.check_answers(
                answer["values"][pick], answer["bounds"][pick], answer["fallback"][pick],
                exact, relative[pick], tolerance=tolerance)
            verdict.add(f"{name} oracle", failures, np.repeat(rel, weights[pick]),
                        rel.size)
            verdict.notes[f"{name}_exact_fallback_ratio"] = float(
                np.average(answer["fallback"], weights=weights))


class IngestMixed(Workload):
    """Open-loop WAL'd inserts beside open-loop recent-window COUNT queries."""

    name = "ingest_mixed"
    closed = False

    def __init__(self, *args) -> None:
        super().__init__(*args)
        _, (keys, _) = get_dataset("hki", n=self.sizes["ingest_base"], seed=DATA_SEED)
        self.arrays = {"keys": keys}
        self.base_n = keys.size
        self.inserts = int(self.sizes["insert_rate"] * self.seconds)
        self.queries = int(self.sizes["query_rate"] * self.seconds)

    def paths(self, launch: int) -> tuple[str, str]:
        return (os.path.join(self.out_dir, f"ingest-{launch}.wal"),
                os.path.join(self.out_dir, f"ingest-{launch}.ckpt"))

    @property
    def wal_path(self) -> str:
        return self.paths(self.launch_index)[0]

    def hosts(self, launch: int) -> list[dict]:
        wal, checkpoint = self.paths(launch)
        for path in (wal, checkpoint):
            if os.path.exists(path):
                os.remove(path)
        return [{"name": "default", "kind": "updatable1d", "aggregate": "count",
                 "keys": "keys", "epsilon": COUNT_EPS, "max_buffer": self.sizes["max_buffer"],
                 "wal": wal, "wal_sync_every": 1, "checkpoint": checkpoint,
                 "cache_size": 16}]

    def insert_keys(self, j: int) -> np.ndarray:
        """Batch j: the next time-ordered ticks, a few arriving late."""
        size = self.sizes["insert_batch"]
        rng = self.rng(7, j)
        head = self.base_n + j * size
        keys = head + np.arange(size) + rng.uniform(0.0, 0.45, size=size)
        late = rng.random(size) < LATE_SHARE
        keys[late] = head - rng.uniform(0.0, LATE_SPAN, size=int(late.sum()))
        return np.sort(keys)

    def query_bounds(self, q: int) -> tuple[float, float, bool]:
        """Query q: a window ending at the stream head when it is due."""
        rng = self.rng(8, q)
        due_batches = int(q * self.sizes["insert_rate"] / self.sizes["query_rate"])
        head = float(self.base_n + due_batches * self.sizes["insert_batch"])
        width = rng.uniform(5000.0, 100_000.0)
        return head - width, head, bool(rng.random() < 0.5)

    def _query_payload(self, q: int) -> bytes:
        low, high, relative = self.query_bounds(q)
        payload = {"low": low, "high": high,
                   "guarantee": _guarantee_spec(relative, COUNT_EPS)}
        return json.dumps(payload).encode()

    def insert_request(self, j: int):
        keys = self.insert_keys(j)
        return "insert", "/insert", json.dumps({"keys": keys.tolist()}).encode(), keys.size

    def query_request(self, q: int):
        return "query", "/query", self._query_payload(q), 1

    async def warm(self, port: int) -> None:
        # Queries only (past the timed stream): an insert here would shift
        # the state the timed phase is checked against.
        await client.closed_loop(port, 1, 0.3,
                                 lambda i: self.query_request(self.queries + i))

    async def drive(self, port: int) -> client.LoopResult:
        return await client.open_loop(port, [
            (self.sizes["insert_rate"], self.insert_request),
            (self.sizes["query_rate"], self.query_request),
        ], self.seconds)

    def provenance(self) -> dict:
        return {"records": {"hki_base": self.base_n,
                            "inserted": self.inserts * self.sizes["insert_batch"]},
                "insert_rate_per_s": self.sizes["insert_rate"],
                "query_rate_per_s": self.sizes["query_rate"],
                "records_per_insert": self.sizes["insert_batch"],
                "late_share": LATE_SHARE,
                "compaction_max_buffer": self.sizes["max_buffer"],
                "wal_sync_every": 1}

    def check(self, samples: list, verdict: Verdict) -> None:
        inserts = sorted((s for s in samples if s.kind == "insert"), key=lambda s: s.item)
        queries = [s for s in samples if s.kind == "query" and s.ok]
        if any(not s.ok for s in inserts) or [s.item for s in inserts] != list(range(len(inserts))):
            verdict.failures.append("ingest_mixed: an insert was not acknowledged")
            return
        versions = [s.body["version"] for s in inserts]
        if versions != sorted(versions):
            verdict.failures.append("ingest_mixed: write versions not monotone")
            return
        batches = [self.insert_keys(j) for j in range(len(inserts))]
        served = _scalar_columns(queries) if queries else None
        if queries:
            self._check_oracle(queries, served, versions, batches, verdict)
        self._check_replay(queries, served, versions, batches, verdict)

    def _check_oracle(self, queries, served, versions, batches, verdict) -> None:
        applied = np.asarray([bisect.bisect_right(versions, s.body["version"])
                              for s in queries])
        bounds = [self.query_bounds(s.item) for s in queries]
        lows = np.asarray([b[0] for b in bounds])
        highs = np.asarray([b[1] for b in bounds])
        relative = np.asarray([b[2] for b in bounds])
        exact = oracle.PrefixOracle(self.arrays["keys"])(lows, highs)
        if batches:
            new_keys = np.concatenate(batches)
            batch_of = np.repeat(np.arange(len(batches)), [b.size for b in batches])
            order = np.argsort(new_keys, kind="stable")
            new_keys, batch_of = new_keys[order], batch_of[order]
            start = np.searchsorted(new_keys, lows, side="left")
            stop = np.searchsorted(new_keys, highs, side="right")
            for i in range(len(queries)):
                exact[i] += np.count_nonzero(batch_of[start[i]:stop[i]] < applied[i])
        failures, rel = oracle.check_answers(
            served["values"], served["bounds"], served["fallback"], exact,
            np.where(relative, REL_EPS, 0.0))
        verdict.add("ingest_mixed oracle", failures, rel, len(queries))
        verdict.notes["exact_fallback_ratio"] = float(served["fallback"].mean())

    def _check_replay(self, queries, served, versions, batches, verdict) -> None:
        """Replay the acknowledged inserts in-process and re-ask each query
        against the state at the write version it was served from."""
        index = UpdatablePolyFitIndex.build(
            self.arrays["keys"], None, Aggregate.COUNT,
            guarantee=Guarantee.absolute(COUNT_EPS),
            policy=CompactionPolicy(max_buffer=self.sizes["max_buffer"]))
        by_version: dict[int, list[int]] = {}
        for i, s in enumerate(queries):
            by_version.setdefault(s.body["version"], []).append(i)

        def answer_at_current_version() -> None:
            picked = by_version.pop(index.version, [])
            for is_relative in (False, True):
                rows = [i for i in picked if self.query_bounds(queries[i].item)[2] == is_relative]
                if not rows:
                    continue
                bounds = [self.query_bounds(queries[i].item) for i in rows]
                local = index.snapshot().query_batch(
                    np.asarray([b[0] for b in bounds]), np.asarray([b[1] for b in bounds]),
                    _guarantee(is_relative, COUNT_EPS))
                _identical("ingest_mixed replay", _select(served, np.asarray(rows)), local,
                           verdict)

        answer_at_current_version()
        for keys, version in zip(batches, versions):
            index.insert(keys)
            if index.version != version:
                verdict.failures.append("ingest_mixed: replay diverged from served versions")
                return
            answer_at_current_version()
        if by_version:
            verdict.failures.append("ingest_mixed: answers at versions no insert produced")

    def finish(self, server: client.ServerProcess, samples: list, verdict: Verdict) -> dict:
        """Crash the server, recover from checkpoint + WAL, audit the count.

        Every acknowledged insert was fsynced (``wal_sync_every=1``) and no
        request is in flight at the kill, so the recovered index must hold
        exactly the base plus every acknowledged record.
        """
        server.kill()
        wal, checkpoint = self.paths(self.launch_index)
        start = time.perf_counter()
        recovered = UpdatablePolyFitIndex.recover(checkpoint, wal)
        replay_s = time.perf_counter() - start
        total = float(recovered.exact_batch(np.array([-np.inf]), np.array([np.inf]))[0])
        recovered.wal.close()
        acknowledged = sum(s.queries for s in samples if s.kind == "insert" and s.ok)
        if total != self.base_n + acknowledged:
            verdict.failures.append(
                f"ingest_mixed durability: recovered {total:.0f} records, expected "
                f"{self.base_n} base + {acknowledged} acknowledged")
        return {"replay_s": replay_s, "recovered_records": total,
                "acknowledged_records": acknowledged}
