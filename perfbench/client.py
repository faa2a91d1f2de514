"""Load-generator plumbing: server processes, a keep-alive HTTP client, loops.

Everything here runs in the single-threaded asyncio load generator.  Each
request is timed on ``time.perf_counter`` and logged as a :class:`Sample`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------- #
# Server process
# ---------------------------------------------------------------------- #


class ServerProcess:
    """One launcher process (``server.py``) and the port it listens on."""

    def __init__(self, spec_path: str, *, trace: bool, log_path: str) -> None:
        command = [sys.executable, os.path.join(HERE, "server.py"), spec_path]
        if trace:
            command.append("--trace")
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True, bufsize=1,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(f"server failed to start; see {log_path}")
        info = json.loads(line[len("READY "):])
        self.port = int(info["port"])
        self.hosts = info["hosts"]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """User + system CPU time the server process has used so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """High-water resident set size (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def dump_spans(self, path: str) -> int:
        self.proc.stdin.write(f"spans {path}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line.startswith("SPANS "):
            raise RuntimeError(f"unexpected control reply {line!r}")
        return int(line.split()[1])

    def stop(self) -> None:
        """Graceful shutdown (drain), escalating to SIGKILL after 20 s."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close()

    def kill(self) -> None:
        """SIGKILL: the crash the durability check recovers from."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                try:
                    stream.close()
                except BrokenPipeError:
                    pass
        self._log.close()


async def wait_healthy(port: int, timeout: float = 120.0) -> None:
    deadline = time.perf_counter() + timeout
    while True:
        try:
            conn = await Connection.open(port)
            try:
                status, _ = await conn.request("GET", "/healthz")
            finally:
                conn.close()
            if status == 200:
                return
        except OSError:
            pass
        if time.perf_counter() > deadline:
            raise RuntimeError("server never answered /healthz")
        await asyncio.sleep(0.01)


async def fetch_json(port: int, path: str) -> dict:
    conn = await Connection.open(port)
    try:
        status, body = await conn.request("GET", path)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


# ---------------------------------------------------------------------- #
# HTTP/1.1 keep-alive client
# ---------------------------------------------------------------------- #


class Connection:
    """One keep-alive connection; requests on it are strictly sequential."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: bytes = b"",
                      request_id: int | None = None) -> tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n"
        if request_id is not None:
            head += f"X-Bench-Id: {request_id}\r\n"
        self._writer.write(head.encode("latin-1") + b"\r\n" + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self._reader.readexactly(length)

    def close(self) -> None:
        self._writer.close()


# ---------------------------------------------------------------------- #
# Load loops
# ---------------------------------------------------------------------- #


@dataclass
class Sample:
    """One timed request: what was sent, what came back, and when."""

    kind: str          # "query" or "insert"
    item: int          # index into the workload's request list
    queries: int       # queries (or records) the request carried
    due: float         # when it was due (closed loop: when it was sent)
    sent: float
    done: float
    status: int
    body: object = None  # decoded JSON answer (2xx only)
    response_bytes: int = 0
    request_id: int = 0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


async def _send(conn: Connection, path: str, payload: bytes,
                request_id: int) -> tuple[int, bytes]:
    """POST one request; a dropped connection reads as status 599."""
    try:
        return await conn.request("POST", path, payload, request_id)
    except (ConnectionError, asyncio.IncompleteReadError):
        return 599, b""


async def closed_loop(port: int, connections: int, seconds: float, next_request,
                      decode=json.loads) -> LoopResult:
    """``connections`` clients, each sending its next request on a reply.

    ``next_request(i)`` returns ``(kind, path, payload_bytes, queries)`` for
    the i-th request issued across all clients; ``decode`` turns a 2xx body
    into what :attr:`Sample.body` keeps.
    """
    conns = [await Connection.open(port) for _ in range(connections)]
    result = LoopResult()
    items = itertools.count()

    async def client(conn: Connection) -> None:
        while time.perf_counter() < result.end:
            item = next(items)
            kind, path, payload, queries = next_request(item)
            sent = time.perf_counter()
            status, body = await _send(conn, path, payload, item + 1)
            done = time.perf_counter()
            result.samples.append(Sample(
                kind, item, queries, sent, sent, done, status,
                decode(body) if 200 <= status < 300 else None, len(body), item + 1,
            ))

    result.start = time.perf_counter()
    result.end = result.start + seconds
    try:
        await asyncio.gather(*(client(conn) for conn in conns))
    finally:
        for conn in conns:
            conn.close()
    result.end = max(result.end, max((s.done for s in result.samples), default=result.end))
    return result


async def open_loop(port: int, streams: list[tuple[float, object]], seconds: float) -> LoopResult:
    """One connection per stream, each sending on a fixed schedule.

    ``streams`` holds ``(rate_per_s, next_request)`` pairs.  Request i of a
    stream is due at ``start + i / rate``; a request whose connection is
    still busy waits, and its latency counts from when it was due.
    ``Sample.sent - max(due, previous reply)`` is the generator's own
    lateness.
    """
    conns = [await Connection.open(port) for _ in streams]
    result = LoopResult()
    request_ids = itertools.count(1)

    async def stream(conn: Connection, rate: float, next_request) -> None:
        item = 0
        while True:
            due = result.start + item / rate
            if due >= result.start + seconds:
                return
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            kind, path, payload, queries = next_request(item)
            request_id = next(request_ids)
            sent = time.perf_counter()
            status, body = await _send(conn, path, payload, request_id)
            done = time.perf_counter()
            result.samples.append(Sample(
                kind, item, queries, due, sent, done, status,
                json.loads(body) if 200 <= status < 300 else None, len(body), request_id,
            ))
            item += 1

    result.start = time.perf_counter() + 0.01
    try:
        await asyncio.gather(*(stream(conn, rate, fn) for conn, (rate, fn) in zip(conns, streams)))
    finally:
        for conn in conns:
            conn.close()
    result.end = max(result.start + seconds, max((s.done for s in result.samples), default=0.0))
    return result
