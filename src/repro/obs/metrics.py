"""Dependency-free, thread-safe metrics primitives with Prometheus exposition.

The layer model is deliberately small:

- An *instrument* (``Counter`` / ``Gauge`` / ``Histogram``) holds values and
  is safe to touch from any thread (event loop, flusher executor, shard
  pools).
- A *family* (``CounterFamily`` / ``GaugeFamily`` / ``HistogramFamily``)
  owns a metric name plus a fixed set of label names and hands out one
  instrument per label-value combination via ``labels(...)``.  A family with
  no label names proxies the instrument API directly (``fam.inc()``), so
  call sites stay terse.
- A ``MetricsRegistry`` aggregates families for exposition.  Each layer of
  the system (coalescer, cache, WAL, ...) creates its own families at
  construction time so counts are per-instance; the serving front registers
  them all — optionally under extra constant labels such as
  ``{"index": "default"}`` — and renders the union as Prometheus text
  (format 0.0.4) or as a JSON snapshot for ``/stats``.

Instrumentation can be disabled wholesale: the ``*_family`` constructors
return a shared no-op ``NullInstrument`` when ``enabled=False``, which
absorbs every instrument call and is skipped by ``register``.  That is what
``benchmarks/bench_observability.py`` uses as the uninstrumented baseline.

Histograms use log-spaced (geometric) buckets because the latencies we
track span microseconds (cache hits) to seconds (compaction); percentile
readout interpolates linearly inside the winning bucket.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "MetricsRegistry",
    "NullInstrument",
    "NULL_INSTRUMENT",
    "counter_family",
    "gauge_family",
    "histogram_family",
    "log_buckets",
    "validate_exposition",
    "DEFAULT_LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "EXPOSITION_CONTENT_TYPE",
]

EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_buckets(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """``count`` geometrically spaced bucket upper bounds from lo to hi."""
    if lo <= 0 or hi <= lo or count < 2:
        raise ValueError("log_buckets needs 0 < lo < hi and count >= 2")
    ratio = (hi / lo) ** (1.0 / (count - 1))
    out = [lo * ratio**i for i in range(count)]
    out[-1] = hi  # kill accumulated fp drift on the top bound
    return tuple(out)


# 10 us .. 10 s, ~1.78x per step: wide enough for cache hits and compaction.
DEFAULT_LATENCY_BUCKETS = log_buckets(1e-5, 10.0, 25)
# Power-of-two-ish size buckets for batch sizes / buffer fills.
SIZE_BUCKETS = tuple(float(2**i) for i in range(17))  # 1 .. 65536


# ---------------------------------------------------------------------------
# instruments


class Counter:
    """Monotonically increasing float counter."""

    __slots__ = ("_lock", "_value")

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        """Zero the counter (lifecycle resets, e.g. ``cache.clear()``).

        Prometheus scrapers treat a counter dropping to zero as a process
        restart, which is the right read for an explicit cache reset.
        """
        with self._lock:
            self._value = 0.0

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Settable instantaneous value."""

    __slots__ = ("_lock", "_value")

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_max(self, value: float) -> None:
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


#: Inputs up to this length are binned by looping :meth:`Histogram.observe`.
_SCALAR_OBSERVE_MAX = 8


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    Bucket ``i`` counts observations ``v <= bounds[i]`` (le-style); one
    overflow bucket catches everything above the top bound.  ``observe`` is
    a bisect + increment under a lock; ``observe_many`` bins a whole vector
    with ``np.searchsorted`` so per-batch instrumentation stays O(batch)
    with a single lock acquisition (short inputs just loop ``observe``,
    which is cheaper than the NumPy calls' fixed cost).
    """

    __slots__ = ("_lock", "_bounds", "_bounds_array", "_counts", "_sum", "_count", "_max")

    enabled = True

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._bounds_array = np.asarray(bounds)
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    @property
    def bucket_bounds(self) -> tuple[float, ...]:
        return self._bounds

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    def observe_many(self, values: Iterable[float]) -> None:
        if not isinstance(values, np.ndarray):
            values = list(values)
        if len(values) <= _SCALAR_OBSERVE_MAX:
            for value in values:
                self.observe(value)
            return
        arr = np.asarray(values, dtype=np.float64)
        idx = np.searchsorted(self._bounds_array, arr, side="left")
        binned = np.bincount(idx, minlength=len(self._counts))
        bins = np.flatnonzero(binned)
        increments = zip(bins.tolist(), binned[bins].tolist())
        total = float(arr.sum())
        peak = float(arr.max())
        with self._lock:
            for i, n in increments:
                self._counts[i] += n
            self._sum += total
            self._count += int(arr.size)
            if peak > self._max:
                self._max = peak

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs ending with (+inf, count)."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self._bounds, counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (0..100) by in-bucket interpolation."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            peak = self._max
        if total == 0:
            return 0.0
        target = (q / 100.0) * total
        running = 0
        for i, n in enumerate(counts):
            if n == 0:
                continue
            lower = self._bounds[i - 1] if 0 < i <= len(self._bounds) else 0.0
            upper = self._bounds[i] if i < len(self._bounds) else peak
            if running + n >= target:
                frac = (target - running) / n
                return lower + frac * (max(upper, lower) - lower)
            running += n
        return peak

    def percentiles(self, qs: Sequence[float] = (50, 95, 99)) -> dict[str, float]:
        return {f"p{q:g}": self.percentile(q) for q in qs}

    @property
    def value(self) -> float:
        """Mean observation — convenience for JSON snapshots."""
        return self._sum / self._count if self._count else 0.0


class NullInstrument:
    """Absorbs the full instrument/family API as no-ops (disabled metrics)."""

    __slots__ = ()

    enabled = False
    value = 0.0
    count = 0
    sum = 0.0

    def labels(self, **_labelvalues: object) -> "NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass

    def reset(self) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def percentiles(self, qs: Sequence[float] = (50, 95, 99)) -> dict[str, float]:
        return {f"p{q:g}": 0.0 for q in qs}


NULL_INSTRUMENT = NullInstrument()


# ---------------------------------------------------------------------------
# families


_PROXIED = (
    "inc",
    "dec",
    "reset",
    "set",
    "set_max",
    "observe",
    "observe_many",
    "percentile",
    "percentiles",
    "cumulative_counts",
    "value",
    "count",
    "sum",
)


class MetricFamily:
    """A named metric plus its per-label-combination child instruments."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        labelnames = tuple(labelnames)
        for ln in labelnames:
            if not _LABEL_RE.match(ln) or ln.startswith("__"):
                raise ValueError(f"invalid label name: {ln!r}")
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.enabled = True
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def _new_child(self) -> object:  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labelvalues: object):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def _solo(self):
        """The single child of a label-less family (for proxied calls)."""
        if self.labelnames:
            raise ValueError(f"{self.name} is labeled; use .labels(...)")
        return self.labels()

    def __getattr__(self, item: str):
        if item in _PROXIED:
            return getattr(self._solo(), item)
        raise AttributeError(item)

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return list(self._children.items())


class CounterFamily(MetricFamily):
    kind = "counter"

    def _new_child(self) -> Counter:
        return Counter()


class GaugeFamily(MetricFamily):
    kind = "gauge"

    def _new_child(self) -> Gauge:
        return Gauge()


class HistogramFamily(MetricFamily):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        self._buckets = tuple(float(b) for b in buckets)

    def _new_child(self) -> Histogram:
        return Histogram(self._buckets)


def counter_family(
    name: str, help: str, labelnames: Sequence[str] = (), *, enabled: bool = True
):
    """Create a :class:`CounterFamily`, or the shared null when disabled."""
    return CounterFamily(name, help, labelnames) if enabled else NULL_INSTRUMENT


def gauge_family(
    name: str, help: str, labelnames: Sequence[str] = (), *, enabled: bool = True
):
    """Create a :class:`GaugeFamily`, or the shared null when disabled."""
    return GaugeFamily(name, help, labelnames) if enabled else NULL_INSTRUMENT


def histogram_family(
    name: str,
    help: str,
    labelnames: Sequence[str] = (),
    *,
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    enabled: bool = True,
):
    """Create a :class:`HistogramFamily`, or the shared null when disabled."""
    if not enabled:
        return NULL_INSTRUMENT
    return HistogramFamily(name, help, labelnames, buckets)


# ---------------------------------------------------------------------------
# registry + exposition


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(v: float) -> str:
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if math.isnan(v):
        return "NaN"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _render_labels(pairs: Sequence[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


class MetricsRegistry:
    """Aggregates metric families and renders them for scraping.

    Families may be registered from several instances under the same metric
    name (e.g. one ``repro_cache_hits_total`` per hosted index) as long as
    the kinds agree; ``extra_labels`` distinguish the sources.  Registration
    of a null (disabled) family is a silent no-op, as is re-registering the
    same family object with the same extra labels.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: list[tuple[MetricFamily, tuple[tuple[str, str], ...]]] = []
        self._kinds: dict[str, str] = {}

    def register(self, family, extra_labels: dict[str, str] | None = None):
        if not getattr(family, "enabled", False):
            return family
        extra = tuple(sorted((str(k), str(v)) for k, v in (extra_labels or {}).items()))
        with self._lock:
            seen = self._kinds.get(family.name)
            if seen is not None and seen != family.kind:
                raise ValueError(
                    f"metric {family.name!r} registered as both {seen} and {family.kind}"
                )
            self._kinds[family.name] = family.kind
            if (family, extra) not in [(f, e) for f, e in self._entries]:
                self._entries.append((family, extra))
        return family

    def register_all(self, families, extra_labels: dict[str, str] | None = None) -> None:
        """Register many families; ``(family, labels)`` pairs are accepted so
        a layer can attach its own constant labels (e.g. a fleet tagging each
        partition's families) that merge with the caller's ``extra_labels``."""
        for item in families:
            if isinstance(item, tuple):
                fam, own = item
                merged = {**(extra_labels or {}), **own}
                self.register(fam, merged)
            else:
                self.register(item, extra_labels)

    # Convenience constructors: create + register in one call.
    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()):
        return self.register(counter_family(name, help, labelnames))

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()):
        return self.register(gauge_family(name, help, labelnames))

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        return self.register(histogram_family(name, help, labelnames, buckets=buckets))

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [fam for fam, _ in self._entries]

    def names(self) -> list[str]:
        seen: list[str] = []
        for fam in self.families():
            if fam.name not in seen:
                seen.append(fam.name)
        return seen

    def _grouped(self):
        with self._lock:
            entries = list(self._entries)
        groups: dict[str, list[tuple[MetricFamily, tuple[tuple[str, str], ...]]]] = {}
        for fam, extra in entries:
            groups.setdefault(fam.name, []).append((fam, extra))
        return groups

    def exposition(self) -> str:
        """Render every registered family as Prometheus text format 0.0.4."""
        lines: list[str] = []
        for name, members in self._grouped().items():
            first = members[0][0]
            lines.append(f"# HELP {name} {_escape_help(first.help)}")
            lines.append(f"# TYPE {name} {first.kind}")
            for fam, extra in members:
                for labelvalues, child in fam.children():
                    base = list(extra) + list(zip(fam.labelnames, labelvalues))
                    if fam.kind == "histogram":
                        for bound, cum in child.cumulative_counts():
                            le = _format_value(bound)
                            pairs = base + [("le", le)]
                            lines.append(
                                f"{name}_bucket{_render_labels(pairs)} {cum}"
                            )
                        lines.append(
                            f"{name}_sum{_render_labels(base)} {_format_value(child.sum)}"
                        )
                        lines.append(f"{name}_count{_render_labels(base)} {child.count}")
                    else:
                        lines.append(
                            f"{name}{_render_labels(base)} {_format_value(child.value)}"
                        )
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict:
        """JSON-friendly view: the same instruments `/metrics` renders."""
        out: dict[str, dict] = {}
        for name, members in self._grouped().items():
            first = members[0][0]
            samples = []
            for fam, extra in members:
                for labelvalues, child in fam.children():
                    labels = dict(extra)
                    labels.update(zip(fam.labelnames, labelvalues))
                    if fam.kind == "histogram":
                        entry = {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                        }
                        entry.update(child.percentiles())
                    else:
                        entry = {"labels": labels, "value": child.value}
                    samples.append(entry)
            out[name] = {"kind": first.kind, "help": first.help, "samples": samples}
        return out


# ---------------------------------------------------------------------------
# exposition validation (shared by tests, the bench gate, and metrics_smoke)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{.*\})?"
    r" (?P<value>[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf)|NaN)"
    r"(?: [0-9]+)?$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"')


def _parse_label_block(block: str) -> dict[str, str] | None:
    """Parse ``{a="x",b="y"}``; None when the block violates the grammar."""
    assert block.startswith("{") and block.endswith("}")
    inner = block[1:-1]
    pos = 0
    out: dict[str, str] = {}
    while pos < len(inner):
        m = _LABEL_PAIR_RE.match(inner, pos)
        if not m:
            return None
        out[m.group(1)] = m.group(2)
        pos = m.end()
        if pos < len(inner):
            if inner[pos] != ",":
                return None
            pos += 1
    return out


def validate_exposition(text: str) -> list[str]:
    """Check Prometheus text-format 0.0.4 rules; returns a list of problems.

    Verifies line grammar, label syntax/escaping, TYPE-before-samples,
    sample names matching their declared family (including histogram
    ``_bucket``/``_sum``/``_count`` suffixes), cumulative non-decreasing
    bucket counts, and a ``+Inf`` bucket equal to ``_count``.
    """
    problems: list[str] = []
    types: dict[str, str] = {}
    bucket_series: dict[str, list[tuple[float, float]]] = {}
    hist_counts: dict[str, float] = {}

    def base_name(sample: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if sample.endswith(suffix) and sample[: -len(suffix)] in types:
                return sample[: -len(suffix)]
        return sample

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                problems.append(f"line {lineno}: malformed HELP line")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            if parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                problems.append(f"line {lineno}: unknown metric type {parts[3]!r}")
            if parts[2] in types:
                problems.append(f"line {lineno}: duplicate TYPE for {parts[2]}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # comment
        m = _SAMPLE_RE.match(line)
        if not m:
            problems.append(f"line {lineno}: malformed sample line: {line!r}")
            continue
        name = m.group("name")
        labels: dict[str, str] = {}
        if m.group("labels"):
            parsed = _parse_label_block(m.group("labels"))
            if parsed is None:
                problems.append(f"line {lineno}: malformed label block: {line!r}")
                continue
            labels = parsed
        family = base_name(name)
        if family not in types:
            problems.append(f"line {lineno}: sample {name!r} has no TYPE declaration")
            continue
        kind = types[family]
        if kind == "histogram":
            if name == f"{family}_bucket":
                if "le" not in labels:
                    problems.append(f"line {lineno}: histogram bucket missing le label")
                    continue
                le = math.inf if labels["le"] == "+Inf" else float(labels["le"])
                series_key = family + repr(sorted((k, v) for k, v in labels.items() if k != "le"))
                bucket_series.setdefault(series_key, []).append((le, float(m.group("value"))))
            elif name == f"{family}_count":
                series_key = family + repr(sorted(labels.items()))
                hist_counts[series_key] = float(m.group("value"))
            elif name != f"{family}_sum":
                problems.append(f"line {lineno}: unexpected histogram sample {name!r}")
        elif name != family:
            problems.append(f"line {lineno}: sample {name!r} does not match family {family!r}")

    for key, series in bucket_series.items():
        bounds = [b for b, _ in series]
        counts = [c for _, c in series]
        if bounds != sorted(bounds):
            problems.append(f"{key}: bucket bounds not sorted")
        if any(c2 < c1 for c1, c2 in zip(counts, counts[1:])):
            problems.append(f"{key}: bucket counts not cumulative")
        if not bounds or not math.isinf(bounds[-1]):
            problems.append(f"{key}: missing +Inf bucket")
        elif key in hist_counts and counts[-1] != hist_counts[key]:
            problems.append(f"{key}: +Inf bucket != _count")
    return problems


def _iter_sample_names(text: str) -> Iterator[str]:
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) == 4:
                yield parts[2]


def exposed_metric_names(text: str) -> list[str]:
    """Family names declared by # TYPE lines in an exposition payload."""
    out: list[str] = []
    for name in _iter_sample_names(text):
        if name not in out:
            out.append(name)
    return out
