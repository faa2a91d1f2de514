"""Epoch-keyed LRU cache for batch query answers.

Dashboard-style workloads re-issue the same rectangle bounds against a
slowly changing index.  :class:`ResultCache` memoizes whole-batch answers
keyed on ``(version, guarantee, bounds)``: the version component comes from
the index's monotone write counter, so a hit is only possible against the
exact index state that produced the cached answer — an insert or compaction
bumps the version and every stale entry becomes unreachable (and ages out of
the LRU ring).  No explicit invalidation hook is needed, which keeps the
cache safe to wire around any index, updatable or frozen.

Cached answers are returned by reference; callers must treat them as
read-only (the engine's consumers already do — they only ever read the
columnar arrays).

The cache is thread-safe: the serving front-end
(:mod:`repro.serve`) flushes coalesced batches on executor threads, so
lookups, insertions and evictions from different flushes may interleave.
A single lock around each operation keeps the OrderedDict bookkeeping
consistent; the per-call cost is negligible next to a batch evaluation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from repro.obs.metrics import counter_family, gauge_family

from .types import BatchQueryResult, Guarantee

__all__ = ["CacheInfo", "ResultCache"]


@dataclass(frozen=True)
class CacheInfo:
    """Point-in-time cache statistics (mirrors ``functools.lru_cache``)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never probed)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly form (counters plus the derived hit rate), for the
        server's ``/stats`` endpoint and the bench artifacts."""
        return {**asdict(self), "hit_rate": round(self.hit_rate, 4)}


class ResultCache:
    """Bounded LRU over batch answers, keyed by index version and bounds.

    Parameters
    ----------
    maxsize:
        Maximum number of cached batch answers (one entry per distinct
        workload, not per query).  Must be >= 1; the engine simply does not
        construct a cache when caching is disabled.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, BatchQueryResult | np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        # Hit/miss/eviction counts live in metric instruments so the
        # registry (`/metrics`) and `CacheInfo` (`/stats`) read the same
        # source and can never disagree.
        self._fam_hits = counter_family(
            "repro_cache_hits_total", "Result-cache lookups served from cache"
        )
        self._fam_misses = counter_family(
            "repro_cache_misses_total", "Result-cache lookups that missed"
        )
        self._fam_evictions = counter_family(
            "repro_cache_evictions_total", "Result-cache entries evicted by LRU pressure"
        )
        self._fam_entries = gauge_family(
            "repro_cache_entries", "Result-cache entries currently resident"
        )
        self._hits = self._fam_hits.labels()
        self._misses = self._fam_misses.labels()
        self._evictions = self._fam_evictions.labels()
        self._currsize = self._fam_entries.labels()

    def metrics_families(self) -> list:
        """The cache's metric families, for registry registration."""
        return [self._fam_hits, self._fam_misses, self._fam_evictions, self._fam_entries]

    @staticmethod
    def make_key(
        version: int,
        guarantee: Guarantee | None,
        bounds: Sequence[np.ndarray],
    ) -> tuple:
        """Build the lookup key for one batch call.

        The bounds arrays are hashed by their raw bytes — two workloads with
        bit-identical bounds (including NaN payloads, which compare unequal
        but hash equal) share an entry; anything else cannot collide.
        ``Guarantee`` is a frozen dataclass and hashes by value.
        """
        return (
            int(version),
            guarantee,
            tuple(np.ascontiguousarray(b).tobytes() for b in bounds),
        )

    def get(self, key: tuple) -> BatchQueryResult | np.ndarray | None:
        """Return the cached answer for ``key``, or None; updates counters."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
            self._hits.inc()
            return entry

    def put(self, key: tuple, value: BatchQueryResult | np.ndarray) -> None:
        """Insert an answer, evicting the least recently used entry if full."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions.inc()
            self._currsize.set(len(self._entries))

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._hits.reset()
            self._misses.reset()
            self._currsize.set(0)

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=int(self._hits.value),
                misses=int(self._misses.value),
                maxsize=self._maxsize,
                currsize=len(self._entries),
                evictions=int(self._evictions.value),
            )
