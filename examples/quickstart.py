#!/usr/bin/env python
"""Quickstart: build a PolyFit index and answer guaranteed approximate queries.

This example walks through the core workflow of the library:

1. generate (or load) a one-key dataset,
2. build a PolyFit index for COUNT queries with an absolute error guarantee,
3. run a few queries and compare against the exact answer,
4. do the same for a relative-error guarantee (with automatic exact fallback),
5. answer the whole workload at once through the vectorized batch API,
6. persist the index to disk and load it back.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    Aggregate,
    Guarantee,
    PolyFitIndex,
    RangeQuery,
    generate_range_queries,
    load_index,
    save_index,
)
from repro.datasets import tweet_latitudes


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Data: 50k latitude-like keys (a scaled-down TWEET dataset).
    # ------------------------------------------------------------------ #
    keys, _ = tweet_latitudes(n=50_000, seed=7)
    print(f"dataset: {keys.size} keys in [{keys.min():.2f}, {keys.max():.2f}]")

    # ------------------------------------------------------------------ #
    # 2. Build a COUNT index with |error| <= 100 guaranteed (Problem 1).
    #    Lemma 2 sets the per-segment budget delta = eps / 2 internally.
    # ------------------------------------------------------------------ #
    eps_abs = 100.0
    index = PolyFitIndex.build(
        keys,
        aggregate=Aggregate.COUNT,
        guarantee=Guarantee.absolute(eps_abs),
    )
    print(
        f"PolyFit index: {index.num_segments} degree-{index.degree} segments, "
        f"{index.size_in_bytes() / 1024:.1f} KiB "
        f"(raw key array would be {keys.nbytes / 1024:.0f} KiB)"
    )

    # ------------------------------------------------------------------ #
    # 3. Absolute-error queries.
    # ------------------------------------------------------------------ #
    print("\nabsolute guarantee (eps_abs = 100):")
    for low, high in [(-60.0, 60.0), (10.0, 45.0), (40.0, 41.0)]:
        query = RangeQuery(low, high, Aggregate.COUNT)
        result = index.query(query, Guarantee.absolute(eps_abs))
        exact = index.exact(query)
        print(
            f"  COUNT[{low:7.1f}, {high:7.1f}]  approx={result.value:10.1f}  "
            f"exact={exact:10.0f}  |err|={abs(result.value - exact):6.1f}  "
            f"certified +/-{result.error_bound:.0f}"
        )

    # ------------------------------------------------------------------ #
    # 4. Relative-error queries (Problem 2). Small answers automatically
    #    fall back to the exact method when the Lemma 3 certificate fails.
    # ------------------------------------------------------------------ #
    eps_rel = 0.01
    print(f"\nrelative guarantee (eps_rel = {eps_rel}):")
    workload = generate_range_queries(keys, 1000, Aggregate.COUNT, seed=11)
    fallbacks = 0
    worst = 0.0
    for query in workload:
        result = index.query(query, Guarantee.relative(eps_rel))
        exact = index.exact(query)
        fallbacks += result.exact_fallback
        if exact > 0:
            worst = max(worst, abs(result.value - exact) / exact)
    print(
        f"  1000 random queries: worst relative error = {worst:.4f}, "
        f"exact fallback used for {fallbacks} queries"
    )

    # ------------------------------------------------------------------ #
    # 5. Batch queries: answer the whole workload with O(1) NumPy calls
    #    over the index's flat coefficient-matrix layout.  Same answers,
    #    50-100x the throughput of the per-query loop above.
    # ------------------------------------------------------------------ #
    import time

    lows = np.array([q.low for q in workload])
    highs = np.array([q.high for q in workload])
    start = time.perf_counter()
    batch = index.query_batch(lows, highs, Guarantee.relative(eps_rel))
    elapsed = time.perf_counter() - start
    print(
        f"\nbatch API: {len(batch)} queries in {elapsed * 1e3:.1f} ms "
        f"({len(batch) / elapsed:,.0f} queries/sec), "
        f"fallback rate {batch.fallback_rate:.1%}"
    )

    # ------------------------------------------------------------------ #
    # 6. Persist and reload.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tweet_count_index.pfbin"
        save_index(index, path)
        restored = load_index(path)
        probe = RangeQuery(-30.0, 30.0, Aggregate.COUNT)
        assert np.isclose(restored.query_value(probe.low, probe.high),
                          index.query_value(probe.low, probe.high))
        size_kib = path.stat().st_size / 1024
        print(f"\nindex saved to {path.name} ({size_kib:.1f} KiB) and reloaded OK")


if __name__ == "__main__":
    main()
