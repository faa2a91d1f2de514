#!/usr/bin/env python
"""fsck smoke: the CLI exit-code contract against a fresh corrupted fixture.

Builds a small codec file, a WAL and a 2-partition fleet directory in a
scratch directory, then drives ``repro fsck`` through the same ``main()``
the console entry point uses:

* all three clean artifacts must pass with exit status 0;
* after one bit flip inside a codec data blob, fsck must exit 1 and name
  the damage (``codec-corrupt``).

Run via ``make fsck-smoke``.  Exit status 0 when the contract holds.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro import Aggregate, IndexFleet, UpdatablePolyFitIndex, save_fleet  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.config import FitConfig, IndexConfig, SegmentationConfig  # noqa: E402
from repro.index.codec import save_index  # noqa: E402
from repro.stream import WriteAheadLog  # noqa: E402
from repro.testing.faults import flip_bit  # noqa: E402

FAST = IndexConfig(fit=FitConfig(degree=1), segmentation=SegmentationConfig(delta=25.0))


def run() -> int:
    keys = np.sort(np.random.default_rng(41).uniform(0.0, 1000.0, size=2000))
    with tempfile.TemporaryDirectory(prefix="fsck-smoke-") as scratch:
        scratch = Path(scratch)

        codec_path = scratch / "index.pfbin"
        index = UpdatablePolyFitIndex.build(
            keys, aggregate=Aggregate.COUNT, delta=25.0, config=FAST
        )
        index.insert(np.array([1.5, 2.5]))
        save_index(index, codec_path)

        wal_path = scratch / "ingest.wal"
        with WriteAheadLog(wal_path) as wal:
            for i in range(4):
                wal.append_insert(np.arange(8, dtype=float) + i)

        fleet_dir = scratch / "fleet"
        fleet = IndexFleet.build(
            keys, None, Aggregate.COUNT, delta=25.0, config=FAST, num_partitions=2
        )
        save_fleet(fleet, fleet_dir)

        print("== fsck over clean artifacts (expect exit 0) ==")
        status = main(["fsck", str(codec_path), str(wal_path), str(fleet_dir)])
        if status != 0:
            print(f"FAIL: clean artifacts reported status {status}", file=sys.stderr)
            return 1

        flip_bit(codec_path, codec_path.stat().st_size // 2)
        print("\n== fsck after one bit flip (expect exit 1) ==")
        status = main(["fsck", str(codec_path)])
        if status != 1:
            print(f"FAIL: corrupted codec reported status {status}", file=sys.stderr)
            return 1

    print("\nfsck smoke OK: clean -> 0, corrupted -> 1")
    return 0


if __name__ == "__main__":
    sys.exit(run())
