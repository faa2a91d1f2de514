"""Fleet persistence: a JSON manifest plus one codec file per partition.

A saved fleet is a *directory*:

```
fleet/
  manifest.json          # routing + policy + the partition file table
  partition-0000.pfbin   # repro.index.codec binary, kind "updatable1d"
  partition-0002.pfbin   # (empty partitions have no file at all)
  ...
```

``manifest.json`` carries everything the codec files cannot: the split
keys, the fleet policy, the fleet's epoch/version counters, and which file
(if any) holds each partition.  Each partition file is an ordinary
:func:`~repro.index.codec.save_index` file — loadable on its own,
mmap'd from the page cache, and exactly the format ``docs/FORMATS.md``
specifies.  See that document for the manifest field reference.

All load errors are typed :class:`~repro.errors.SerializationError`\\s:
missing/corrupt manifest, unsupported manifest version, wrong kind, or a
partition file that is missing or fails the codec's own validation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..config import Aggregate
from ..errors import SerializationError
from ..index.atomic import atomic_write, prune_tmp_files
from ..index.codec import load_index, save_index
from ..stream.updatable import UpdatablePolyFitIndex
from .fleet import IndexFleet
from .map import PartitionMap
from .partition import Partition
from .policy import FleetPolicy

__all__ = [
    "MANIFEST_NAME",
    "FLEET_MANIFEST_VERSION",
    "save_fleet",
    "load_fleet",
    "is_fleet_dir",
]

#: File name of the manifest inside a fleet directory.
MANIFEST_NAME = "manifest.json"

#: Current manifest format version (independent of the codec's binary
#: container version; bump on incompatible manifest layout changes).
FLEET_MANIFEST_VERSION = 1

_MANIFEST_KIND = "fleet1d"


def _partition_file_name(pid: int) -> str:
    return f"partition-{pid:04d}.pfbin"


def save_fleet(fleet: IndexFleet, directory: str | Path) -> Path:
    """Persist a fleet as a manifest directory; returns the manifest path.

    The directory is created if needed.  Stale ``partition-*.pfbin`` files
    from a previous save with more partitions are removed, so the directory
    always describes exactly one fleet.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SerializationError(f"cannot create fleet directory {directory}: {exc}") from exc
    entries: list[dict[str, Any]] = []
    for pid, partition in enumerate(fleet.partitions):
        if partition.index is None:
            entries.append({"pid": pid, "file": None})
            continue
        file_name = _partition_file_name(pid)
        save_index(partition.index, directory / file_name)
        entries.append({"pid": pid, "file": file_name})
    manifest = {
        "format_version": FLEET_MANIFEST_VERSION,
        "kind": _MANIFEST_KIND,
        "aggregate": fleet.aggregate.value,
        "delta": fleet.delta,
        "splits": fleet.partition_map.to_payload(),
        "policy": fleet.policy.to_payload(),
        "epoch": fleet.epoch,
        "version": fleet.version,
        "partitions": entries,
    }
    for stale in directory.glob("partition-*.pfbin"):
        if stale.name not in {entry["file"] for entry in entries}:
            stale.unlink()
    manifest_path = directory / MANIFEST_NAME
    payload = (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
    # Atomic: the manifest is the commit point of the whole save.  Partition
    # files land first (each atomically), then the manifest flips the
    # directory from the old fleet to the new one in one rename — a crash
    # mid-save leaves a directory that loads as the previous fleet.
    atomic_write(manifest_path, lambda handle: handle.write(payload))
    return manifest_path


def is_fleet_dir(path: str | Path) -> bool:
    """Whether ``path`` looks like a saved fleet (a dir with a manifest)."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def load_fleet(
    directory: str | Path,
    *,
    mmap: bool = True,
    num_shards: int = 1,
    verify: bool = False,
    failure_policy: str = "fail_fast",
) -> IndexFleet:
    """Load a fleet saved by :func:`save_fleet`.

    Partition files are loaded through the binary codec (mmap'd by
    default, so concurrent loaders share pages); routing, policy and the
    epoch/version counters come from the manifest.  Raises
    :class:`~repro.errors.SerializationError` on any structural problem.

    Recovery: stale ``*.tmp`` files from a crashed save are pruned first —
    the manifest is the save's commit point, so whatever it references is
    complete and the tmp leftovers are garbage.  ``verify=True`` checks
    every partition file's per-array checksums (codec format v3) while
    loading.
    """
    directory = Path(directory)
    prune_tmp_files(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise SerializationError(f"cannot read fleet manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SerializationError(f"malformed fleet manifest {manifest_path}: {exc}") from exc
    try:
        version = manifest["format_version"]
        if version != FLEET_MANIFEST_VERSION:
            raise SerializationError(f"unsupported fleet manifest version {version}")
        kind = manifest["kind"]
        if kind != _MANIFEST_KIND:
            raise SerializationError(f"unknown fleet manifest kind {kind!r}")
        aggregate = Aggregate(manifest["aggregate"])
        delta = float(manifest["delta"])
        partition_map = PartitionMap.from_payload(manifest["splits"])
        policy = FleetPolicy.from_payload(manifest["policy"])
        entries = manifest["partitions"]
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"malformed fleet manifest {manifest_path}: {exc}") from exc
    if len(entries) != partition_map.num_partitions:
        raise SerializationError(
            f"fleet manifest {manifest_path} lists {len(entries)} partitions "
            f"but its splits describe {partition_map.num_partitions}"
        )
    partitions: list[Partition] = []
    config = None
    for pid, entry in enumerate(entries):
        file_name = entry.get("file")
        if file_name is None:
            partitions.append(
                Partition(
                    aggregate,
                    delta=delta,
                    config=config,
                    compaction=policy.compaction,
                )
            )
            continue
        partition_path = directory / file_name
        if not partition_path.is_file():
            raise SerializationError(
                f"fleet manifest {manifest_path} references missing "
                f"partition file {file_name}"
            )
        index = load_index(partition_path, mmap=mmap, verify=verify)
        if not isinstance(index, UpdatablePolyFitIndex):
            raise SerializationError(
                f"fleet partition file {file_name} holds a "
                f"{type(index).__name__}, expected an updatable 1-D index"
            )
        if index.aggregate is not aggregate:
            raise SerializationError(
                f"fleet partition file {file_name} answers "
                f"{index.aggregate.value}, manifest says {aggregate.value}"
            )
        config = index.config
        partitions.append(Partition.adopt(index, delta=delta))
    fleet = IndexFleet(
        partition_map,
        partitions,
        aggregate,
        delta=delta,
        config=config,
        policy=policy,
        num_shards=num_shards,
        failure_policy=failure_policy,
    )
    fleet._epoch = int(manifest.get("epoch", 0))  # noqa: SLF001 - persistence is a friend module
    fleet._version = int(manifest.get("version", 0))  # noqa: SLF001
    return fleet
