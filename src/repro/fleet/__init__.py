"""Horizontally partitioned index fleet with scatter-gather routing.

One updatable PolyFit index per key range, a binary-searchable
:class:`PartitionMap` owning the ranges, and a :class:`FleetRouter` that
clips each query batch against partition boundaries, fans the sub-batches
out, and merges partial answers with the overlay combine algebra
(COUNT/SUM add, MAX/MIN NaN-aware fmax/fmin) under per-query certified
bounds.  :class:`IndexFleet` wraps it all behind the surface of a single
updatable index — including ``split``/``merge`` rebalancing by size under
a :class:`FleetPolicy` that never pauses reads — and
:func:`save_fleet`/:func:`load_fleet` persist it as a manifest directory
of per-partition codec files.  See ``docs/ARCHITECTURE.md`` for where the
fleet sits in the system and ``docs/FORMATS.md`` for the manifest format.
"""

from .fleet import Fleet2D, IndexFleet
from .map import PartitionMap
from .partition import EmptyPartitionView, Partition
from .persistence import (
    FLEET_MANIFEST_VERSION,
    MANIFEST_NAME,
    is_fleet_dir,
    load_fleet,
    save_fleet,
)
from .policy import DEFAULT_FLEET_POLICY, FleetPolicy
from .router import FleetRouter, PartitionPlan

__all__ = [
    "PartitionMap",
    "Partition",
    "EmptyPartitionView",
    "FleetPolicy",
    "DEFAULT_FLEET_POLICY",
    "FleetRouter",
    "PartitionPlan",
    "IndexFleet",
    "Fleet2D",
    "MANIFEST_NAME",
    "FLEET_MANIFEST_VERSION",
    "save_fleet",
    "load_fleet",
    "is_fleet_dir",
]
