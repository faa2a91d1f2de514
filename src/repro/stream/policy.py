"""Compaction policy for the streaming write path.

The delta buffer gives O(log m) exact query contributions but costs memory
and one extra ``searchsorted`` per query side; compaction folds it into the
base directory at the price of a re-segmentation pause.  The policy decides
when that trade flips.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import QueryError

__all__ = ["CompactionPolicy"]


@dataclass(frozen=True)
class CompactionPolicy:
    """When an updatable index folds its delta buffer into the base.

    Parameters
    ----------
    max_buffer:
        Hard cap on buffered records; reaching it triggers compaction.
    max_fraction:
        Optional cap as a fraction of the base function size — useful for
        small indexes where a fixed record count would let the buffer dwarf
        the base.  The effective threshold is the smaller of the two caps.
    auto:
        Whether inserts compact automatically when the threshold is reached.
        With ``auto=False`` the buffer grows until :meth:`~repro.stream.
        updatable.UpdatablePolyFitIndex.compact` is called explicitly
        (bench/bulk-load mode).
    """

    max_buffer: int = 65_536
    max_fraction: float | None = None
    auto: bool = True

    def __post_init__(self) -> None:
        if self.max_buffer < 1:
            raise QueryError(f"max_buffer must be >= 1, got {self.max_buffer}")
        if self.max_fraction is not None and self.max_fraction <= 0:
            raise QueryError(f"max_fraction must be positive, got {self.max_fraction}")

    def to_payload(self) -> dict:
        """JSON-compatible form stored in the codec header."""
        return {
            "max_buffer": self.max_buffer,
            "max_fraction": self.max_fraction,
            "auto": self.auto,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CompactionPolicy":
        """Inverse of :meth:`to_payload`."""
        max_fraction = payload["max_fraction"]
        return cls(
            max_buffer=int(payload["max_buffer"]),
            max_fraction=None if max_fraction is None else float(max_fraction),
            auto=bool(payload["auto"]),
        )

    def threshold(self, base_size: int) -> int:
        """Effective buffered-record threshold for a base of ``base_size``."""
        limit = self.max_buffer
        if self.max_fraction is not None:
            limit = min(limit, max(1, int(base_size * self.max_fraction)))
        return limit

    def should_compact(self, buffered: int, base_size: int) -> bool:
        """Whether a buffer of ``buffered`` records is due for compaction."""
        return buffered >= self.threshold(base_size)
