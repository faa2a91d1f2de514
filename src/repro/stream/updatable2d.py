"""The two-key updatable PolyFit index (minimal delta-buffer variant).

:class:`UpdatablePolyFit2DIndex` runs the shared
:class:`~repro.stream.updatable.MutableIndexCore` lifecycle (point buffer,
WAL, checkpoint, recovery, epochs) over a base
:class:`~repro.index.polyfit2d.PolyFit2DIndex`.  Its overlay delta is a
per-epoch :class:`~repro.index.overlay.DeltaSnapshot2D` that answers the
buffered points' contribution *exactly*, so, as in 1-D, the certified
``4 * delta`` bound (Lemma 6) holds with a non-empty buffer.  Compaction is
a full rebuild over the merged point set (bounded by the policy threshold);
incremental quadtree compaction — the 2-D analogue of the tail
re-segmentation — is a ROADMAP follow-up.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..config import Aggregate, QuadTreeConfig
from ..index.overlay import DeltaSnapshot2D
from ..index.polyfit2d import PolyFit2DIndex
from ..queries.types import Guarantee
from .policy import CompactionPolicy
from .updatable import MutableIndexCore
from .wal import RT_INSERT2D

__all__ = ["UpdatablePolyFit2DIndex"]


class UpdatablePolyFit2DIndex(MutableIndexCore):
    """PolyFit2D with an insert path: point buffer, epochs, rebuild compaction."""

    dims = 2
    _static_type = PolyFit2DIndex
    _wal_insert_kind = RT_INSERT2D

    @classmethod
    def build(
        cls,
        xs: np.ndarray,
        ys: np.ndarray,
        measures: np.ndarray | None = None,
        *,
        delta: float | None = None,
        guarantee: Guarantee | None = None,
        config: QuadTreeConfig | None = None,
        grid_resolution: int = 96,
        aggregate: Aggregate = Aggregate.COUNT,
        policy: CompactionPolicy | None = None,
        wal_path: str | Path | None = None,
        wal_sync_every: int = 1,
        wal_opener=None,
    ) -> "UpdatablePolyFit2DIndex":
        """Build the base 2-D index from points and make it updatable."""
        base = PolyFit2DIndex.build(
            xs,
            ys,
            measures=measures,
            delta=delta,
            guarantee=guarantee,
            config=config,
            grid_resolution=grid_resolution,
            aggregate=aggregate,
        )
        return cls(
            base, policy=policy, wal_path=wal_path,
            wal_sync_every=wal_sync_every, wal_opener=wal_opener,
        )

    # ------------------------------------------------------------------ #
    # Dimension hooks
    # ------------------------------------------------------------------ #

    def _log_chunk(self, chunk: tuple[np.ndarray, ...]) -> None:
        xs, ys, measures = chunk
        self._wal.append_insert2d(
            xs, ys, measures if self.aggregate is Aggregate.SUM else None
        )

    def _delta_snapshot(
        self, xs: np.ndarray, ys: np.ndarray, measures: np.ndarray
    ) -> DeltaSnapshot2D:
        return DeltaSnapshot2D(
            xs, ys, measures if self.aggregate is Aggregate.SUM else None, self.aggregate
        )

    def _base_size(self) -> int:
        return int(self._base_points()[0].size)

    def _fold(self, xs: np.ndarray, ys: np.ndarray, measures: np.ndarray) -> PolyFit2DIndex:
        """Rebuild the base over the merged point set.

        The rebuild reuses the base's configuration (delta, quadtree knobs,
        grid resolution), so the result is bit-identical to a from-scratch
        build over the merged points.
        """
        base_xs, base_ys, base_ws = self._base_points()
        if self.aggregate is Aggregate.SUM:
            weights = np.concatenate(
                (base_ws if base_ws is not None else np.ones_like(base_xs), measures)
            )
        else:
            weights = None
        return PolyFit2DIndex.build(
            np.concatenate((base_xs, xs)),
            np.concatenate((base_ys, ys)),
            measures=weights,
            delta=self._base.delta,
            config=self._base.config,
            grid_resolution=self._base.grid_resolution,
            aggregate=self.aggregate,
        )

    def _base_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        exact = self._base._points  # noqa: SLF001 - stream is a friend module
        return exact.xs, exact.ys, exact.weights
