"""The two-key updatable PolyFit index (minimal delta-buffer variant).

:class:`UpdatablePolyFit2DIndex` pairs a base
:class:`~repro.index.polyfit2d.PolyFit2DIndex` with a point buffer and
serves reads through the same :class:`~repro.index.overlay.DirectoryOverlay`
as the 1-D index: a per-epoch
:class:`~repro.index.overlay.DeltaSnapshot2D` answers the buffered points'
contribution *exactly*, so, as in 1-D, the certified ``4 * delta`` bound
(Lemma 6) holds with a non-empty buffer.  Compaction is a full rebuild over
the merged point set (bounded by the policy threshold); incremental quadtree
compaction — the 2-D analogue of the tail re-segmentation — is a ROADMAP
follow-up.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from ..config import Aggregate, QuadTreeConfig
from ..errors import DataError, SerializationError
from ..index.overlay import DeltaSnapshot2D, DirectoryOverlay
from ..index.polyfit2d import PolyFit2DIndex
from ..queries.batch import SnapshotReads
from ..queries.types import Guarantee
from .policy import CompactionPolicy
from .updatable import IngestMetrics, _open_fresh_wal, _replay_wal
from .wal import WriteAheadLog

__all__ = ["UpdatablePolyFit2DIndex"]


class UpdatablePolyFit2DIndex(SnapshotReads):
    """PolyFit2D with an insert path: point buffer, epochs, rebuild compaction.

    Reads go through :class:`~repro.queries.batch.SnapshotReads`: every
    call answers from one frozen :meth:`snapshot` overlay.
    """

    dims = 2

    def __init__(
        self,
        base: PolyFit2DIndex,
        policy: CompactionPolicy | None = None,
        *,
        wal_path: str | Path | None = None,
        wal_sync_every: int = 1,
        wal_opener=None,
    ) -> None:
        self._base = base
        self._policy = policy or CompactionPolicy()
        self._x_chunks: list[np.ndarray] = []
        self._y_chunks: list[np.ndarray] = []
        self._w_chunks: list[np.ndarray] = []
        self._size = 0
        self._epoch = 0
        self._version = 0
        self._overlay: DirectoryOverlay | None = None
        # Durability (mirrors the 1-D index): log first, apply second.
        self._wal: WriteAheadLog | None = None
        self._replaying = False
        self._restored_wal_counts: dict | None = None
        self._obs = IngestMetrics()
        if wal_path is not None:
            self._wal = _open_fresh_wal(
                wal_path, sync_every=wal_sync_every, opener=wal_opener
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

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

    @classmethod
    def wrap(
        cls,
        index: PolyFit2DIndex,
        policy: CompactionPolicy | None = None,
        *,
        wal_path: str | Path | None = None,
        wal_sync_every: int = 1,
        wal_opener=None,
    ) -> "UpdatablePolyFit2DIndex":
        """Adopt an already-built static 2-D index as the base."""
        return cls(
            index, policy=policy, wal_path=wal_path,
            wal_sync_every=wal_sync_every, wal_opener=wal_opener,
        )

    @classmethod
    def _restore(
        cls,
        base: PolyFit2DIndex,
        policy: CompactionPolicy,
        delta_xs: np.ndarray,
        delta_ys: np.ndarray,
        delta_ws: np.ndarray | None,
        *,
        epoch: int,
    ) -> "UpdatablePolyFit2DIndex":
        """Codec entry point: rebuild with a persisted point buffer and epoch.

        Bypasses auto-compaction so a loaded index reproduces the persisted
        snapshot byte for byte (same buffer, same epoch).
        """
        index = cls(base, policy=policy)
        delta_xs = np.asarray(delta_xs, dtype=np.float64)
        if delta_xs.size:
            index._x_chunks.append(delta_xs.copy())
            index._y_chunks.append(np.asarray(delta_ys, dtype=np.float64).copy())
            ws = (
                np.asarray(delta_ws, dtype=np.float64).copy()
                if delta_ws is not None
                else np.ones_like(delta_xs)
            )
            index._w_chunks.append(ws)
            index._size = int(delta_xs.size)
        index._epoch = int(epoch)
        return index

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def base(self) -> PolyFit2DIndex:
        """The current immutable base index (replaced by compaction)."""
        return self._base

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the index answers."""
        return self._base.aggregate

    @property
    def delta(self) -> float:
        """Per-cell fitting budget of the base."""
        return self._base.delta

    @property
    def certified_bound(self) -> float:
        """Certified absolute bound — unchanged by the exact delta buffer."""
        return self._base.certified_bound

    @property
    def policy(self) -> CompactionPolicy:
        """The compaction policy."""
        return self._policy

    @property
    def epoch(self) -> int:
        """Number of completed compactions (flush epochs)."""
        return self._epoch

    @property
    def version(self) -> int:
        """Monotone write counter: bumped by every insert and compaction.

        Unlike :attr:`epoch` (compactions only), the version changes on
        *every* visible mutation, so result caches keyed on it can never
        serve an answer computed against a different index state.
        """
        return self._version

    @property
    def buffer_size(self) -> int:
        """Number of points currently buffered."""
        return self._size

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def _coerce_insert(
        self, xs: np.ndarray, ys: np.ndarray, measures: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validate and coerce an insert chunk without applying it (so a
        rejected chunk never reaches the WAL — replay must never fail)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        ys = np.atleast_1d(np.asarray(ys, dtype=np.float64))
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise DataError("inserted coordinates must be equal-length 1-D arrays")
        if xs.size == 0:
            return xs, ys, xs
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise DataError("inserted coordinates contain NaN or infinite values")
        if self.aggregate is Aggregate.SUM:
            if measures is None:
                raise DataError("SUM inserts require per-point measures")
            measures = np.atleast_1d(np.asarray(measures, dtype=np.float64))
            if measures.shape != xs.shape:
                raise DataError("inserted measures must match the coordinates")
            if not np.all(np.isfinite(measures)):
                raise DataError("inserted measures contain NaN or infinite values")
            if np.any(measures < 0):
                raise DataError("SUM inserts require non-negative measures")
        else:
            measures = np.ones_like(xs)
        return xs, ys, measures

    def insert(
        self, xs: np.ndarray, ys: np.ndarray, measures: np.ndarray | None = None
    ) -> int:
        """Buffer a chunk of points; compacts when the policy says so.

        With a WAL attached the chunk is logged before it is applied, so an
        acknowledged insert survives a crash (see the 1-D index for the
        group-commit caveat).
        """
        xs, ys, measures = self._coerce_insert(xs, ys, measures)
        if xs.size == 0:
            return 0
        if self._wal is not None and not self._replaying:
            self._wal.append_insert2d(
                xs, ys, measures if self.aggregate is Aggregate.SUM else None
            )
        self._x_chunks.append(xs.copy())
        self._y_chunks.append(ys.copy())
        self._w_chunks.append(measures.copy())
        self._size += xs.size
        self._overlay = None
        self._version += 1
        if (
            not self._replaying
            and self._policy.auto
            and self._policy.should_compact(self._size, self._base_points()[0].size)
        ):
            self.compact()
        return int(xs.size)

    def compact(self) -> bool:
        """Rebuild the base over the merged point set; True if it ran.

        The rebuild reuses the base's configuration (delta, quadtree knobs,
        grid resolution), so the result is bit-identical to a from-scratch
        build over the merged points.
        """
        if self._size == 0:
            return False
        t0 = time.perf_counter()
        self._obs.trigger_buffer_size.observe(self._size)
        base_xs, base_ys, base_ws = self._base_points()
        xs = np.concatenate([base_xs] + self._x_chunks)
        ys = np.concatenate([base_ys] + self._y_chunks)
        if self.aggregate is Aggregate.SUM:
            weights = np.concatenate(
                [base_ws if base_ws is not None else np.ones_like(base_xs)]
                + self._w_chunks
            )
        else:
            weights = None
        self._base = PolyFit2DIndex.build(
            xs,
            ys,
            measures=weights,
            delta=self._base.delta,
            config=self._base.config,
            grid_resolution=self._base.grid_resolution,
            aggregate=self.aggregate,
        )
        self._x_chunks.clear()
        self._y_chunks.clear()
        self._w_chunks.clear()
        self._size = 0
        self._overlay = None
        self._epoch += 1
        self._version += 1
        if self._wal is not None and not self._replaying:
            # After the rebuild, like the 1-D index: a crash in between just
            # replays the buffered points over the old base.
            self._wal.append_compaction(self._epoch)
        self._obs.compactions_total.inc()
        self._obs.compaction_seconds.observe(time.perf_counter() - t0)
        return True

    def _base_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        exact = self._base._points  # noqa: SLF001 - stream is a friend module
        return exact.xs, exact.ys, exact.weights

    def _buffer_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Buffered points in arrival order (the codec/checkpoint input)."""
        if not self._x_chunks:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty.copy(), empty.copy()
        return (
            np.concatenate(self._x_chunks),
            np.concatenate(self._y_chunks),
            np.concatenate(self._w_chunks),
        )

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log, if any."""
        return self._wal

    def close(self) -> None:
        """Sync and close the attached WAL (idempotent; no-op without one)."""
        if self._wal is not None:
            self._wal.close()

    def metrics_families(self) -> list:
        """Compaction + WAL metric families, for registry registration."""
        fams = self._obs.families()
        if self._wal is not None:
            fams += self._wal.metrics.families()
        return fams

    def checkpoint(self, path: str | Path) -> Path:
        """Persist the full state atomically and seal the WAL position."""
        from ..index.codec import save_index

        path = Path(path)
        save_index(self, path)
        if self._wal is not None:
            self._wal.append_seal(epoch=self._epoch, buffer_size=self._size)
        return path

    @classmethod
    def recover(
        cls,
        checkpoint,
        wal_path: str | Path,
        *,
        policy: CompactionPolicy | None = None,
        wal_sync_every: int = 1,
        wal_opener=None,
        verify: bool = False,
    ) -> "UpdatablePolyFit2DIndex":
        """Rebuild the pre-crash state: checkpoint (or base) + WAL replay.

        Mirrors :meth:`UpdatablePolyFitIndex.recover` — ``checkpoint`` is a
        codec file path, a loaded :class:`UpdatablePolyFit2DIndex`, or a bare
        :class:`~repro.index.polyfit2d.PolyFit2DIndex`.
        """
        if isinstance(checkpoint, (str, Path)):
            from ..index.codec import load_index

            index = load_index(checkpoint, mmap=False, verify=verify)
        else:
            index = checkpoint
        if isinstance(index, PolyFit2DIndex):
            index = cls(index, policy=policy)
        if not isinstance(index, cls):
            raise SerializationError(
                f"cannot recover a 2-D updatable index from {type(index).__name__}"
            )
        wal = WriteAheadLog(wal_path, sync_every=wal_sync_every, opener=wal_opener)
        _replay_wal(index, wal, two_dimensional=True)
        return index

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def snapshot(self) -> DirectoryOverlay:
        """Frozen overlay of the current epoch (cached until a mutation)."""
        if self._overlay is None:
            xs, ys, ws = self._buffer_arrays()
            delta = DeltaSnapshot2D(
                xs, ys, ws if self.aggregate is Aggregate.SUM else None, self.aggregate
            )
            self._overlay = DirectoryOverlay(self._base, delta, epoch=self._epoch)
        return self._overlay

    def size_in_bytes(self) -> int:
        """Base directory payload plus the buffered point arrays."""
        return self._base.size_in_bytes() + int(24 * self._size)
