"""PolyFit index structures — the paper's primary contribution.

* :mod:`guarantees` — the delta-derivation and certification rules of
  Lemmas 2-7 (how a requested absolute/relative error budget translates into
  the per-segment fitting budget, and when a relative-error answer can be
  certified without falling back to the exact method).
* :mod:`directory` — the shared flat cell-directory core: sorted locate
  keys, cell boundaries, coefficient banks, exact markers and certified
  error bounds as contiguous arrays, specialized for 1-D segment lists
  (:class:`SegmentDirectory`) and Morton-linearized quadtree leaves
  (:class:`QuadDirectory`).
* :mod:`polyfit1d` — :class:`PolyFitIndex`, the one-key index supporting
  COUNT, SUM, MIN and MAX queries.
* :mod:`polyfit2d` — :class:`PolyFit2DIndex`, the two-key COUNT/SUM index
  built on quadtree-segmented polynomial surfaces.
* :mod:`overlay` — the read-only overlay view the streaming write path
  (:mod:`repro.stream`) serves queries from: the base directory's certified
  estimate combined with a frozen, exact delta-buffer snapshot.
* :mod:`codec` — the index file format: one mappable raw-buffer file per
  index (:func:`save_index` / :func:`load_index`), loaded with ``mmap`` so
  the directory arrays are served from page cache instead of re-parsed.
"""

from .directory import (
    CellDirectory,
    QuadDirectory,
    RangeExtremeTable,
    SegmentDirectory,
)
from .guarantees import (
    delta_for_absolute,
    delta_for_relative,
    certify_relative,
    certified_absolute_bound,
    CORNER_FACTORS,
)
from .polyfit1d import PolyFitIndex
from .polyfit2d import PolyFit2DIndex
from .codec import save_index, load_index
from .overlay import DeltaSnapshot, DirectoryOverlay

__all__ = [
    "DeltaSnapshot",
    "DirectoryOverlay",
    "CellDirectory",
    "SegmentDirectory",
    "QuadDirectory",
    "RangeExtremeTable",
    "delta_for_absolute",
    "delta_for_relative",
    "certify_relative",
    "certified_absolute_bound",
    "CORNER_FACTORS",
    "PolyFitIndex",
    "PolyFit2DIndex",
    "save_index",
    "load_index",
]
