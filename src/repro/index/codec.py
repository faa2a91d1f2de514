"""The PolyFit index file format: a zero-copy binary codec.

A built index persists as one *raw-buffer* file that memory-maps:

``magic (8 bytes) | header length (uint64 LE) | JSON header | array blobs``

The JSON header carries the scalar metadata (aggregate, delta, configs, the
pointer-quadtree oracle for 2-D) plus an array table mapping each array name
to its offset, shape and dtype; every blob is stored C-contiguous and
64-byte aligned.  :func:`load_index` maps the file once with
``numpy.memmap(mode="r")`` and materializes each array as a zero-copy view
into the mapping, so the flat cell-directory arrays the batch query path
reads (locate keys, cell bounds, coefficient tensors, the sampled target
function / CF grid) are backed directly by page cache: loading costs no
float-parsing pass, and every loader of the same file (fleet partitions,
checkpoint recovery, ``repro serve``) reads the same physical pages.

A plain ``.npz`` archive was rejected for this role on purpose: npz is a
zip container, so ``numpy.load(..., mmap_mode="r")`` silently falls back to
eager reads.  The raw-buffer layout keeps the mmap guarantee while staying
within one file.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - the import would be circular at runtime
    from ..stream.updatable import UpdatablePolyFitIndex

from ..config import Aggregate, FitConfig, IndexConfig, QuadTreeConfig, SegmentationConfig
from ..errors import DataError, QueryError, SerializationError
from ..fitting.polynomial import Polynomial1D, Polynomial2D, SurfaceBank
from ..fitting.quadtree import QuadCell
from .atomic import atomic_write
from ..fitting.segmentation import Segment
from ..functions.cumulative2d import Cumulative2D
from .directory import QuadDirectory
from .polyfit1d import PolyFitIndex
from .polyfit2d import PolyFit2DIndex

__all__ = [
    "BINARY_MAGIC",
    "write_array_store",
    "read_array_store",
    "save_index",
    "load_index",
]

#: Leading bytes of every PolyFit binary index file (includes the container
#: version; bump the trailing byte on incompatible layout changes).
BINARY_MAGIC = b"PFITBIN\x01"

#: Blob alignment in bytes.  64 covers every dtype alignment requirement and
#: keeps each array cache-line aligned inside the mapping.
_ALIGNMENT = 64

#: v2 adds the optional 2-D point-extreme payload (``ext_*`` arrays plus the
#: ``extreme_aggregate`` meta key).  v3 adds a ``crc32`` field per array-table
#: entry (verified behind the ``verify=`` knob), the ``updatable2d`` kind and
#: the optional ``wal_counts`` checkpoint metadata.  Every addition is purely
#: additive, so the reader accepts all three versions; v1/v2 entries simply
#: carry no checksum to verify.
_BINARY_FORMAT_VERSION = 3
_SUPPORTED_FORMAT_VERSIONS = frozenset({1, 2, 3})


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


# --------------------------------------------------------------------- #
# Generic array store
# --------------------------------------------------------------------- #


def write_array_store(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    meta: dict,
    *,
    opener=None,
) -> None:
    """Write named arrays plus JSON metadata as one mappable binary file.

    Arrays are stored C-contiguous at 64-byte-aligned offsets; ``meta`` must
    be JSON-serializable.  The layout is fully described by the embedded
    header, so readers need no out-of-band schema.  Each table entry carries
    the CRC-32 of its blob (format v3), checked on load behind the
    ``verify=`` knob of :func:`read_array_store`.

    The file lands via :func:`~repro.index.atomic.atomic_write` (tmp +
    fsync + ``os.replace``): a crash at any point of the write leaves the
    previous version of ``path`` intact, plus at most a stale ``.tmp`` file.
    ``opener`` is the atomic writer's fault-injection hook.
    """
    contiguous: dict[str, np.ndarray] = {}
    table: dict[str, dict] = {}
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _aligned(offset)
        contiguous[name] = array
        table[name] = {
            "offset": offset,
            "shape": list(array.shape),
            "dtype": array.dtype.str,
            "crc32": zlib.crc32(array.data),
        }
        offset += array.nbytes
    header = json.dumps({"meta": meta, "arrays": table}).encode("utf-8")
    data_start = _aligned(len(BINARY_MAGIC) + 8 + len(header))

    def _stream(handle) -> None:
        handle.write(BINARY_MAGIC)
        handle.write(struct.pack("<Q", len(header)))
        handle.write(header)
        position = len(BINARY_MAGIC) + 8 + len(header)
        for name, array in contiguous.items():
            target = data_start + table[name]["offset"]
            handle.write(b"\x00" * (target - position))
            # The arrays are C-contiguous; writing the buffer directly
            # streams the bytes without materializing a tobytes() copy.
            handle.write(array.data)
            position = target + array.nbytes

    atomic_write(Path(path), _stream, opener=opener)


def read_array_store(
    path: str | Path, *, mmap: bool = True, verify: bool = False
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a :func:`write_array_store` file back as ``(meta, arrays)``.

    With ``mmap=True`` the file is mapped read-only and every returned array
    is a zero-copy view into the mapping (shared across processes through
    the page cache); with ``mmap=False`` the bytes are read eagerly once and
    the arrays are read-only views into that private buffer.

    ``verify=True`` recomputes each blob's CRC-32 against the table entry
    (format v3; v1/v2 entries carry no checksum and are skipped) and raises
    :class:`~repro.errors.SerializationError` on a mismatch.  With mmap the
    check faults every page in once — the price of catching bit rot before
    it reaches an answer; the default stays lazy.
    """
    path = Path(path)
    try:
        if mmap:
            buffer: np.ndarray | bytes = np.memmap(path, dtype=np.uint8, mode="r")
        else:
            buffer = path.read_bytes()
    except (OSError, ValueError) as exc:
        raise SerializationError(f"cannot read binary index from {path}: {exc}") from exc

    total = len(buffer)
    prefix = len(BINARY_MAGIC) + 8
    if total < prefix or bytes(buffer[: len(BINARY_MAGIC)]) != BINARY_MAGIC:
        raise SerializationError(f"{path} is not a PolyFit binary index (bad magic)")
    (header_length,) = struct.unpack("<Q", bytes(buffer[len(BINARY_MAGIC): prefix]))
    if prefix + header_length > total:
        raise SerializationError(f"truncated binary index header in {path}")
    try:
        payload = json.loads(bytes(buffer[prefix: prefix + header_length]).decode("utf-8"))
        meta = payload["meta"]
        table = payload["arrays"]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise SerializationError(f"malformed binary index header in {path}: {exc}") from exc

    data_start = _aligned(prefix + header_length)
    arrays: dict[str, np.ndarray] = {}
    try:
        for name, entry in table.items():
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(dim) for dim in entry["shape"])
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            start = data_start + int(entry["offset"])
            if start + count * dtype.itemsize > total:
                raise SerializationError(f"truncated array {name!r} in {path}")
            array = np.frombuffer(
                buffer, dtype=dtype, count=count, offset=start
            ).reshape(shape)
            if verify and "crc32" in entry:
                actual = zlib.crc32(
                    np.ascontiguousarray(array).view(np.uint8).reshape(-1).data
                )
                if actual != int(entry["crc32"]) & 0xFFFFFFFF:
                    raise SerializationError(
                        f"checksum mismatch for array {name!r} in {path}: "
                        f"stored {int(entry['crc32']):#010x}, computed {actual:#010x}"
                    )
            arrays[name] = array
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"malformed array table in {path}: {exc}") from exc
    return meta, arrays


# --------------------------------------------------------------------- #
# One-key index
# --------------------------------------------------------------------- #


def _index1d_to_store(index: PolyFitIndex) -> tuple[dict, dict[str, np.ndarray]]:
    if index.aggregate.is_cumulative:
        function = index._cumulative  # noqa: SLF001 - codec is a friend module
        function_keys, function_values = function.keys, function.values
    else:
        function = index._key_measure  # noqa: SLF001
        function_keys, function_values = function.keys, function.measures
    segments = index.segments
    coeff_lengths = np.array(
        [segment.polynomial.coeffs.size for segment in segments], dtype=np.int64
    )
    meta = {
        "format_version": _BINARY_FORMAT_VERSION,
        "kind": "polyfit1d",
        "aggregate": index.aggregate.value,
        "delta": index.delta,
        "degree": index.degree,
        "fanout": index.config.fanout,
        "segmentation_method": index.config.segmentation.method,
    }
    arrays = {
        "function_keys": function_keys,
        "function_values": function_values,
        "seg_key_low": np.array([s.key_low for s in segments], dtype=np.float64),
        "seg_key_high": np.array([s.key_high for s in segments], dtype=np.float64),
        "seg_start": np.array([s.start for s in segments], dtype=np.int64),
        "seg_stop": np.array([s.stop for s in segments], dtype=np.int64),
        "seg_max_error": np.array([s.max_error for s in segments], dtype=np.float64),
        "poly_coeff_len": coeff_lengths,
        "poly_coeffs": np.concatenate([s.polynomial.coeffs for s in segments]),
        "poly_shift": np.array([s.polynomial.shift for s in segments], dtype=np.float64),
        "poly_scale": np.array([s.polynomial.scale for s in segments], dtype=np.float64),
    }
    return meta, arrays


def _index1d_from_store(meta: dict, arrays: dict[str, np.ndarray]) -> PolyFitIndex:
    coeff_lengths = arrays["poly_coeff_len"]
    offsets = np.concatenate(([0], np.cumsum(coeff_lengths)))
    coeffs = arrays["poly_coeffs"]
    shifts = arrays["poly_shift"]
    scales = arrays["poly_scale"]
    segments = [
        Segment(
            key_low=float(arrays["seg_key_low"][row]),
            key_high=float(arrays["seg_key_high"][row]),
            start=int(arrays["seg_start"][row]),
            stop=int(arrays["seg_stop"][row]),
            polynomial=Polynomial1D(
                coeffs=coeffs[offsets[row]: offsets[row + 1]],
                shift=float(shifts[row]),
                scale=float(scales[row]),
            ),
            max_error=float(arrays["seg_max_error"][row]),
        )
        for row in range(coeff_lengths.size)
    ]
    delta = float(meta["delta"])
    config = IndexConfig(
        fit=FitConfig(degree=int(meta["degree"])),
        segmentation=SegmentationConfig(delta=delta, method=meta["segmentation_method"]),
        fanout=int(meta["fanout"]),
    )
    return PolyFitIndex.from_segments(
        Aggregate(meta["aggregate"]),
        delta,
        segments,
        arrays["function_keys"],
        arrays["function_values"],
        config,
    )


# --------------------------------------------------------------------- #
# Two-key index
# --------------------------------------------------------------------- #


def _quadcell_to_dict(cell: QuadCell) -> dict:
    payload: dict = {
        "x_low": cell.x_low,
        "x_high": cell.x_high,
        "y_low": cell.y_low,
        "y_high": cell.y_high,
        "depth": cell.depth,
        "max_error": cell.max_error,
        "surface": None if cell.surface is None else cell.surface.to_dict(),
        "exact_points": None,
        "children": [_quadcell_to_dict(child) for child in cell.children],
    }
    if cell.exact_points is not None:
        us, vs, cf = cell.exact_points
        payload["exact_points"] = [us.tolist(), vs.tolist(), cf.tolist()]
    return payload


def _quadcell_from_dict(payload: dict) -> QuadCell:
    cell = QuadCell(
        x_low=float(payload["x_low"]),
        x_high=float(payload["x_high"]),
        y_low=float(payload["y_low"]),
        y_high=float(payload["y_high"]),
        depth=int(payload["depth"]),
        max_error=float(payload["max_error"]),
    )
    if payload["surface"] is not None:
        cell.surface = Polynomial2D.from_dict(payload["surface"])
    if payload["exact_points"] is not None:
        us, vs, cf = payload["exact_points"]
        cell.exact_points = (
            np.asarray(us, dtype=np.float64),
            np.asarray(vs, dtype=np.float64),
            np.asarray(cf, dtype=np.float64),
        )
    cell.children = [_quadcell_from_dict(child) for child in payload["children"]]
    return cell


def _index2d_to_store(index: PolyFit2DIndex) -> tuple[dict, dict[str, np.ndarray]]:
    exact = index._exact  # noqa: SLF001 - codec is a friend module
    directory = index.directory
    meta = {
        "format_version": _BINARY_FORMAT_VERSION,
        "kind": "polyfit2d",
        "aggregate": index.aggregate.value,
        "delta": index.delta,
        "grid_resolution": index.grid_resolution,
        "config": {
            "delta": index.config.delta,
            "max_depth": index.config.max_depth,
            "min_cell_points": index.config.min_cell_points,
            "degree": index.config.degree,
        },
        "depth": directory.depth,
        "root_bounds": list(directory.root_bounds),
        "has_weights": exact.weights is not None,
        # The pointer quadtree is the scalar oracle; it is small next to the
        # point/grid arrays, so it rides in the JSON header verbatim.
        "quadtree": _quadcell_to_dict(index._root),  # noqa: SLF001
    }
    arrays = {
        "xs": exact.xs,
        "ys": exact.ys,
        "order_by_x": np.asarray(exact.order_by_x, dtype=np.int64),
        "ys_sorted_by_x": exact.ys_sorted_by_x,
        "grid_x": directory.grid_x,
        "grid_y": directory.grid_y,
        "grid_cf": directory.grid_cf,
        "dir_keys": directory.keys,
        "dir_lows": directory.lows,
        "dir_highs": directory.highs,
        "dir_errors": directory.errors,
        "dir_exact_mask": directory.exact_mask,
        "dir_exact_ranges": np.asarray(directory.exact_ranges, dtype=np.int64),
    }
    for name, array in directory.surfaces.to_arrays().items():
        arrays[f"surf_{name}"] = array
    if exact.weights is not None:
        arrays["weights"] = exact.weights
        arrays["weights_sorted_by_x"] = exact.weights_sorted_by_x
    extremes = directory.point_extremes
    if extremes is not None:
        # The leaf-sorted point arrays are enough to rebuild the payload:
        # attach_extremes re-runs the deterministic locate pass on load, and
        # a stable sort of already-grouped points is the identity.
        meta["extreme_aggregate"] = (
            Aggregate.MAX.value if extremes.maximize else Aggregate.MIN.value
        )
        arrays["ext_xs"] = extremes.xs
        arrays["ext_ys"] = extremes.ys
        arrays["ext_measures"] = extremes.measures
    return meta, arrays


def _index2d_from_store(meta: dict, arrays: dict[str, np.ndarray]) -> PolyFit2DIndex:
    has_weights = bool(meta["has_weights"])
    exact = Cumulative2D(
        xs=arrays["xs"],
        ys=arrays["ys"],
        order_by_x=arrays["order_by_x"],
        ys_sorted_by_x=arrays["ys_sorted_by_x"],
        weights=arrays["weights"] if has_weights else None,
        weights_sorted_by_x=arrays["weights_sorted_by_x"] if has_weights else None,
    )
    surfaces = SurfaceBank.from_arrays(
        {
            "coeffs": arrays["surf_coeffs"],
            "shift_u": arrays["surf_shift_u"],
            "scale_u": arrays["surf_scale_u"],
            "shift_v": arrays["surf_shift_v"],
            "scale_v": arrays["surf_scale_v"],
        }
    )
    directory = QuadDirectory(
        keys=arrays["dir_keys"],
        lows=arrays["dir_lows"],
        highs=arrays["dir_highs"],
        errors=arrays["dir_errors"],
        exact_mask=arrays["dir_exact_mask"],
        depth=int(meta["depth"]),
        root_bounds=tuple(meta["root_bounds"]),
        surfaces=surfaces,
        exact_ranges=arrays["dir_exact_ranges"],
        grid_x=arrays["grid_x"],
        grid_y=arrays["grid_y"],
        grid_cf=arrays["grid_cf"],
    )
    extreme_aggregate = meta.get("extreme_aggregate")
    if extreme_aggregate is not None:
        directory.attach_extremes(
            arrays["ext_xs"],
            arrays["ext_ys"],
            arrays["ext_measures"],
            Aggregate(extreme_aggregate),
        )
    config_payload = meta["config"]
    config = QuadTreeConfig(
        delta=float(config_payload["delta"]),
        max_depth=int(config_payload["max_depth"]),
        min_cell_points=int(config_payload["min_cell_points"]),
        degree=int(config_payload["degree"]),
    )
    return PolyFit2DIndex(
        root=_quadcell_from_dict(meta["quadtree"]),
        exact=exact,
        delta=float(meta["delta"]),
        aggregate=Aggregate(meta["aggregate"]),
        config=config,
        grid_resolution=int(meta["grid_resolution"]),
        directory=directory,
        grid=(arrays["grid_x"], arrays["grid_y"], arrays["grid_cf"]),
    )


# --------------------------------------------------------------------- #
# Updatable one-key index (base payload + persisted delta log)
# --------------------------------------------------------------------- #


def _wal_counts_meta(index) -> dict | None:
    """Checkpoint position: how much of the attached WAL this file subsumes.

    Recorded at save time so :meth:`recover` can skip exactly the insert and
    compaction records the checkpoint already contains — the file and its
    counts land atomically together, which makes checkpoint-then-crash
    recoverable no matter where the crash falls.
    """
    wal = getattr(index, "_wal", None)
    if wal is None:
        return None
    return {"inserts": wal.insert_records, "compactions": wal.compaction_records}


def _updatable1d_to_store(index) -> tuple[dict, dict[str, np.ndarray]]:
    """Base index arrays plus the sorted delta log of the current epoch.

    The file is one immutable snapshot: whoever maps it sees the same base
    directory *and* the same buffered records — one consistent flush epoch.
    """
    base_meta, arrays = _index1d_to_store(index.base)
    snapshot = index.snapshot().delta
    arrays = dict(arrays)
    arrays["delta_keys"] = snapshot.keys
    arrays["delta_measures"] = snapshot.measures
    meta = {
        "format_version": _BINARY_FORMAT_VERSION,
        "kind": "updatable1d",
        "epoch": index.epoch,
        "policy": index.policy.to_payload(),
        "base": base_meta,
    }
    wal_counts = _wal_counts_meta(index)
    if wal_counts is not None:
        meta["wal_counts"] = wal_counts
    return meta, arrays


def _updatable1d_from_store(meta: dict, arrays: dict[str, np.ndarray]):
    from ..stream.policy import CompactionPolicy
    from ..stream.updatable import UpdatablePolyFitIndex

    base = _index1d_from_store(meta["base"], arrays)
    index = UpdatablePolyFitIndex._restore(  # noqa: SLF001 - codec is a friend module
        base,
        CompactionPolicy.from_payload(meta["policy"]),
        arrays["delta_keys"],
        arrays["delta_measures"],
        epoch=int(meta["epoch"]),
    )
    index._restored_wal_counts = meta.get("wal_counts")  # noqa: SLF001
    return index


# --------------------------------------------------------------------- #
# Updatable two-key index (base payload + buffered points)
# --------------------------------------------------------------------- #


def _updatable2d_to_store(index) -> tuple[dict, dict[str, np.ndarray]]:
    """Base 2-D payload plus the buffered points, in arrival order.

    Arrival order (not the sorted snapshot) so a restored index's compaction
    concatenates the chunks exactly as the live one would — replay and
    checkpoint recovery stay bit-identical.
    """
    from ..config import Aggregate as _Aggregate

    base_meta, arrays = _index2d_to_store(index.base)
    arrays = dict(arrays)
    xs, ys, ws = index._buffer_arrays()  # noqa: SLF001 - codec is a friend module
    arrays["delta_xs"] = xs
    arrays["delta_ys"] = ys
    if index.aggregate is _Aggregate.SUM:
        arrays["delta_ws"] = ws
    meta = {
        "format_version": _BINARY_FORMAT_VERSION,
        "kind": "updatable2d",
        "epoch": index.epoch,
        "policy": index.policy.to_payload(),
        "base": base_meta,
    }
    wal_counts = _wal_counts_meta(index)
    if wal_counts is not None:
        meta["wal_counts"] = wal_counts
    return meta, arrays


def _updatable2d_from_store(meta: dict, arrays: dict[str, np.ndarray]):
    from ..stream.policy import CompactionPolicy
    from ..stream.updatable2d import UpdatablePolyFit2DIndex

    base = _index2d_from_store(meta["base"], arrays)
    index = UpdatablePolyFit2DIndex._restore(  # noqa: SLF001 - codec is a friend module
        base,
        CompactionPolicy.from_payload(meta["policy"]),
        arrays["delta_xs"],
        arrays["delta_ys"],
        arrays.get("delta_ws"),
        epoch=int(meta["epoch"]),
    )
    index._restored_wal_counts = meta.get("wal_counts")  # noqa: SLF001
    return index


# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #


def save_index(
    index: "PolyFitIndex | PolyFit2DIndex | UpdatablePolyFitIndex",
    path: str | Path,
    *,
    opener=None,
) -> None:
    """Serialize a built index to the binary index format (atomically)."""
    from ..stream.updatable import UpdatablePolyFitIndex
    from ..stream.updatable2d import UpdatablePolyFit2DIndex

    if isinstance(index, UpdatablePolyFitIndex):
        meta, arrays = _updatable1d_to_store(index)
    elif isinstance(index, UpdatablePolyFit2DIndex):
        meta, arrays = _updatable2d_to_store(index)
    elif isinstance(index, PolyFit2DIndex):
        meta, arrays = _index2d_to_store(index)
    elif isinstance(index, PolyFitIndex):
        meta, arrays = _index1d_to_store(index)
    else:
        raise SerializationError(f"cannot serialize {type(index)!r}")
    write_array_store(path, arrays, meta, opener=opener)


def load_index(
    path: str | Path, *, mmap: bool = True, verify: bool = False
) -> "PolyFitIndex | PolyFit2DIndex | UpdatablePolyFitIndex":
    """Load an index written by :func:`save_index`.

    With ``mmap=True`` (default) the heavy arrays — the sampled target
    function, point set, CF grid and the flat directory — are read-only
    views into the OS page cache, so concurrent loads of the same file
    share physical memory.  ``verify=True`` checks every blob's CRC-32
    first (see :func:`read_array_store`).

    Every failure is a typed :class:`~repro.errors.SerializationError`: a
    missing magic, a malformed header or array table, and arrays that fail
    the structural validation of the assembled index (for example leaf
    Morton keys out of order).
    """
    meta, arrays = read_array_store(path, mmap=mmap, verify=verify)
    try:
        kind = meta["kind"]
        version = meta["format_version"]
        if version not in _SUPPORTED_FORMAT_VERSIONS:
            raise SerializationError(f"unsupported binary format version {version}")
        if kind == "polyfit1d":
            return _index1d_from_store(meta, arrays)
        if kind == "polyfit2d":
            return _index2d_from_store(meta, arrays)
        if kind == "updatable1d":
            return _updatable1d_from_store(meta, arrays)
        if kind == "updatable2d":
            return _updatable2d_from_store(meta, arrays)
    except (KeyError, ValueError, TypeError, IndexError, QueryError, DataError) as exc:
        raise SerializationError(f"malformed binary index payload: {exc}") from exc
    raise SerializationError(f"unknown binary index kind {kind!r}")
