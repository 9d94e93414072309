"""Whole-volume inference: partition into cubes, segment, assemble, score.

Tiling is deterministic: non-overlapping cubes in z-major origin order cover
the extents rounded up to cube-shape multiples.  A cube is a view of the
volume, or a zero-padded copy where it reaches past the high edge; results are
written origin-keyed into an output of the volume's extents, so no stage copies
the whole volume and the worker count never changes the output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ._blas import one_blas_thread
from .data.cubes import _cut, _padded_extents
from .errors import ShapeMismatchError
from .nn.functional import first_max
from .validation import as_volume, check_same_shape


@dataclass(frozen=True)
class CubeGrid:
    original_extents: tuple
    padded_extents: tuple
    cube_shape: tuple
    origins: tuple  # z-major ordered (z, y, x) tuples


@dataclass
class SegmentationResult:
    labels: np.ndarray
    provenance: dict = field(default_factory=dict)
    cube_logits: dict | None = None


def _is_count(n) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _grid(extents, cube_shape) -> CubeGrid:
    """The grid of `cube_shape` cubes that covers a volume of `extents`."""
    if len(cube_shape) != 3 or not all(_is_count(c) and c > 0 for c in cube_shape):
        raise ValueError(f"cube_shape must be 3 positive integer extents (z, y, x), "
                         f"got {cube_shape!r}")
    if any(c % 16 != 0 for c in cube_shape):
        raise ValueError(f"cube shape {cube_shape} must be divisible by 16 per axis")
    padded = _padded_extents(extents, cube_shape)
    origins = tuple(product(*(range(0, p, c) for p, c in zip(padded, cube_shape))))
    return CubeGrid(tuple(extents), padded, tuple(cube_shape), origins)


def partition(volume: np.ndarray, cube_shape=(32, 128, 128)):
    """Tile a volume; returns (CubeGrid, list of (origin, cube)), where an
    interior cube is a view of `volume` and an edge cube a zero-padded copy."""
    grid = _grid(volume.shape, cube_shape)
    return grid, [(o, _cut(volume, o, grid.cube_shape)) for o in grid.origins]


def _write(out: np.ndarray, grid: CubeGrid, pending: set, origin, cube: np.ndarray) -> None:
    """Write the grid cube at `origin` into `out` (the volume's extents),
    cropped to them; `origin` leaves `pending`, the origins not written yet."""
    origin = tuple(origin)
    if origin not in pending:
        what = "duplicate cube" if origin in grid.origins else "no grid cube"
        raise ShapeMismatchError(f"{what} for origin {origin}")
    if cube.shape != grid.cube_shape:
        raise ShapeMismatchError(
            f"cube at {origin} has shape {cube.shape}, not the grid cube {grid.cube_shape}")
    pending.remove(origin)
    region = out[tuple(slice(o, o + c) for o, c in zip(origin, grid.cube_shape))]
    np.copyto(region, cube[tuple(slice(0, e) for e in region.shape)], casting="safe")


def assemble(grid: CubeGrid, cubes) -> np.ndarray:
    """Inverse of partition: place cubes by origin, crop the padding.

    `cubes` is an iterable of (origin, array) in any order, or a mapping
    origin -> array; exactly one cube per grid origin is required.  The
    output takes the first cube's dtype."""
    out, pending = None, set(grid.origins)
    for origin, cube in cubes.items() if isinstance(cubes, dict) else cubes:
        cube = np.asarray(cube)
        if out is None:
            out = np.zeros(grid.original_extents, dtype=cube.dtype)
        _write(out, grid, pending, origin, cube)
    if pending or out is None:  # a grid without cubes has no output dtype
        raise ShapeMismatchError(f"cube set does not match grid (missing {sorted(pending)[:3]})")
    return out


def _at_origin(exc: Exception, origin) -> Exception:
    """`exc` re-made as its own type with the cube origin leading its
    message; or, for a type not built from a message alone (numpy's
    `_ArrayMemoryError(shape, dtype)`), `exc` itself, given the origin as a
    note where Python has notes (3.11+)."""
    try:
        return type(exc)(f"cube at origin {origin}: {exc}")
    except TypeError:
        if hasattr(exc, "add_note"):
            exc.add_note(f"cube at origin {origin}")
        return exc


def segment_volume(volume: np.ndarray, network, cube_shape=(32, 128, 128),
                   workers: int = 1, retain_logits: bool = False) -> SegmentationResult:
    """Per-cube argmax segmentation of an arbitrary-extent volume.

    The volume must be 3D and finite (`as_volume`).  Argmax ties resolve to
    the lower class index (background).  Cubes run on `workers` (>= 1) pool
    threads, never on the caller's tape, and are independent, so any worker
    count produces bitwise-identical output; each worker cuts its cube and
    writes its uint8 labels (up to 256 classes) into its own window of the
    one output, so no lock is needed and the memory above the volume is the
    labels and a cube forward per worker, plus the logits with
    `retain_logits`.  Cube forwards run with numpy's OpenBLAS on one thread;
    the caller's thread count is restored on return, also when a cube raises."""
    if not (_is_count(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    volume = as_volume(volume)
    grid = _grid(volume.shape, cube_shape)
    labels = np.zeros(volume.shape, dtype=np.uint8)
    pending = set(grid.origins)

    def run(origin):
        cube = _cut(volume, origin, grid.cube_shape).astype(np.float32, copy=False)
        try:
            logits = network.forward(cube[None, None], training=False).data[0]
        except Exception as exc:
            located = _at_origin(exc, origin)
            if located is exc:
                raise
            raise located from exc
        _write(labels, grid, pending, origin, first_max(logits))
        return logits if retain_logits else None

    with one_blas_thread() as blas_threads, ThreadPoolExecutor(max_workers=workers) as pool:
        logits = list(pool.map(run, grid.origins))

    prov = {"arch": network.spec.dual_structure, "wavelet": network.spec.wavelet or "none",
            "cube_shape": grid.cube_shape, "workers": workers, "blas_threads": blas_threads}
    return SegmentationResult(labels, prov,
                              dict(zip(grid.origins, logits)) if retain_logits else None)


def iou_counts(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Voxel counts of two binary volumes as a (2, 2) int64 array: row c
    holds class c's (intersection, union)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    check_same_shape(pred, truth, "pred and truth")
    counts = np.empty((2, 2), dtype=np.int64)
    for cls in (0, 1):
        p = pred == cls
        t = truth == cls
        counts[cls] = np.count_nonzero(p & t), np.count_nonzero(p | t)
    return counts


def iou_from_counts(counts: np.ndarray) -> tuple[float, float, float]:
    """`iou`'s three scores from `iou_counts` rows, summed over any cubes."""
    scores = [1.0 if union == 0 else inter / union for inter, union in counts]
    return float(scores[0]), float(scores[1]), float((scores[0] + scores[1]) / 2.0)


def iou(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float, float]:
    """(background IoU, foreground IoU, mean IoU) of two binary volumes.

    A class absent from both volumes scores 1.0; the mean is the unweighted
    two-class average.
    """
    return iou_from_counts(iou_counts(pred, truth))
