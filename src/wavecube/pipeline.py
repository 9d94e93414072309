"""Whole-volume inference: partition into cubes, segment, assemble, score.

Tiling is deterministic: zero-pad the volume at the high end to cube-shape
multiples, emit non-overlapping cubes in z-major origin order; assembly is
origin-keyed, so cube processing order (or worker count) never changes the
output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .data.cubes import pad_to_multiple
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


def partition(volume: np.ndarray, cube_shape=(32, 128, 128)):
    """Tile a volume; returns (CubeGrid, list of (origin, cube))."""
    if len(cube_shape) != 3 or not all(_is_count(c) and c > 0 for c in cube_shape):
        raise ValueError(f"cube_shape must be 3 positive integer extents (z, y, x), "
                         f"got {cube_shape!r}")
    if any(c % 16 != 0 for c in cube_shape):
        raise ValueError(f"cube shape {cube_shape} must be divisible by 16 per axis")
    padded = pad_to_multiple(volume, cube_shape)
    cd, cm, cn = cube_shape
    origins = tuple(
        (z, y, x)
        for z in range(0, padded.shape[0], cd)
        for y in range(0, padded.shape[1], cm)
        for x in range(0, padded.shape[2], cn)
    )
    grid = CubeGrid(volume.shape, padded.shape, tuple(cube_shape), origins)
    cubes = [
        (o, padded[o[0]:o[0] + cd, o[1]:o[1] + cm, o[2]:o[2] + cn].copy())
        for o in origins
    ]
    return grid, cubes


def assemble(grid: CubeGrid, cubes) -> np.ndarray:
    """Inverse of partition: place cubes by origin, crop the padding.

    `cubes` is an iterable of (origin, array) in any order, or a mapping
    origin -> array; exactly one cube per grid origin is required.
    """
    items = cubes.items() if isinstance(cubes, dict) else list(cubes)
    by_origin = {}
    for origin, cube in items:
        origin = tuple(origin)
        if origin in by_origin:
            raise ShapeMismatchError(f"duplicate cube for origin {origin}")
        by_origin[origin] = np.asarray(cube)
    known = set(grid.origins)
    missing = [o for o in grid.origins if o not in by_origin]
    extra = [o for o in by_origin if o not in known]
    if missing or extra:
        raise ShapeMismatchError(
            f"cube set does not match grid (missing {missing[:3]}, extra {extra[:3]})")

    sample = by_origin[grid.origins[0]]
    if sample.shape != grid.cube_shape:
        raise ShapeMismatchError(
            f"cube shape {sample.shape} does not match grid cube {grid.cube_shape}")
    out = np.zeros(grid.padded_extents, dtype=sample.dtype)
    cd, cm, cn = grid.cube_shape
    for o in grid.origins:
        cube = by_origin[o]
        if cube.shape != grid.cube_shape:
            raise ShapeMismatchError(f"cube at {o} has shape {cube.shape}")
        out[o[0]:o[0] + cd, o[1]:o[1] + cm, o[2]:o[2] + cn] = cube
    d, m, n = grid.original_extents
    return out[:d, :m, :n]


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
    count produces bitwise-identical output; each worker also takes its
    cube's labels, and keeps the logits only with `retain_logits`.  Cube
    forwards run with numpy's OpenBLAS on one thread; the caller's thread
    count is restored on return, also when a cube raises.
    """
    if not (_is_count(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    grid, cubes = partition(as_volume(volume).astype(np.float32, copy=False), cube_shape)

    def run(item):
        origin, cube = item
        try:
            logits = network.forward(cube[None, None], training=False).data[0]
        except Exception as exc:
            located = _at_origin(exc, origin)
            if located is exc:
                raise
            raise located from exc
        return origin, first_max(logits), logits if retain_logits else None

    with one_blas_thread() as blas_threads, ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run, cubes))

    labels = assemble(grid, [(o, lab) for o, lab, _ in results])
    prov = {
        "arch": network.spec.dual_structure,
        "wavelet": network.spec.wavelet or "none",
        "cube_shape": tuple(cube_shape),
        "workers": workers,
        "blas_threads": blas_threads,
    }
    logits_map = {o: lg for o, _, lg in results} if retain_logits else None
    return SegmentationResult(labels, prov, logits_map)


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
