"""Random cube cutting from image/label volume pairs."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..validation import check_same_shape

log = logging.getLogger(__name__)

DEFAULT_CUBE_SHAPE = (32, 128, 128)
DEFAULT_MIN_FOREGROUND = 0.001
_RETRY_FACTOR = 100


@dataclass
class CubeRecord:
    image: np.ndarray
    label: np.ndarray
    origin: tuple[int, int, int]


def _padded_extents(shape, cube_shape) -> tuple:
    """`shape` with each extent rounded up to a multiple of the cube's."""
    if len(cube_shape) != len(shape):
        raise ValueError(f"cube shape {tuple(cube_shape)} does not fit a {len(shape)}D volume")
    if any(cube <= 0 for cube in cube_shape):
        raise ValueError(f"cube extents must be positive, got {tuple(cube_shape)}")
    return tuple(-(-ext // cube) * cube for ext, cube in zip(shape, cube_shape))


def _cut(volume: np.ndarray, origin, cube_shape) -> np.ndarray:
    """The cube of `volume` at `origin`: a view where the cube lies inside
    the volume, else a copy zero-padded at the high edge."""
    cube = volume[tuple(slice(o, o + c) for o, c in zip(origin, cube_shape))]
    if cube.shape == tuple(cube_shape):
        return cube
    return np.pad(cube, [(0, c - e) for c, e in zip(cube_shape, cube.shape)])


def cut_cubes(image: np.ndarray, labels: np.ndarray, cube_shape=DEFAULT_CUBE_SHAPE,
              count: int = 1, seed: int = 0,
              min_foreground: float = DEFAULT_MIN_FOREGROUND) -> list[CubeRecord]:
    """Cut `count` seeded random cubes; labels are cut at identical origins.

    Cubes whose foreground fraction is below `min_foreground` are rejected
    and redrawn, up to `count * _RETRY_FACTOR` attempts; on exhaustion the
    achieved (shorter) list is returned and the shortfall is logged.
    """
    check_same_shape(image, labels, "image and labels")
    padded = _padded_extents(image.shape, cube_shape)
    if any(c > p for c, p in zip(cube_shape, padded)):
        raise ValueError(f"cube shape {cube_shape} exceeds padded volume {padded}")

    rng = np.random.default_rng(seed)
    records: list[CubeRecord] = []
    budget = count * _RETRY_FACTOR
    attempts = 0
    while len(records) < count and attempts < budget:
        attempts += 1
        origin = tuple(int(rng.integers(0, p - c + 1)) for p, c in zip(padded, cube_shape))
        lbl = _cut(labels, origin, cube_shape)
        if np.count_nonzero(lbl) / lbl.size < min_foreground:
            continue
        records.append(CubeRecord(_cut(image, origin, cube_shape).copy(), lbl.copy(), origin))
    if len(records) < count:
        log.warning("cut_cubes: achieved %d of %d cubes after %d attempts "
                    "(min_foreground=%g)", len(records), count, attempts, min_foreground)
    return records
