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


def pad_to_multiple(volume: np.ndarray, cube_shape) -> np.ndarray:
    """Zero-pad at the high end so every extent is a cube-shape multiple."""
    if any(cube <= 0 for cube in cube_shape):
        raise ValueError(f"cube extents must be positive, got {tuple(cube_shape)}")
    pads = []
    for ext, cube in zip(volume.shape, cube_shape):
        target = ((ext + cube - 1) // cube) * cube
        pads.append((0, target - ext))
    if all(p == (0, 0) for p in pads):
        return volume
    return np.pad(volume, pads)


def cut_cubes(image: np.ndarray, labels: np.ndarray, cube_shape=DEFAULT_CUBE_SHAPE,
              count: int = 1, seed: int = 0,
              min_foreground: float = DEFAULT_MIN_FOREGROUND) -> list[CubeRecord]:
    """Cut `count` seeded random cubes; labels are cut at identical origins.

    Cubes whose foreground fraction is below `min_foreground` are rejected
    and redrawn, up to `count * _RETRY_FACTOR` attempts; on exhaustion the
    achieved (shorter) list is returned and the shortfall is logged.
    """
    check_same_shape(image, labels, "image and labels")
    image = pad_to_multiple(image, cube_shape)
    labels = pad_to_multiple(labels, cube_shape)
    cd, cm, cn = cube_shape
    d, m, n = image.shape
    if cd > d or cm > m or cn > n:
        raise ValueError(f"cube shape {cube_shape} exceeds padded volume {image.shape}")

    rng = np.random.default_rng(seed)
    cube_voxels = cd * cm * cn
    records: list[CubeRecord] = []
    budget = count * _RETRY_FACTOR
    attempts = 0
    while len(records) < count and attempts < budget:
        attempts += 1
        oz = int(rng.integers(0, d - cd + 1))
        oy = int(rng.integers(0, m - cm + 1))
        ox = int(rng.integers(0, n - cn + 1))
        lbl = labels[oz:oz + cd, oy:oy + cm, ox:ox + cn]
        if np.count_nonzero(lbl) / cube_voxels < min_foreground:
            continue
        img = image[oz:oz + cd, oy:oy + cm, ox:ox + cn]
        records.append(CubeRecord(img.copy(), lbl.copy(), (oz, oy, ox)))
    if len(records) < count:
        log.warning("cut_cubes: achieved %d of %d cubes after %d attempts "
                    "(min_foreground=%g)", len(records), count, attempts, min_foreground)
    return records
