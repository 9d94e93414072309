"""Input validation helpers used across modules.

Volumes are plain numpy arrays in z-y-x order (depth, height, width);
labels are binary arrays of the same shape.  These helpers normalize
dtypes and fail early with the package's own exception types.
"""

from __future__ import annotations

import numpy as np

from .errors import OddExtentError, ShapeMismatchError, TooSmallError

VOLUME_DTYPES = (np.float32, np.float64)


def as_volume(x) -> np.ndarray:
    """Coerce `x` to a 3D float volume, checking finiteness: float32 and
    float64 stay as they are, anything else becomes float32."""
    arr = np.asarray(x)
    if arr.ndim != 3:
        raise ShapeMismatchError(f"volume must be 3D (z, y, x), got shape {arr.shape}")
    if arr.dtype not in VOLUME_DTYPES:
        arr = np.ascontiguousarray(arr, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise ValueError("volume contains non-finite values")
    return arr


def check_even_extents(shape: tuple[int, ...]) -> None:
    """Raise unless every extent is even and at least 2."""
    for ext in shape:
        if ext < 2:
            raise TooSmallError(f"extent {ext} < 2 in shape {shape}")
        if ext % 2 != 0:
            raise OddExtentError(f"odd extent {ext} in shape {shape}")


def check_threshold(value: float, name: str = "threshold") -> None:
    """Raise ValueError unless a shrinkage threshold is finite and >= 0: a
    negative one keeps zeros that its gradient drops, NaN or inf zeroes all."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def check_scale(scale) -> None:
    """Raise ValueError unless `scale` is three finite positive voxel sizes."""
    if len(scale) != 3 or not all(0 < s < np.inf for s in scale):
        raise ValueError(f"scale must be three finite positive values, got {scale}")


def check_same_shape(a: np.ndarray, b: np.ndarray, what: str = "arrays") -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{what} differ in shape: {a.shape} vs {b.shape}")
