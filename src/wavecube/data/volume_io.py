"""NVOL volume container: dependency-free, bit-exact.

Layout: magic "NVOL", version byte (1), dtype code (0 = float32, 1 = uint8),
three little-endian uint32 extents (d, m, n), then the raw little-endian
payload in z-y-x row-major order.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import BadMagicError, TruncatedPayloadError

_MAGIC = b"NVOL"
_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("|u1")}
_HEADER = struct.Struct("<4sBBIII")


def write_volume(path, volume: np.ndarray) -> None:
    """Write a 3D array as NVOL; float inputs store as f32, uint8 as u8."""
    arr = np.asarray(volume)
    if arr.ndim != 3:
        raise ValueError(f"volume must be 3D, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        out = np.ascontiguousarray(arr)
        code = 1
    else:
        out = np.ascontiguousarray(arr, dtype="<f4")
        code = 0
    d, m, n = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, code, d, m, n))
        fh.write(out.tobytes())


def read_volume(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size or data[:4] != _MAGIC:
        raise BadMagicError(f"{path}: not an NVOL volume")
    magic, version, code, d, m, n = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise BadMagicError(f"{path}: unsupported NVOL version {version}")
    if code not in _DTYPE_CODES:
        raise BadMagicError(f"{path}: unknown dtype code {code}")
    dtype = _DTYPE_CODES[code]
    expected = d * m * n * dtype.itemsize
    payload = data[_HEADER.size:]
    if len(payload) != expected:
        raise TruncatedPayloadError(
            f"{path}: header declares {expected} payload bytes, found {len(payload)}")
    arr = np.frombuffer(payload, dtype=dtype).reshape(d, m, n)
    return arr.copy()
