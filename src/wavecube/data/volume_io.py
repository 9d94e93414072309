"""NVOL volume container: dependency-free, bit-exact.

Layout: magic "NVOL", version byte (1), dtype code (0 = float32, 1 = uint8),
three little-endian uint32 extents (d, m, n), then the raw little-endian
payload in z-y-x row-major order.
"""

from __future__ import annotations

import os
import struct

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
    code = 1 if arr.dtype == np.uint8 else 0
    d, m, n = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, code, d, m, n))
        fh.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]))


def read_volume(path) -> np.ndarray:
    """An NVOL volume, its header checked against the file size first."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:4] != _MAGIC:
            raise BadMagicError(f"{path}: not an NVOL volume")
        magic, version, code, d, m, n = _HEADER.unpack(header)
        if version != _VERSION:
            raise BadMagicError(f"{path}: unsupported NVOL version {version}")
        if code not in _DTYPE_CODES:
            raise BadMagicError(f"{path}: unknown dtype code {code}")
        expected = d * m * n * _DTYPE_CODES[code].itemsize
        found = os.fstat(fh.fileno()).st_size - _HEADER.size
        if found != expected:
            raise TruncatedPayloadError(
                f"{path}: header declares {expected} payload bytes, found {found}")
        return np.fromfile(fh, _DTYPE_CODES[code], d * m * n).reshape(d, m, n)
