"""Flat checkpoint container: text manifest + raw little-endian blobs.

Layout:
    WCKP1\n
    #meta key=value\n            (zero or more)
    <name> <dtype> <d0,d1,...> <nbytes>\n   (one per entry)
    ---\n
    concatenated blobs in manifest order

Round trips are bit-exact: arrays are written as little-endian bytes and
read back with the same dtype and shape.  A save writes `<path>.part`,
then renames it onto `path`, so a failed or killed save leaves `path` whole.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..errors import BadMagicError, TruncatedPayloadError

_MAGIC = b"WCKP1\n"

_DTYPES = {"f4": "<f4", "f8": "<f8", "i8": "<i8", "u1": "|u1"}


def _dtype_code(dtype: np.dtype) -> str:
    kind = np.dtype(dtype)
    for code, spec in _DTYPES.items():
        if kind == np.dtype(spec):
            return code
    raise ValueError(f"unsupported checkpoint dtype {dtype}")


def save_state(path, state: dict[str, np.ndarray], meta: dict[str, str] | None = None) -> None:
    entries = []
    blobs = []
    for name, arr in state.items():
        arr = np.asarray(arr)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = np.ascontiguousarray(le).tobytes()
        shape = ",".join(str(s) for s in arr.shape) if arr.ndim else "scalar"
        entries.append(f"{name} {_dtype_code(arr.dtype)} {shape} {len(raw)}\n")
        blobs.append(raw)
    part = Path(f"{path}.part")
    try:
        with open(part, "wb") as fh:
            fh.write(_MAGIC)
            for key, val in (meta or {}).items():
                fh.write(f"#meta {key}={val}\n".encode())
            fh.writelines(e.encode() for e in entries)
            fh.write(b"---\n")
            fh.writelines(blobs)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def load_state(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    data = Path(path).read_bytes()
    if not data.startswith(_MAGIC):
        raise BadMagicError(f"{path}: not a wavecube checkpoint")
    head, sep, payload = data[len(_MAGIC):].partition(b"---\n")
    if not sep:
        raise TruncatedPayloadError(f"{path}: missing manifest terminator")
    meta: dict[str, str] = {}
    state: dict[str, np.ndarray] = {}
    offset = 0
    for line in head.decode().splitlines():
        if line.startswith("#meta "):
            key, _, val = line[6:].partition("=")
            meta[key] = val
            continue
        name, code, shape_s, nbytes_s = line.rsplit(" ", 3)
        nbytes = int(nbytes_s)
        raw = payload[offset : offset + nbytes]
        if len(raw) != nbytes:
            raise TruncatedPayloadError(f"{path}: blob for '{name}' truncated")
        offset += nbytes
        if code not in _DTYPES:
            raise BadMagicError(f"{path}: unknown dtype code {code}")
        shape = () if shape_s == "scalar" else tuple(int(s) for s in shape_s.split(","))
        arr = np.frombuffer(raw, dtype=np.dtype(_DTYPES[code])).reshape(shape)
        state[name] = arr.copy()
    if offset != len(payload):
        raise TruncatedPayloadError(f"{path}: {len(payload) - offset} trailing bytes")
    return state, meta
