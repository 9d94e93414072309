"""numpy's OpenBLAS thread count, and the one cap that holds it at one thread.

OpenBLAS sums a gemm in another order on two threads than on one, so a
kernel gradient with 8 or more output channels changes bits with the
caller's thread count.  Everything that must not depend on it (`backward`,
`fit`, `segment_volume`) runs inside `one_blas_thread`.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np


@cache
def openblas():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None; looked
    up once per process."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


# OpenBLAS keeps one thread count for the whole process (its
# `set_num_threads_local` too, in numpy's scipy-openblas build), so
# concurrent and nested `one_blas_thread` bodies share one cap: the first to
# enter saves the caller's count and the last to leave restores it.
_cap_lock = threading.Lock()
_cap = {"users": 0, "saved": None}


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread; yields the count in
    force (1), or "unknown" and changes nothing when no OpenBLAS is found.
    The caller's count is restored on exit, also when the body raises.

    The gemms here are small ((Co <= 32) x (Ci*9) x block), so a second
    BLAS thread gains nothing and, beside a second worker, oversubscribes
    the cores."""
    fns = openblas()
    if fns is None:
        yield "unknown"
        return
    get, set_ = fns
    with _cap_lock:
        if _cap["users"] == 0:
            _cap["saved"] = get()
            set_(1)
        _cap["users"] += 1
    try:
        yield 1
    finally:
        with _cap_lock:
            _cap["users"] -= 1
            if _cap["users"] == 0:
                set_(_cap["saved"])
