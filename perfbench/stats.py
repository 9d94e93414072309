"""The benchmark's own arithmetic: order statistics and computed kernel costs.

Kept free of numpy and of the package so that it can be tested alone.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, sample count).  Percentiles are nearest-rank
    over the sorted samples, so sample k of n sits at 100*k/(n-1) and has
    n-1-k samples beyond it.  With fewer than beyond+1 samples no such
    percentile exists and value and percentile are None.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - 1 - beyond
    if k < 0:
        return None, None, n
    pct = 100.0 * k / (n - 1) if n > 1 else 100.0
    return float(xs[k]), pct, n


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def conv3_cost(x_shape, w_shape, stride: int = 1, padding: int | None = None,
               itemsize: int = 4) -> tuple[int, int]:
    """Forward FLOPs and im2col bytes of one `conv3` call.

    x_shape is (B, Ci, D, M, N), w_shape is (Co, Ci, k, k, k).  The forward
    is one (Co, Ci*k^3) @ (Ci*k^3, P) product per sample, P the output voxel
    count, and the im2col copy holds B*Ci*k^3*P elements.
    """
    b, ci = x_shape[:2]
    co, k = w_shape[0], w_shape[2]
    if padding is None:
        padding = (k - 1) // 2
    p = 1
    for e in x_shape[2:]:
        p *= (e + 2 * padding - k) // stride + 1
    rows = ci * k ** 3
    return 2 * b * co * rows * p, b * rows * p * itemsize


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
