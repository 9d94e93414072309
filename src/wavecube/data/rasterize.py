"""Rasterize SWC morphologies into binary label volumes.

A voxel is labeled 1 iff its center lies within distance r(t) of some point
p(t) on a parent-child segment, where p(t) and r(t) linearly interpolate
the endpoints (a tapered-capsule sweep).  Roots without children become
spheres.  Geometry outside the volume is clipped.

Coordinates: SWC x/y/z are voxel units with (0, 0, 0) at the center of
voxel [0, 0, 0]; the label volume is indexed [z, y, x].  An optional
per-axis scale divides physical coordinates into voxel units (radii are
divided by the mean scale).
"""

from __future__ import annotations

import numpy as np

from ..validation import check_scale
from .swc import SwcMorphology, _geometry_problem


def _mark_capsule(vol: np.ndarray, p0, r0: float, p1, r1: float) -> None:
    """Set voxels covered by the swept sphere from (p0, r0) to (p1, r1).

    Membership test: min over t in [0,1] of |v - p(t)|^2 - r(t)^2 <= 0,
    a quadratic in t solved in closed form per voxel."""
    shape = vol.shape
    rmax = max(r0, r1)
    lo = [max(0, int(np.floor(min(p0[a], p1[a]) - rmax))) for a in range(3)]
    hi = [min(shape[a] - 1, int(np.ceil(max(p0[a], p1[a]) + rmax))) for a in range(3)]
    if any(lo[a] > hi[a] for a in range(3)):
        return
    zz, yy, xx = np.ogrid[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1]
    wz = zz - p0[0]
    wy = yy - p0[1]
    wx = xx - p0[2]
    d = np.asarray(p1) - np.asarray(p0)
    dr = r1 - r0
    a = float(d @ d) - dr * dr
    b = wz * d[0] + wy * d[1] + wx * d[2] + r0 * dr
    c = wz * wz + wy * wy + wx * wx - r0 * r0
    if a > 0:
        t = np.clip(b / a, 0.0, 1.0)
        h = a * t * t - 2.0 * b * t + c
    else:
        # degenerate (radius change >= length): concave in t, check endpoints
        h = np.minimum(c, a - 2.0 * b + c)
    vol[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] |= h <= 0.0


def _mark_sphere(vol: np.ndarray, p, r: float) -> None:
    _mark_capsule(vol, p, r, p, r)


def rasterize(m: SwcMorphology, extents: tuple[int, int, int],
              scale: tuple[float, float, float] | None = None) -> np.ndarray:
    """Render a morphology to a binary uint8 volume of the given (d, m, n);
    `scale`, if given, holds the voxel sizes (sz, sy, sx), see `check_scale`.
    A node that `parse_swc` would reject raises `ValueError` naming its id."""
    d, mm, n = extents
    if d <= 0 or mm <= 0 or n <= 0:
        raise ValueError(f"extents must be positive, got {extents}")
    for node in m.nodes:
        if problem := _geometry_problem(node):
            raise ValueError(f"node {node.id}: {problem}")
    if scale is not None:
        check_scale(scale)
    sz, sy, sx = (1.0, 1.0, 1.0) if scale is None else scale
    mean_scale = (sz + sy + sx) / 3.0
    to_voxel = lambda node: (node.z / sz, node.y / sy, node.x / sx)
    r_of = lambda node: node.radius / mean_scale
    out = np.zeros((d, mm, n), dtype=bool)

    children = m.children_count()
    for parent, child in m.segments():
        _mark_capsule(out, to_voxel(parent), r_of(parent), to_voxel(child), r_of(child))
    for root in m.roots():
        if children[root.id] == 0:
            _mark_sphere(out, to_voxel(root), r_of(root))
    return out.astype(np.uint8)
