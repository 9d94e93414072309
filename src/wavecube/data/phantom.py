"""Synthetic tubular phantoms: desk-scale stand-ins for real imagery.

Each phantom is a set of smooth random polyline tubes rasterized to the
label volume; the image composites foreground/background intensities and
then corrupts the image only (Gaussian noise, salt/pepper impulses,
optional gaps that break fibers in the image while labels stay intact).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rasterize import _mark_capsule, rasterize
from .swc import SwcMorphology, SwcNode


@dataclass(frozen=True)
class PhantomConfig:
    extents: tuple = (16, 64, 64)
    tube_count: int = 3
    radius_range: tuple = (1.2, 2.5)
    foreground: float = 1.0
    background: float = 0.0
    noise_sigma: float = 0.0
    impulse_fraction: float = 0.0
    gap_count: int = 0
    gap_length: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.radius_range[0] <= 0 or self.radius_range[1] < self.radius_range[0]:
            raise ValueError(f"bad radius_range {self.radius_range}")
        if self.noise_sigma < 0 or self.impulse_fraction < 0:
            raise ValueError("noise parameters must be >= 0")
        if self.tube_count < 0 or self.gap_count < 0:
            raise ValueError("tube_count and gap_count must be >= 0")


_STEP = 1.5     # voxels between polyline nodes
_WANDER = 0.15  # direction perturbation per step


def _random_tube(rng: np.random.Generator, extents, radius: float, node_id0: int):
    """Smooth random polyline: seeded start, perturbed direction walk."""
    ext = np.asarray(extents, dtype=np.float64)
    pos = rng.uniform(0.1, 0.9, size=3) * ext
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    n_steps = int(np.max(ext) * 1.2 / _STEP)
    nodes = []
    nid = node_id0
    parent = -1
    for _ in range(max(n_steps, 2)):
        # SWC stores x, y, z; pos is (z, y, x)
        nodes.append(SwcNode(nid, 2, float(pos[2]), float(pos[1]), float(pos[0]),
                             float(radius), parent))
        parent = nid
        nid += 1
        direction += _WANDER * rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        pos = pos + _STEP * direction
        if np.any(pos < -2 * radius) or np.any(pos > ext + 2 * radius):
            break
    return nodes


def phantom_morphology(cfg: PhantomConfig, rng: np.random.Generator) -> SwcMorphology:
    nodes = []
    for _ in range(cfg.tube_count):
        radius = float(rng.uniform(*cfg.radius_range))
        nodes.extend(_random_tube(rng, cfg.extents, radius, len(nodes) + 1))
    return SwcMorphology(nodes)


def generate_phantom(cfg: PhantomConfig) -> tuple[np.ndarray, np.ndarray]:
    """Return (image float32, labels uint8); bitwise deterministic per seed.

    The rng draw order is geometry, gaps, Gaussian noise, impulses, so the
    label volume is invariant to the noise parameters."""
    rng = np.random.default_rng(cfg.seed)
    morph = phantom_morphology(cfg, rng)
    labels = rasterize(morph, cfg.extents)
    image = np.where(labels > 0, np.float32(cfg.foreground),
                     np.float32(cfg.background)).astype(np.float32)

    if cfg.gap_count and len(morph) > 0:
        for _ in range(cfg.gap_count):
            start = int(rng.integers(0, len(morph.nodes)))
            mask = np.zeros(cfg.extents, dtype=bool)
            run = morph.nodes[start : start + cfg.gap_length]
            for a, b in zip(run[:-1], run[1:]):
                if b.parent_id != a.id:
                    break
                _mark_capsule(mask, (a.z, a.y, a.x), a.radius + 0.5,
                              (b.z, b.y, b.x), b.radius + 0.5)
            image[mask] = cfg.background

    if cfg.noise_sigma > 0:
        image += rng.normal(0.0, cfg.noise_sigma, size=image.shape).astype(np.float32)
    if cfg.impulse_fraction > 0:
        k = int(round(cfg.impulse_fraction * image.size))
        if k:
            flat = rng.choice(image.size, size=k, replace=False)
            salt = rng.random(k) < 0.5
            vals = np.where(salt, np.float32(cfg.foreground), np.float32(cfg.background))
            image.reshape(-1)[flat] = vals
    return image, labels


def generate_phantom_dataset(count: int, cfg: PhantomConfig, seed: int | None = None):
    """A list of (image, labels) cubes; cube i uses seed base_seed + i."""
    base = cfg.seed if seed is None else seed
    return [generate_phantom(replace(cfg, seed=base + i)) for i in range(count)]
