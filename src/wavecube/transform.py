"""Single-level separable 3D DWT/IDWT, naive resamplers, hard shrinkage.

Convention (fixed package-wide): analysis is phase-0 periodic correlation

    a[i] = sum_j f[j] * x[(2*i + j) mod N]

applied along z, then y, then x; synthesis is periodic convolution of the
zero-upsampled subbands

    x[n] = sum_j f~[j] * up2(a)[(n - j) mod N].

The built-in banks are aligned so synthesis exactly inverts analysis on any
even-length signal.  The adjoint of analysis is synthesis with the *same*
filters (and vice versa), which the network layers rely on for backprop.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .filters import SUBBAND_TAGS, FilterBank
from .validation import as_volume, check_even_extents

_TAG_INDEX = {t: i for i, t in enumerate(SUBBAND_TAGS)}


@dataclass(frozen=True)
class ShrinkConfig:
    """Hard-shrinkage threshold; coefficients with |x| <= threshold are zeroed."""

    threshold: float = 0.25

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")


@dataclass
class SubbandSet:
    """The eight half-resolution components of one 3D DWT level.

    `coeffs` is one (8, z, y, x) array ordered like SUBBAND_TAGS (lll..hhh);
    a tag -> array mapping is stacked into that layout on construction.
    """

    coeffs: np.ndarray
    wavelet: str

    def __post_init__(self):
        if isinstance(self.coeffs, Mapping):
            missing = [t for t in SUBBAND_TAGS if t not in self.coeffs]
            if missing:
                raise ShapeMismatchError(f"subband set missing tags {missing}")
            shapes = {np.shape(self.coeffs[t]) for t in SUBBAND_TAGS}
            if len(shapes) != 1:
                raise ShapeMismatchError(f"subbands differ in shape: {sorted(shapes)}")
            self.coeffs = np.stack([self.coeffs[t] for t in SUBBAND_TAGS])
        if self.coeffs.ndim != 4 or self.coeffs.shape[0] != len(SUBBAND_TAGS):
            raise ShapeMismatchError(
                f"subband set must be one (8, z, y, x) array, got {self.coeffs.shape}")

    def __getitem__(self, tag: str) -> np.ndarray:
        return self.coeffs[_TAG_INDEX[tag]]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.coeffs.shape[1:]


# ---------------------------------------------------------------------------
# 1D primitives: polyphase form along one (negative) axis
# ---------------------------------------------------------------------------

def _phase(axis: int, start: int) -> tuple:
    """Index selecting every second entry along `axis`, from `start`."""
    return (Ellipsis, slice(start, None, 2)) + (slice(None),) * (-1 - axis)


def _roll(a: np.ndarray, k: int, axis: int) -> np.ndarray:
    """np.roll without its copy for k = 0 (the only shift haar needs)."""
    return np.roll(a, k, axis) if k else a


def _accumulate(out: np.ndarray, terms) -> None:
    """out += sum of coefficient * array, skipping zero coefficients."""
    for c, a in terms:
        if c:
            out += c * a


def _analyze_1d(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, axis: int):
    """Periodic correlate-and-downsample along `axis`:
    a[i] = sum_k f[2k] * x[2(i+k)] + f[2k+1] * x[2(i+k)+1]."""
    even, odd = x[_phase(axis, 0)], x[_phase(axis, 1)]
    lo_sub = np.zeros(even.shape, dtype=x.dtype)
    hi_sub = np.zeros(even.shape, dtype=x.dtype)
    for k in range(len(lo) // 2):
        e, o = _roll(even, -k, axis), _roll(odd, -k, axis)
        for sub, f in ((lo_sub, lo), (hi_sub, hi)):
            _accumulate(sub, ((f[2 * k], e), (f[2 * k + 1], o)))
    return lo_sub, hi_sub


def _synthesize_1d(lo_sub: np.ndarray, hi_sub: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray, axis: int) -> np.ndarray:
    """Zero-upsample and periodically convolve along `axis`:
    x[2i+p] = sum_k lo[2k+p] * a[i-k] + hi[2k+p] * d[i-k], p in {0, 1}."""
    shape = list(lo_sub.shape)
    shape[axis] *= 2
    out = np.zeros(shape, dtype=lo_sub.dtype)
    for k in range(len(lo) // 2):
        a, d = _roll(lo_sub, k, axis), _roll(hi_sub, k, axis)
        for p in (0, 1):
            _accumulate(out[_phase(axis, p)], ((lo[2 * k + p], a), (hi[2 * k + p], d)))
    return out


# ---------------------------------------------------------------------------
# separable 3D transform over the last three axes (leading axes pass through)
# ---------------------------------------------------------------------------

def _forward3(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One analysis level along z, y, x: (8,) + x.shape[:-3] + halved extents,
    ordered like SUBBAND_TAGS (first tag letter z, last x)."""
    lo = lo.astype(x.dtype, copy=False)
    hi = hi.astype(x.dtype, copy=False)
    s = x[None]
    for axis in (-3, -2, -1):
        a, d = _analyze_1d(s, lo, hi, axis)
        s = np.stack([a, d], axis=1).reshape((-1,) + a.shape[1:])
    return s


def _inverse3(s: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Synthesis inverse of `_forward3` with the given 1D pair."""
    lo = lo.astype(s.dtype, copy=False)
    hi = hi.astype(s.dtype, copy=False)
    for axis in (-1, -2, -3):
        pairs = s.reshape((-1, 2) + s.shape[1:])
        s = _synthesize_1d(pairs[:, 0], pairs[:, 1], lo, hi, axis)
    return s[0]


# ---------------------------------------------------------------------------
# public volume-level operations
# ---------------------------------------------------------------------------

def dwt3(x: np.ndarray, bank: FilterBank) -> SubbandSet:
    """Decompose a 3D volume into its eight half-resolution subbands.

    Extents must be even (and >= 2); periodic wrap makes any even extent
    valid regardless of filter length.
    """
    x = as_volume(x)
    check_even_extents(x.shape)
    return SubbandSet(_forward3(x, bank.lo_dec, bank.hi_dec), bank.name)


def idwt3(s: SubbandSet, bank: FilterBank) -> np.ndarray:
    """Reconstruct the volume from a subband set (exact inverse of dwt3)."""
    return _inverse3(s.coeffs, bank.lo_rec, bank.hi_rec)


def downsample2(x: np.ndarray) -> np.ndarray:
    """Keep every second voxel: out[i,j,k] = x[2i,2j,2k], extents floor-halved."""
    d, m, n = x.shape[-3:]
    return np.ascontiguousarray(
        x[..., 0 : 2 * (d // 2) : 2, 0 : 2 * (m // 2) : 2, 0 : 2 * (n // 2) : 2])


def upsample2(x: np.ndarray) -> np.ndarray:
    """Double every extent, placing x on the even lattice and zeros elsewhere."""
    d, m, n = x.shape[-3:]
    out = np.zeros(x.shape[:-3] + (2 * d, 2 * m, 2 * n), dtype=x.dtype)
    out[..., ::2, ::2, ::2] = x
    return out


def hard_shrink_array(x: np.ndarray, threshold: float) -> np.ndarray:
    """Zero every coefficient with |x| <= threshold (strict keep outside)."""
    return np.where(np.abs(x) > threshold, x, np.zeros((), dtype=x.dtype))


def hard_shrink(s: SubbandSet, cfg: ShrinkConfig = ShrinkConfig()) -> SubbandSet:
    """Apply hard shrinkage to the seven high-frequency subbands; lll passes."""
    shrunk = hard_shrink_array(s.coeffs[1:], cfg.threshold)
    return SubbandSet(np.concatenate([s.coeffs[:1], shrunk]), s.wavelet)
