"""Single-level separable 3D DWT/IDWT and hard shrinkage.

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

from .errors import ShapeMismatchError, WaveletMismatchError
from .filters import SUBBAND_TAGS, FilterBank
from .validation import as_volume, check_even_extents, check_threshold

_TAG_INDEX = {t: i for i, t in enumerate(SUBBAND_TAGS)}


@dataclass(frozen=True)
class ShrinkConfig:
    """Hard-shrinkage threshold; coefficients with |x| <= threshold are zeroed."""

    threshold: float = 0.25

    def __post_init__(self):
        check_threshold(self.threshold)


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
# one periodic polyphase pass per direction, along one (negative) axis, for
# any filter tuple: (lo, hi) for a full level, (lo,) for the low-pass branch
# ---------------------------------------------------------------------------

def _along(axis: int, index: slice) -> tuple:
    return (Ellipsis, index) + (slice(None),) * (-1 - axis)


def _wrap(a: np.ndarray, before: int, after: int, axis: int) -> np.ndarray:
    """`a` extended periodically along `axis`, by any number of entries."""
    if not (before or after):
        return a
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)
    return np.pad(a, widths, mode="wrap")


def _weighted_sum(dst: np.ndarray, terms, tmp: np.ndarray) -> None:
    """dst = sum, in order, of c * a over the (c, a) terms with c != 0, via `tmp`."""
    (c0, a0), *rest = [(c, a) for c, a in terms if c]
    np.multiply(a0, c0, out=dst)
    for c, a in rest:
        dst += np.multiply(a, c, out=tmp)


def _analyze(s: np.ndarray, filters, axis: int) -> np.ndarray:
    """out[m*F + f, i] = sum_j filters[f][j] * s[m, (2i + j) mod N] along `axis`:
    `s` extended once, by L - 2 entries, and tap j its stride-2 slice from j."""
    n = s.shape[axis]
    ext = _wrap(s, 0, len(filters[0]) - 2, axis)
    shape = list(s.shape)
    shape[axis] //= 2
    out = np.empty((shape[0], len(filters)) + tuple(shape[1:]), dtype=s.dtype)
    tmp = np.empty(shape, dtype=s.dtype)
    for dst, f in zip(out.swapaxes(0, 1), filters):
        _weighted_sum(dst, ((c, ext[_along(axis, slice(j, j + n, 2))])
                            for j, c in enumerate(f)), tmp)
    return out.reshape((-1,) + tuple(shape[1:]))


def _synthesize(subbands, filters, axis: int) -> np.ndarray:
    """out[m, 2i + p] = sum_k sum_f filters[f][2k + p] * subbands[m*F + f][(i - k) mod n]
    along `axis`: each array extended once, by L/2 - 1 entries in front, tap k
    a contiguous slice of it.  An absent subband (None) adds no terms; each
    group of F needs one present.  Along z a phase is whole planes and is
    summed in place; along y and x it is summed in one buffer and then
    placed, which keeps the long filters' sums contiguous."""
    taps, nf = len(filters[0]) // 2, len(filters)
    ref = next(a for a in subbands if a is not None)
    shape = list(ref.shape)
    n = shape[axis]
    shape[axis] *= 2
    out = np.empty((len(subbands) // nf,) + tuple(shape), dtype=ref.dtype)
    tmp = np.empty_like(ref)
    acc = np.empty_like(ref) if axis != -3 else None
    shifts = [_along(axis, slice(taps - 1 - k, n + taps - 1 - k)) for k in range(taps)]
    for m, dst in enumerate(out):
        group = [a if a is None else _wrap(a, taps - 1, 0, axis)
                 for a in subbands[m * nf:(m + 1) * nf]]
        for p in (0, 1):
            phase = dst[_along(axis, slice(p, None, 2))]
            _weighted_sum(phase if acc is None else acc,
                          ((f[2 * k + p], a[shift]) for k, shift in enumerate(shifts)
                           for f, a in zip(filters, group) if a is not None), tmp)
            if acc is not None:
                phase[...] = acc
    return out


def _forward3(x: np.ndarray, filters) -> np.ndarray:
    """`_analyze` along z, y, x: (F**3,) + x.shape[:-3] + halved extents, z
    index major, so (lo, hi) gives SUBBAND_TAGS order (first letter z)."""
    filters = [f.astype(x.dtype, copy=False) for f in filters]
    s = x[None]
    for axis in (-3, -2, -1):
        s = _analyze(s, filters, axis)
    return s


def _inverse3(subbands, filters) -> np.ndarray:
    """`_synthesize` along x, y, z: `_forward3`'s adjoint (its inverse with the
    dual filters), from any sequence of F**3 arrays in `_forward3`'s order;
    an absent subband (None) counts as zero, as long as each group of F that
    the x pass combines keeps one present."""
    dtype = next(a for a in subbands if a is not None).dtype
    filters = [f.astype(dtype, copy=False) for f in filters]
    s = subbands
    for axis in (-1, -2, -3):
        s = _synthesize(s, filters, axis)
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
    return SubbandSet(_forward3(x, (bank.lo_dec, bank.hi_dec)), bank.name)


def idwt3(s: SubbandSet, bank: FilterBank) -> np.ndarray:
    """Reconstruct the volume from a subband set of the same bank (exact inverse of dwt3)."""
    if s.wavelet != bank.name:
        raise WaveletMismatchError(f"subbands of '{s.wavelet}' reconstructed with '{bank.name}'")
    return _inverse3(s.coeffs, (bank.lo_rec, bank.hi_rec))


def hard_shrink_array(x: np.ndarray, threshold: float) -> np.ndarray:
    """Zero every coefficient with |x| <= threshold (strict keep outside);
    NaN and +-inf are kept, and no zero is negative.  Raises ValueError
    unless `threshold` is finite and >= 0 (`check_threshold`).

    Computed as (|x| > threshold) * x in one buffer, about a third of the
    cost of a select: a kept value times 1 is itself, NaN times 0 stays NaN,
    and the final += 0.0 turns the -0.0 of a small negative times 0 into
    +0.0, so the bytes equal those of `np.where(|x| <= threshold, 0, x)`."""
    check_threshold(threshold)
    out = np.abs(x)
    np.greater(out, threshold, out=out)
    out *= x
    out += 0.0
    return out


def hard_shrink(s: SubbandSet, cfg: ShrinkConfig = ShrinkConfig()) -> SubbandSet:
    """Apply hard shrinkage to the seven high-frequency subbands; lll passes."""
    shrunk = hard_shrink_array(s.coeffs[1:], cfg.threshold)
    return SubbandSet(np.concatenate([s.coeffs[:1], shrunk]), s.wavelet)
