"""Differentiable ops over 5D activations (batch, channels, z, y, x).

Every op computes its forward result eagerly and registers an adjoint
closure on the active gradient tape.  Adjoints are exact transposes of the
forward linear maps (a convolution's input gradient correlates the
cotangent with the flipped kernel, the DWT layer's backward is synthesis
with the decomposition filters, etc.).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ..errors import ChannelMismatchError, OddExtentError, ShapeMismatchError
from ..filters import FilterBank
from ..transform import _forward3, _inverse3
from .autograd import Tensor, as_tensor, record, wants_grad


def _check_5d(x: Tensor, name: str = "input") -> None:
    if x.data.ndim != 5:
        raise ShapeMismatchError(f"{name} must be 5D (b, c, z, y, x), got {x.data.shape}")


def _check_even_spatial(x: Tensor, what: str) -> None:
    for ext in x.data.shape[2:]:
        if ext % 2 != 0:
            raise OddExtentError(f"{what} requires even spatial extents, got {x.data.shape[2:]}")


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------

# Bytes of one gathered block, sized to stay in a core's L2 cache while
# the k gemms read it: on a 2-core Xeon with 2 MiB of L2 per core, 512 KiB
# blocks ran the network's full-resolution layers 1.2-1.6x faster than
# blocks of 16384 positions.  A block spans at least 1024 positions, which
# bounds the Python overhead per block.
_BLOCK_BYTES = 1 << 19


class _FlatGrid:
    """A (B, C, z, y, x) batch zero-padded by `pad` voxels a side (a negative
    pad crops) with each sample's padded grid flattened into one row.

    A kernel offset (i, j, l) is then the flat shift i*plane + j*row + l.
    `flat` carries (k-1)*(row+1) trailing zeros so that every shift of the
    whole grid stays in bounds; output positions past the valid extents in y
    and x read padding and are cropped afterwards.
    """

    def __init__(self, a: np.ndarray, pad: int, k: int):
        if pad < 0:
            a = a[:, :, -pad:pad, -pad:pad, -pad:pad]
            pad = 0
        b, c = a.shape[:2]
        self.k = k
        self.sp = tuple(e + 2 * pad for e in a.shape[2:])
        self.row = self.sp[2]
        self.plane = self.sp[1] * self.sp[2]
        # the stride-1 valid correlation with a k-cube, and its flat length
        # with the row padding included
        self.out_sp = tuple(e - k + 1 for e in self.sp)
        self.out_len = self.out_sp[0] * self.plane
        rows = c * k * k
        self.block = max(1, min(self.out_len, max(1024, _BLOCK_BYTES // (rows * a.itemsize))))
        size = self.sp[0] * self.plane
        self.flat = np.zeros((b, c, size + (k - 1) * (self.row + 1)), dtype=a.dtype)
        grid = self.flat[:, :, :size].reshape((b, c) + self.sp)
        grid[:, :, pad:self.sp[0] - pad, pad:self.sp[1] - pad, pad:self.sp[2] - pad] = a

    def blocks(self):
        """Yield (sample, start, stop, cols) for each sample and each block of
        at most `block` flat output positions.  `cols` is the block's k*k
        (z, y) shifts, (C*k*k, stop - start + k - 1) with rows ordered
        (c, i, j); its slice `cols[:, l:l + stop - start]` is the input under
        kernel offsets (i, j, l).  One buffer is reused for every block."""
        k, n = self.k, self.out_len
        c = self.flat.shape[1]
        buf = np.empty((c, k, k, self.block + k - 1), dtype=self.flat.dtype)
        for bi, src in enumerate(self.flat):
            for start in range(0, n, self.block):
                stop = min(start + self.block, n)
                width = stop - start + k - 1
                for i, j in product(range(k), range(k)):
                    shift = start + i * self.plane + j * self.row
                    buf[:, i, j, :width] = src[:, shift:shift + width]
                yield bi, start, stop, buf.reshape(c * k * k, -1)[:, :width]

    def crop(self, flat_out: np.ndarray) -> np.ndarray:
        """(B, C, out_len) rows with padding -> contiguous (B, C) + out_sp."""
        do, mo, no = self.out_sp
        grid = flat_out.reshape(flat_out.shape[:2] + (do,) + self.sp[1:])
        return np.ascontiguousarray(grid[..., :mo, :no])

    def uncrop(self, g: np.ndarray) -> np.ndarray:
        """Inverse of `crop`: (B, C) + out_sp -> (B, C, out_len), zero row padding."""
        b, c, do, mo, no = g.shape
        flat = np.zeros((b, c, do) + self.sp[1:], dtype=g.dtype)
        flat[..., :mo, :no] = g
        return flat.reshape(b, c, self.out_len)


def _correlate(a: np.ndarray, w: np.ndarray, pad: int) -> np.ndarray:
    """Stride-1 correlation of (B, Ci, z, y, x) with (Co, Ci, k, k, k) after
    zero-padding every spatial side by `pad`: per gathered block, k gemms
    (Co, Ci*k*k) @ (Ci*k*k, block) on its x-offset slices, accumulated."""
    co, k = w.shape[0], w.shape[2]
    grid = _FlatGrid(a, pad, k)
    w_l = [np.ascontiguousarray(w[..., l]).reshape(co, -1) for l in range(k)]
    out = np.empty((a.shape[0], co, grid.out_len), dtype=np.result_type(a, w))
    tmp = np.empty((co, grid.block), dtype=out.dtype)
    for bi, start, stop, cols in grid.blocks():
        m = stop - start
        dst = out[bi, :, start:stop]
        np.matmul(w_l[0], cols[:, :m], out=dst)
        for l in range(1, k):
            np.matmul(w_l[l], cols[:, l:l + m], out=tmp[:, :m])
            dst += tmp[:, :m]
    return grid.crop(out)


def conv3(x, weight: Tensor, bias: Tensor | None = None, stride: int = 1,
          padding: int | None = None) -> Tensor:
    """3D convolution; kernel is cubic, default padding keeps extents (stride 1)
    or halves them exactly (stride 2, even inputs).

    Stride 2 is the stride-1 result subsampled at even positions; its adjoint
    zero-inserts the cotangent and runs the stride-1 adjoint.  The backward
    keeps nothing beyond `x` and `weight`: the input gradient is `_correlate`
    of the cotangent with the flipped, (Co, Ci)-transposed kernel, and the
    weight gradient gathers the padded input again, block by block."""
    x = as_tensor(x)
    _check_5d(x)
    co, ci, k = weight.data.shape[0], weight.data.shape[1], weight.data.shape[2]
    if x.data.shape[1] != ci:
        raise ChannelMismatchError(
            f"conv3 expected {ci} input channels, got {x.data.shape[1]}")
    if padding is None:
        padding = (k - 1) // 2
    if stride == 2:
        _check_even_spatial(x, "conv3 with stride 2")
    elif stride != 1:
        raise ValueError(f"stride must be 1 or 2, got {stride}")

    out = _correlate(x.data, weight.data, padding)
    full_sp = out.shape[2:]
    if stride == 2:
        out = np.ascontiguousarray(out[:, :, ::2, ::2, ::2])
    if bias is not None:
        out += bias.data[None, :, None, None, None]
    result = Tensor(out)

    def adjoint(grads):
        g = grads[0]
        if bias is not None and wants_grad(bias):
            bias._accumulate(g.sum(axis=(0, 2, 3, 4)))
        if stride == 2:
            g1 = np.zeros(g.shape[:2] + full_sp, dtype=g.dtype)
            g1[:, :, ::2, ::2, ::2] = g
            g = g1
        if wants_grad(weight):
            grid = _FlatGrid(x.data, padding, k)
            gflat = grid.uncrop(g)
            gw = np.zeros((k, ci * k * k, co), dtype=np.result_type(g, grid.flat))
            for bi, start, stop, cols in grid.blocks():
                g_t = gflat[bi, :, start:stop].T
                for l in range(k):
                    gw[l] += cols[:, l:l + stop - start] @ g_t
            gw = gw.reshape(k, ci, k, k, co).transpose(4, 1, 2, 3, 0)
            weight._accumulate(np.ascontiguousarray(gw))
        if wants_grad(x):
            w_adj = weight.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            x._accumulate(_correlate(g, w_adj, k - 1 - padding))

    record(result, adjoint)
    return result


def sconv2(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Strided 2x2x2 convolution (stride 2, no padding): exact halving."""
    x = as_tensor(x)
    _check_5d(x)
    _check_even_spatial(x, "sconv2")
    co, ci = weight.data.shape[:2]
    if x.data.shape[1] != ci:
        raise ChannelMismatchError(
            f"sconv2 expected {ci} input channels, got {x.data.shape[1]}")
    b, _, d, m, n = x.data.shape
    d2, m2, n2 = d // 2, m // 2, n // 2
    xw = x.data.reshape(b, ci, d2, 2, m2, 2, n2, 2)
    # (B, Ci, 2,2,2, D2, M2, N2)
    xw = xw.transpose(0, 1, 3, 5, 7, 2, 4, 6)
    out = np.einsum("bcxyzdmn,ocxyz->bodmn", xw, weight.data, optimize=True)
    if bias is not None:
        out += bias.data[None, :, None, None, None]
    result = Tensor(np.ascontiguousarray(out))

    def adjoint(grads):
        g = grads[0]
        if bias is not None and wants_grad(bias):
            bias._accumulate(g.sum(axis=(0, 2, 3, 4)))
        if wants_grad(weight):
            gw = np.einsum("bodmn,bcxyzdmn->ocxyz", g, xw, optimize=True)
            weight._accumulate(gw)
        if wants_grad(x):
            gx = np.einsum("bodmn,ocxyz->bcxyzdmn", g, weight.data, optimize=True)
            gx = gx.transpose(0, 1, 5, 2, 6, 3, 7, 4).reshape(b, ci, d, m, n)
            x._accumulate(gx)

    record(result, adjoint)
    return result


def deconv3(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Transposed 2x2x2 convolution, stride 2: exact doubling, no overlap."""
    x = as_tensor(x)
    _check_5d(x)
    ci, co = weight.data.shape[:2]
    if x.data.shape[1] != ci:
        raise ChannelMismatchError(
            f"deconv3 expected {ci} input channels, got {x.data.shape[1]}")
    b, _, d, m, n = x.data.shape
    out = np.einsum("bcdmn,coxyz->bodxmynz", x.data, weight.data, optimize=True)
    out = out.reshape(b, co, 2 * d, 2 * m, 2 * n)
    if bias is not None:
        out += bias.data[None, :, None, None, None]
    result = Tensor(out)

    def adjoint(grads):
        g = grads[0]
        gw = g.reshape(b, co, d, 2, m, 2, n, 2)
        if bias is not None and wants_grad(bias):
            bias._accumulate(g.sum(axis=(0, 2, 3, 4)))
        if wants_grad(weight):
            grad_w = np.einsum("bcdmn,bodxmynz->coxyz", x.data, gw, optimize=True)
            weight._accumulate(grad_w)
        if wants_grad(x):
            gx = np.einsum("bodxmynz,coxyz->bcdmn", gw, weight.data, optimize=True)
            x._accumulate(gx)

    record(result, adjoint)
    return result


# ---------------------------------------------------------------------------
# normalization / activation / combination
# ---------------------------------------------------------------------------

def batchnorm(x, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
              running_var: np.ndarray, training: bool, momentum: float = 0.1,
              eps: float = 1e-5) -> Tensor:
    """Per-channel batch normalization.

    Train mode normalizes with batch statistics and updates the running
    buffers in place; eval mode uses the buffers.
    """
    x = as_tensor(x)
    _check_5d(x)
    axes = (0, 2, 3, 4)
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        count = x.data.size // x.data.shape[1]
        unbias = count / max(count - 1, 1)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var * unbias
    else:
        mu = running_mean.astype(x.data.dtype, copy=False)
        var = running_var.astype(x.data.dtype, copy=False)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu[None, :, None, None, None]) * inv_std[None, :, None, None, None]
    out = gamma.data[None, :, None, None, None] * xhat + beta.data[None, :, None, None, None]
    result = Tensor(out)

    def adjoint(grads):
        g = grads[0]
        if wants_grad(beta):
            beta._accumulate(g.sum(axis=axes))
        if wants_grad(gamma):
            gamma._accumulate((g * xhat).sum(axis=axes))
        if wants_grad(x):
            gxhat = g * gamma.data[None, :, None, None, None]
            if training:
                count = x.data.size // x.data.shape[1]
                sum_g = gxhat.sum(axis=axes)
                sum_gx = (gxhat * xhat).sum(axis=axes)
                gx = (gxhat - (sum_g[None, :, None, None, None]
                               + xhat * sum_gx[None, :, None, None, None]) / count)
                gx *= inv_std[None, :, None, None, None]
            else:
                gx = gxhat * inv_std[None, :, None, None, None]
            x._accumulate(gx)

    record(result, adjoint)
    return result


def relu(x) -> Tensor:
    """max(x, 0); NaN stays NaN, so a non-finite forward reaches the loss."""
    x = as_tensor(x)
    mask = x.data > 0
    result = Tensor(np.maximum(x.data, np.zeros((), dtype=x.data.dtype)))

    def adjoint(grads):
        if wants_grad(x):
            x._accumulate(grads[0] * mask)

    record(result, adjoint)
    return result


def concat_channels(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_5d(a, "concat lhs")
    _check_5d(b, "concat rhs")
    sa, sb = a.data.shape, b.data.shape
    if sa[0] != sb[0] or sa[2:] != sb[2:]:
        raise ShapeMismatchError(f"concat_channels batch/spatial mismatch: {sa} vs {sb}")
    split = sa[1]
    result = Tensor(np.concatenate([a.data, b.data], axis=1))

    def adjoint(grads):
        g = grads[0]
        if wants_grad(a):
            a._accumulate(g[:, :split])
        if wants_grad(b):
            b._accumulate(g[:, split:])

    record(result, adjoint)
    return result


def hard_shrink_layer(x, threshold: float) -> Tensor:
    """Hard shrinkage as a layer: zero where |x| <= threshold, identity outside.

    Gradient passes through kept coefficients and is zero elsewhere."""
    x = as_tensor(x)
    mask = np.abs(x.data) > threshold
    result = Tensor(np.where(mask, x.data, np.zeros((), dtype=x.data.dtype)))

    def adjoint(grads):
        if wants_grad(x):
            x._accumulate(grads[0] * mask)

    record(result, adjoint)
    return result


# ---------------------------------------------------------------------------
# pooling / unpooling
# ---------------------------------------------------------------------------

def maxpool2_with_indices(x) -> tuple[Tensor, np.ndarray]:
    """2x2x2 max-pool with stride 2; indices are block-local (0..7)."""
    x = as_tensor(x)
    _check_5d(x)
    _check_even_spatial(x, "maxpool2")
    b, c, d, m, n = x.data.shape
    d2, m2, n2 = d // 2, m // 2, n // 2
    blocks = (x.data.reshape(b, c, d2, 2, m2, 2, n2, 2)
              .transpose(0, 1, 2, 4, 6, 3, 5, 7)
              .reshape(b, c, d2, m2, n2, 8))
    indices = blocks.argmax(axis=-1)
    pooled = np.take_along_axis(blocks, indices[..., None], axis=-1)[..., 0]
    result = Tensor(pooled)

    def adjoint(grads):
        if wants_grad(x):
            x._accumulate(_scatter_blocks(grads[0], indices))

    record(result, adjoint)
    return result, indices


def _scatter_blocks(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Place per-block values at their recorded in-block positions."""
    b, c, d2, m2, n2 = values.shape
    blocks = np.zeros((b, c, d2, m2, n2, 8), dtype=values.dtype)
    np.put_along_axis(blocks, indices[..., None], values[..., None], axis=-1)
    return (blocks.reshape(b, c, d2, m2, n2, 2, 2, 2)
            .transpose(0, 1, 2, 5, 3, 6, 4, 7)
            .reshape(b, c, 2 * d2, 2 * m2, 2 * n2))


def maxunpool2(x, indices: np.ndarray) -> Tensor:
    """Scatter pooled values back to their argmax positions, zeros elsewhere."""
    x = as_tensor(x)
    _check_5d(x)
    if x.data.shape != indices.shape:
        raise ShapeMismatchError(
            f"maxunpool2 values/indices mismatch: {x.data.shape} vs {indices.shape}")
    result = Tensor(_scatter_blocks(x.data, indices))

    def adjoint(grads):
        if wants_grad(x):
            g = grads[0]
            b, c, do, mo, no = g.shape
            blocks = (g.reshape(b, c, do // 2, 2, mo // 2, 2, no // 2, 2)
                      .transpose(0, 1, 2, 4, 6, 3, 5, 7)
                      .reshape(b, c, do // 2, mo // 2, no // 2, 8))
            x._accumulate(np.take_along_axis(blocks, indices[..., None], axis=-1)[..., 0])

    record(result, adjoint)
    return result


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def _linear_up_last(a: np.ndarray) -> np.ndarray:
    """Double the last axis: even outputs copy inputs, odd outputs average
    neighbours (last one clamps to the edge value)."""
    n = a.shape[-1]
    out = np.empty(a.shape[:-1] + (2 * n,), dtype=a.dtype)
    out[..., 0::2] = a
    out[..., 1:-1:2] = 0.5 * (a[..., :-1] + a[..., 1:])
    out[..., -1] = a[..., -1]
    return out


def _linear_up_last_adjoint(g: np.ndarray) -> np.ndarray:
    ge = g[..., 0::2]
    go = g[..., 1::2]
    out = ge.astype(g.dtype, copy=True)
    out[..., :-1] += 0.5 * go[..., :-1]
    out[..., 1:] += 0.5 * go[..., :-1]
    out[..., -1] += go[..., -1]
    return out


def _interp_axis(x: Tensor, axis: int) -> Tensor:
    result = Tensor(np.moveaxis(_linear_up_last(np.moveaxis(x.data, axis, -1)), -1, axis))

    def adjoint(grads):
        if wants_grad(x):
            g = np.moveaxis(grads[0], axis, -1)
            x._accumulate(np.moveaxis(_linear_up_last_adjoint(g), -1, axis))

    record(result, adjoint)
    return result


def interpolate2(x) -> Tensor:
    """Trilinear upsampling by 2.

    Convention: output index maps to input coordinate j/2 with edge clamp,
    so even outputs copy inputs and odd interior outputs are neighbour
    midpoints (separable per axis)."""
    x = as_tensor(x)
    _check_5d(x)
    for axis in (2, 3, 4):
        x = _interp_axis(x, axis)
    return x


# ---------------------------------------------------------------------------
# wavelet layers
# ---------------------------------------------------------------------------

def _stack_subbands(low: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """(B, C, ...) low and (7*B, C, ...) highs -> the (8, B, C, ...) core layout."""
    return np.concatenate([low[None], highs.reshape((-1,) + low.shape)])


def dwt_layer(x, bank: FilterBank) -> tuple[Tensor, Tensor]:
    """Per-channel 3D DWT at half resolution; returns (low, highs).

    `low` is the lll subband, (B, C, z, y, x); `highs` stacks the seven
    high-frequency subbands, llh..hhh, subband-major along the batch axis:
    (7*B, C, z, y, x).  Backward is the exact adjoint: synthesis with the
    decomposition filters (equal to the inverse for orthogonal banks)."""
    x = as_tensor(x)
    _check_5d(x)
    _check_even_spatial(x, "dwt_layer")
    s = _forward3(x.data, bank.lo_dec, bank.hi_dec)
    low = Tensor(s[0])
    highs = Tensor(s[1:].reshape((-1,) + s.shape[2:]))

    def adjoint(grads):
        if wants_grad(x):
            x._accumulate(_inverse3(_stack_subbands(*grads), bank.lo_dec, bank.hi_dec))

    record((low, highs), adjoint)
    return low, highs


def idwt_layer(low, highs, bank: FilterBank) -> Tensor:
    """Per-channel 3D IDWT from `dwt_layer`'s (low, highs); doubles spatial
    extents.  Backward is analysis with the reconstruction filters."""
    low, highs = as_tensor(low), as_tensor(highs)
    _check_5d(low, "idwt low")
    expect = (7 * low.data.shape[0],) + low.data.shape[1:]
    if highs.data.shape != expect:
        raise ShapeMismatchError(
            f"idwt_layer highs must be {expect} for low {low.data.shape}, "
            f"got {highs.data.shape}")
    result = Tensor(_inverse3(_stack_subbands(low.data, highs.data), bank.lo_rec, bank.hi_rec))

    def adjoint(grads):
        gsub = _forward3(grads[0], bank.lo_rec, bank.hi_rec)
        if wants_grad(low):
            low._accumulate(gsub[0])
        if wants_grad(highs):
            highs._accumulate(gsub[1:].reshape(expect))

    record(result, adjoint)
    return result


# ---------------------------------------------------------------------------
# reductions (used by the loss and by tests)
# ---------------------------------------------------------------------------

def tensor_sum(x) -> Tensor:
    x = as_tensor(x)
    result = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype))

    def adjoint(grads):
        if wants_grad(x):
            x._accumulate(np.broadcast_to(grads[0], x.data.shape).astype(x.data.dtype))

    record(result, adjoint)
    return result


def tensor_dot(x, const) -> Tensor:
    """Scalar inner product with a constant array (adjoint probe helper)."""
    x = as_tensor(x)
    c = np.asarray(const, dtype=x.data.dtype)
    result = Tensor(np.asarray((x.data * c).sum(), dtype=x.data.dtype))

    def adjoint(grads):
        if wants_grad(x):
            x._accumulate(grads[0] * c)

    record(result, adjoint)
    return result


def tensor_add(a, b) -> Tensor:
    """Elementwise addition of equal-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"add shapes differ: {a.data.shape} vs {b.data.shape}")
    result = Tensor(a.data + b.data)

    def adjoint(grads):
        if wants_grad(a):
            a._accumulate(grads[0])
        if wants_grad(b):
            b._accumulate(grads[0])

    record(result, adjoint)
    return result
