"""Differentiable ops over 5D activations (batch, channels, z, y, x).

Every op computes its forward result eagerly and declares itself once,
through `autograd.op(outputs, inputs, vjp)`: its vjp returns one cotangent
per input, None where `needs` says none is wanted, and the tape adds them
and checks their shapes.
Vjps are exact transposes of the forward linear maps (a convolution's
input gradient correlates the cotangent with the flipped kernel, the DWT
layer's backward is synthesis with the decomposition filters, etc.).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ChannelMismatchError, OddExtentError, ShapeMismatchError
from ..filters import FilterBank
from ..transform import _forward3, _inverse3, hard_shrink_array
from .autograd import Tensor, as_tensor, op


_AXES = (0, 2, 3, 4)  # every axis but channels


def _col(v: np.ndarray) -> np.ndarray:
    """A per-channel vector shaped to broadcast over (B, C, z, y, x)."""
    return v[None, :, None, None, None]


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

# The lazy wavelet: with these two filters `_forward3` splits a volume into
# its eight 2x2x2 phases, phase 4*dz + 2*dy + dx being the block entry at
# offset (dz, dy, dx), and `_inverse3` interleaves eight phases back.
_PHASES = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))


class _FlatGrid:
    """A (B, C, z, y, x) batch zero-padded by `pad` >= 0 voxels a side, with
    each sample's padded grid flattened into one row.

    A kernel offset (i, j, l) is then the flat shift i*plane + j*row + l.
    `flat` carries (k-1)*(row+1) trailing zeros so that every shift of the
    whole grid stays in bounds; output positions past the valid extents in y
    and x read padding and are cropped afterwards.
    """

    def __init__(self, a: np.ndarray, pad: int, k: int):
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
        if k == 1 and pad == 0:
            self.flat = a.reshape(b, c, size)  # a view: no padding, no tail
            return
        self.flat = np.zeros((b, c, size + (k - 1) * (self.row + 1)), dtype=a.dtype)
        grid = self.flat[:, :, :size].reshape((b, c) + self.sp)
        grid[:, :, pad:self.sp[0] - pad, pad:self.sp[1] - pad, pad:self.sp[2] - pad] = a

    def blocks(self):
        """Yield (sample, start, stop, cols) for each sample and each block of
        at most `block` flat output positions.  `cols` is the block's k*k
        (z, y) shifts, (C*k*k, stop - start + k - 1) with rows ordered
        (c, i, j); its slice `cols[:, l:l + stop - start]` is the input under
        kernel offsets (i, j, l).  One buffer is reused for every block and
        filled by one copy; with k = 1 `cols` is the flat slice itself."""
        k, n = self.k, self.out_len
        c = self.flat.shape[1]
        buf = np.empty((c, k, k, self.block + k - 1), dtype=self.flat.dtype) if k > 1 else None
        for bi, src in enumerate(self.flat):
            if k > 1:
                # shifts[:, i, j, p] = src[:, i*plane + j*row + p]: every (z, y)
                # shift of the whole sample as one read-only view.  Its last
                # element, (k-1)*(plane + row) + out_len + k - 2, is exactly the
                # last element of `src`, which the (k-1)*(row+1) tail pads to.
                item = src.itemsize
                shifts = as_strided(src, (c, k, k, n + k - 1),
                                    (src.strides[0], self.plane * item, self.row * item, item),
                                    writeable=False)
            for start in range(0, n, self.block):
                stop = min(start + self.block, n)
                if k == 1:
                    yield bi, start, stop, src[:, start:stop]
                    continue
                width = stop - start + k - 1
                np.copyto(buf[..., :width], shifts[..., start:start + width])
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


def _split(a: np.ndarray, pad: int) -> np.ndarray:
    """(B, C, z, y, x) zero-padded by `pad` a side, and by one more at the end
    of an odd extent, as its eight lazy-wavelet phases in phase-major
    channels: (B, 8*C) at half the padded extents, channel d*C + c being
    phase d of channel c."""
    widths = [(0, 0)] * 2 + [(pad, pad + (e + 2 * pad) % 2) for e in a.shape[2:]]
    phases = _forward3(np.pad(a, widths) if any(map(any, widths)) else a, _PHASES)
    return np.moveaxis(phases, 0, 1).reshape((a.shape[0], -1) + phases.shape[3:])


def _merge(p: np.ndarray, pad: int) -> np.ndarray:
    """Adjoint of `_split`: the phases interleaved back, `pad` cropped a side."""
    phases = np.moveaxis(p.reshape((p.shape[0], 8, -1) + p.shape[2:]), 1, 0)
    crop = (slice(pad, 2 * e - pad) for e in p.shape[2:])
    return np.ascontiguousarray(_inverse3(phases, _PHASES)[(..., *crop)])


def _correlate(a: np.ndarray, w: np.ndarray, pad: int, stride: int = 1) -> np.ndarray:
    """Correlation of (B, Ci, z, y, x) with (Co, Ci, k, k, k) after
    zero-padding every spatial side by `pad`: per gathered block, k gemms
    (Co, Ci*k*k) @ (Ci*k*k, block) on its x-offset slices, accumulated.

    Stride 2 is the stride-1 correlation of the padded input's phases with
    the even-padded kernel's: tap 2s + d reads phase d at offset s."""
    if stride == 2:
        return _correlate(_split(a, pad), _split(w, 0), 0)
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


def _correlate_adjoint(a: np.ndarray, w: np.ndarray, pad: int, g: np.ndarray,
                       want_a: bool, want_w: bool, stride: int = 1):
    """Gradients (ga, gw) of `_correlate(a, w, pad, stride)` for the cotangent
    `g`, None where not wanted.  `ga` is `_correlate` of `g` with the flipped,
    (Co, Ci)-transposed kernel; `gw` gathers the padded input again, block
    by block, so nothing beyond `a` has to be kept from the forward.  Stride
    2 merges the phase gradients back; `a` may be None unless `want_w`."""
    co, ci, k = w.shape[:3]
    if stride == 2:
        ga, gw = _correlate_adjoint(_split(a, pad) if want_w else None, _split(w, 0), 0, g,
                                    want_a, want_w)
        return (_merge(ga, pad) if want_a else None,
                np.ascontiguousarray(_merge(gw, 0)[..., :k, :k, :k]) if want_w else None)
    ga = gw = None
    if want_w:
        grid = _FlatGrid(a, pad, k)
        gflat = grid.uncrop(g)
        gw = np.zeros((k, ci * k * k, co), dtype=np.result_type(g, grid.flat))
        for bi, start, stop, cols in grid.blocks():
            g_t = gflat[bi, :, start:stop].T
            for l in range(k):
                gw[l] += cols[:, l:l + stop - start] @ g_t
        gw = np.ascontiguousarray(gw.reshape(k, ci, k, k, co).transpose(4, 1, 2, 3, 0))
    if want_a:
        w_adj = w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        ga = _correlate(g, w_adj, k - 1 - pad)
    return ga, gw


def _conv3_vjp(x: np.ndarray, w: np.ndarray, pad: int, g: np.ndarray, needs,
               stride: int = 1):
    """Gradients (gx, gw, gb) of `_correlate(x, w, pad, stride) + bias` for
    the cotangent `g`, None where `needs` is false."""
    gb = g.sum(axis=_AXES) if needs[2] else None
    gx, gw = _correlate_adjoint(x, w, pad, g, needs[0], needs[1], stride)
    return gx, gw, gb


def _check_conv3_input(x: Tensor, ci: int, name: str) -> None:
    _check_5d(x)
    if x.data.shape[1] != ci:
        raise ChannelMismatchError(f"{name} expected {ci} input channels, got {x.data.shape[1]}")


def conv3(x, weight: Tensor, bias: Tensor | None = None, stride: int = 1,
          padding: int | None = None) -> Tensor:
    """3D convolution; kernel is cubic, default padding keeps extents (stride 1)
    or halves them exactly (stride 2, even inputs).  `padding` lies in
    0..k-1.

    Stride 2 runs on the input's lazy-wavelet phases; the adjoint,
    `_correlate_adjoint`, keeps nothing beyond `x` and `weight`."""
    x = as_tensor(x)
    _check_conv3_input(x, weight.data.shape[1], "conv3")
    k = weight.data.shape[2]
    if padding is None:
        padding = (k - 1) // 2
    if not 0 <= padding < k:
        raise ValueError(f"padding must lie in 0..{k - 1} for a {k}-cube kernel, got {padding}")
    if stride == 2:
        _check_even_spatial(x, "conv3 with stride 2")
    elif stride != 1:
        raise ValueError(f"stride must be 1 or 2, got {stride}")

    out = _correlate(x.data, weight.data, padding, stride)
    if bias is not None:
        out += _col(bias.data)
    return op(out, (x, weight, bias),
              lambda grads, needs: _conv3_vjp(x.data, weight.data, padding, grads[0], needs,
                                              stride))


def sconv2(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Strided 2x2x2 convolution (stride 2, no padding): exact halving."""
    return conv3(x, weight, bias, stride=2, padding=0)


def deconv3(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Transposed 2x2x2 convolution, stride 2: exact doubling, no overlap.

    The exact transpose of `sconv2` on the same (Ci, Co, 2, 2, 2) weight,
    which `sconv2` reads as mapping Co channels to Ci: the forward is that
    op's input gradient, a channel mix to 8*Co phases merged back; the input
    gradient is its forward; the weight gradient is `_correlate_adjoint`'s
    with the cotangent as input and `x` as cotangent."""
    x = as_tensor(x)
    _check_conv3_input(x, weight.data.shape[0], "deconv3")
    w = weight.data
    out = _correlate_adjoint(None, w, 0, x.data, True, False, 2)[0]
    if bias is not None:
        out += _col(bias.data)

    def vjp(grads, needs):
        g = grads[0]
        return (_correlate(g, w, 0, 2) if needs[0] else None,
                _correlate_adjoint(g, w, 0, x.data, False, True, 2)[1] if needs[1] else None,
                g.sum(axis=_AXES) if needs[2] else None)

    return op(out, (x, weight, bias), vjp)


# ---------------------------------------------------------------------------
# normalization / activation / combination
# ---------------------------------------------------------------------------

# BN's running-average weight of a new batch and its variance guard
_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


def _batch_stats(a: np.ndarray, running_mean: np.ndarray, running_var: np.ndarray):
    """Per-channel batch mean and variance of `a`; folds them (the variance
    unbiased) into the running buffers in place, with weight `_BN_MOMENTUM`."""
    mu = a.mean(axis=_AXES)
    var = a.var(axis=_AXES)
    count = a.size // a.shape[1]
    unbias = count / max(count - 1, 1)
    running_mean *= 1.0 - _BN_MOMENTUM
    running_mean += _BN_MOMENTUM * mu
    running_var *= 1.0 - _BN_MOMENTUM
    running_var += _BN_MOMENTUM * var * unbias
    return mu, var


def _normalize(a: np.ndarray, mu: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """BN's normalized input (a - mu) * inv_std, per channel, in a new array."""
    xhat = a - _col(mu)
    xhat *= _col(inv_std)
    return xhat


def _batchnorm_adjoint(g: np.ndarray, xhat: np.ndarray, gamma: np.ndarray,
                       inv_std: np.ndarray, training: bool, want_x: bool):
    """BN's backward for the cotangent `g` of gamma*xhat + beta: the
    gradients (gx, g_gamma, g_beta), gx None unless `want_x`.  In training
    the gradient also flows through the batch statistics:
    gx = gamma*inv_std * (g - (g_beta + xhat*g_gamma) / count)."""
    g_beta = g.sum(axis=_AXES)
    g_gamma = (g * xhat).sum(axis=_AXES)
    if not want_x:
        return None, g_gamma, g_beta
    scale = _col(gamma * inv_std)
    if not training:
        return g * scale, g_gamma, g_beta
    count = g.size // g.shape[1]
    gx = xhat * _col(g_gamma / count)
    gx += _col(g_beta / count)
    np.subtract(g, gx, out=gx)
    gx *= scale
    return gx, g_gamma, g_beta


def batchnorm(x, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
              running_var: np.ndarray, training: bool) -> Tensor:
    """Per-channel batch normalization.

    Train mode normalizes with batch statistics and updates the running
    buffers in place; eval mode uses the buffers.
    """
    x = as_tensor(x)
    _check_5d(x)
    if training:
        mu, var = _batch_stats(x.data, running_mean, running_var)
    else:
        mu = running_mean.astype(x.data.dtype, copy=False)
        var = running_var.astype(x.data.dtype, copy=False)
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)
    xhat = _normalize(x.data, mu, inv_std)
    return op(_col(gamma.data) * xhat + _col(beta.data), (x, gamma, beta),
              lambda grads, needs: _batchnorm_adjoint(grads[0], xhat, gamma.data, inv_std,
                                                      training, needs[0]))


def conv_bn_relu(x, weight: Tensor, bias: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray, training: bool) -> Tensor:
    """relu(batchnorm(conv3(x, weight, bias), ...)) as one recorded op, with
    the values, gradients and running-buffer update of that chain.

    Train mode normalizes with batch statistics.  The tape keeps `x`, the
    conv output and the per-channel statistics; the adjoint takes the ReLU
    mask from `result > 0`, recomputes BN's normalized input from the conv
    output, runs BN's backward and then the conv's.

    Eval mode folds BN into the conv on every call, from the current
    buffers: weight w*gamma/sigma, bias (b - mean)*gamma/sigma + beta, so a
    newly loaded state is never stale.  Its adjoint recomputes the unfolded
    conv output and then runs the training backward with BN's eval-mode
    gradient, so gradients stay exact under a tape.  ReLU runs in place on
    the output; NaN stays NaN."""
    x = as_tensor(x)
    _check_conv3_input(x, weight.data.shape[1], "conv_bn_relu")
    pad = (weight.data.shape[2] - 1) // 2

    def conv_out():
        z = _correlate(x.data, weight.data, pad)
        z += _col(bias.data)
        return z

    if training:
        z = conv_out()
        mu, var = _batch_stats(z, running_mean, running_var)
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        out = _normalize(z, mu, inv_std)
        out *= _col(gamma.data)
        out += _col(beta.data)
    else:
        z = None  # recomputed by the adjoint
        mu = running_mean.astype(x.data.dtype, copy=False)
        inv_std = 1.0 / np.sqrt(running_var.astype(x.data.dtype, copy=False) + _BN_EPS)
        scale = gamma.data * inv_std
        out = _correlate(x.data, weight.data * scale[:, None, None, None, None], pad)
        out += _col((bias.data - mu) * scale + beta.data)
    np.maximum(out, np.zeros((), dtype=out.dtype), out=out)

    def vjp(grads, needs):
        # out > 0 selects the same entries as relu's input > 0, NaN included;
        # the masked cotangent and xhat are freed before the conv's backward
        # runs
        gz, g_gamma, g_beta = _batchnorm_adjoint(
            grads[0] * (out > 0), _normalize(conv_out() if z is None else z, mu, inv_std),
            gamma.data, inv_std, training, any(needs[:3]))
        if gz is None:
            return None, None, None, g_gamma, g_beta
        return (*_conv3_vjp(x.data, weight.data, pad, gz, needs), g_gamma, g_beta)

    return op(out, (x, weight, bias, gamma, beta), vjp)


def relu(x) -> Tensor:
    """max(x, 0); NaN stays NaN, so a non-finite forward reaches the loss."""
    x = as_tensor(x)
    out = np.maximum(x.data, np.zeros((), dtype=x.data.dtype))
    # out > 0 selects the same entries as x > 0, NaN included
    return op(out, (x,), lambda grads, needs: (grads[0] * (out > 0),))


def concat_channels(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_5d(a, "concat lhs")
    _check_5d(b, "concat rhs")
    sa, sb = a.data.shape, b.data.shape
    if sa[0] != sb[0] or sa[2:] != sb[2:]:
        raise ShapeMismatchError(f"concat_channels batch/spatial mismatch: {sa} vs {sb}")
    split = sa[1]
    return op(np.concatenate([a.data, b.data], axis=1), (a, b),
              lambda grads, needs: (grads[0][:, :split], grads[0][:, split:]))


def hard_shrink_layer(x, threshold: float) -> Tensor:
    """`hard_shrink_array` as a layer: zero where |x| <= threshold, identity
    outside, so NaN passes through as it does in `relu`.

    Gradient passes through kept coefficients and is zero elsewhere."""
    x = as_tensor(x)
    out = hard_shrink_array(x.data, threshold)
    # threshold >= 0, so out != 0 selects exactly |x| > threshold, NaN included
    return op(out, (x,), lambda grads, needs: (grads[0] * (out != 0),))


# ---------------------------------------------------------------------------
# pooling / unpooling
# ---------------------------------------------------------------------------

def first_max(stack: np.ndarray) -> np.ndarray:
    """numpy's argmax over axis 0, in whole-array passes: the index along the
    leading axis of each position's first maximum, NaN counting as the
    maximum, ties going to the lower index.

    numpy's argmax over a leading axis makes one call per position; here
    `top` is one pairwise max, and each entry but the last adds 1 to the
    index wherever neither it nor an earlier entry is the maximum or NaN.
    The count runs in the narrowest integer type that holds it."""
    top = stack.max(axis=0)
    idx = np.zeros(top.shape, dtype=np.min_scalar_type(len(stack) - 1))
    seen = np.zeros(top.shape, dtype=bool)
    hit = np.empty(top.shape, dtype=bool)
    for entry in stack[:-1]:
        seen |= np.equal(entry, top, out=hit)
        seen |= np.isnan(entry, out=hit)
        idx += np.logical_not(seen, out=hit)
    return idx.astype(np.intp)


def _place(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Each value written at its block's phase `indices`, zeros elsewhere."""
    phases = np.zeros((8,) + values.shape, dtype=values.dtype)
    np.put_along_axis(phases, indices[None], values[None], axis=0)
    return _inverse3(phases, _PHASES)


def maxpool2_with_indices(x) -> tuple[Tensor, np.ndarray]:
    """2x2x2 max-pool with stride 2; indices are each block's lazy-wavelet
    phase (0..7) of its first maximum, NaN counting as the maximum."""
    x = as_tensor(x)
    _check_5d(x)
    _check_even_spatial(x, "maxpool2")
    phases = _forward3(x.data, _PHASES)
    indices = first_max(phases)
    result = op(np.take_along_axis(phases, indices[None], axis=0)[0], (x,),
                lambda grads, needs: (_place(grads[0], indices),))
    return result, indices


def maxunpool2(x, indices: np.ndarray) -> Tensor:
    """Scatter pooled values back to their argmax positions, zeros elsewhere."""
    x = as_tensor(x)
    _check_5d(x)
    if x.data.shape != indices.shape:
        raise ShapeMismatchError(
            f"maxunpool2 values/indices mismatch: {x.data.shape} vs {indices.shape}")
    return op(_place(x.data, indices), (x,), lambda grads, needs: (
        np.take_along_axis(_forward3(grads[0], _PHASES), indices[None], axis=0)[0],))


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


def interpolate2(x) -> Tensor:
    """Trilinear upsampling by 2.

    Convention: output index maps to input coordinate j/2 with edge clamp,
    so even outputs copy inputs and odd interior outputs are neighbour
    midpoints (separable per axis: z, y, then x; the adjoint runs x, y, z)."""
    x = as_tensor(x)
    _check_5d(x)
    out = x.data
    for axis in (2, 3, 4):
        out = np.moveaxis(_linear_up_last(np.moveaxis(out, axis, -1)), -1, axis)

    def vjp(grads, needs):
        g = grads[0]
        for axis in (4, 3, 2):
            g = np.moveaxis(_linear_up_last_adjoint(np.moveaxis(g, axis, -1)), -1, axis)
        return (g,)

    return op(out, (x,), vjp)


# ---------------------------------------------------------------------------
# wavelet layers
# ---------------------------------------------------------------------------

def dwt_layer(x, bank: FilterBank) -> tuple[Tensor, Tensor]:
    """Per-channel 3D DWT at half resolution; returns (low, highs).

    `low` is the lll subband, (B, C, z, y, x); `highs` stacks the seven
    high-frequency subbands, llh..hhh, subband-major along the batch axis:
    (7*B, C, z, y, x).  Backward is the exact adjoint: synthesis with the
    decomposition filters (equal to the inverse for orthogonal banks)."""
    x = as_tensor(x)
    _check_5d(x)
    _check_even_spatial(x, "dwt_layer")
    s = _forward3(x.data, (bank.lo_dec, bank.hi_dec))

    def vjp(grads, needs):
        g_low, g_highs = grads
        return (_inverse3([g_low, *g_highs.reshape((7,) + g_low.shape)],
                          (bank.lo_dec, bank.hi_dec)),)

    return op((s[0], s[1:].reshape((-1,) + s.shape[2:])), (x,), vjp)


def dwt_low_layer(x, bank: FilterBank) -> Tensor:
    """`dwt_layer`'s `low` alone, from the low-pass filter only: no high subband
    is computed or kept.  Backward is synthesis with that filter alone."""
    x = as_tensor(x)
    _check_5d(x)
    _check_even_spatial(x, "dwt_low_layer")
    return op(_forward3(x.data, (bank.lo_dec,))[0], (x,),
              lambda grads, needs: (_inverse3(grads, (bank.lo_dec,)),))


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
    out = _inverse3([low.data, *highs.data.reshape((7,) + low.data.shape)],
                    (bank.lo_rec, bank.hi_rec))

    def vjp(grads, needs):
        gsub = _forward3(grads[0], (bank.lo_rec, bank.hi_rec))
        return gsub[0], gsub[1:].reshape(expect)

    return op(out, (low, highs), vjp)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def tensor_dot(x, const) -> Tensor:
    """Scalar inner product with a constant array (adjoint probe helper)."""
    x = as_tensor(x)
    c = np.asarray(const, dtype=x.data.dtype)
    return op(np.asarray((x.data * c).sum(), dtype=x.data.dtype), (x,),
              lambda grads, needs: (grads[0] * c,))
