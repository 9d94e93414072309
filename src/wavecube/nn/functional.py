"""Differentiable ops over 5D activations (batch, channels, z, y, x).

Every op computes its forward result eagerly and declares itself once,
through `autograd.op(output, inputs, vjp)`: its vjp maps the output's
cotangent to one cotangent per input, None where `needs` says none is
wanted, and the tape adds them and checks their shapes.
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
from .autograd import Tensor, active_tape, as_tensor, op


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
    """The geometry of a (B, C, z, y, x) batch of shape `shape` for a
    correlation with a k-cube: each extent e zero-padded by `pad` >= 0 in
    front and to e + max(2*pad, k-1) in all, so that a correlation's grid
    and its transpose's (padded by k-1-pad) share row and plane.  Each
    sample's grid is flattened into one row, where a kernel offset (i, j, l)
    is the shift i*plane + j*row + l; (k-1)*(row+1) trailing zeros keep
    every shift in bounds, and output positions past the valid extents
    e + 2*pad - k + 1 in y and x read padding and are cropped afterwards."""

    def __init__(self, shape, itemsize: int, pad: int, k: int):
        self.k, self.pad = k, pad
        self.sp = tuple(e + max(2 * pad, k - 1) for e in shape[2:])
        self.row = self.sp[2]
        self.plane = self.sp[1] * self.sp[2]
        self.out_sp = tuple(e + 2 * pad - k + 1 for e in shape[2:])
        self.out_len = self.out_sp[0] * self.plane
        rows = shape[1] * k * k
        self.block = max(1, min(self.out_len, max(1024, _BLOCK_BYTES // (rows * itemsize))))

    def padded(self, a: np.ndarray) -> np.ndarray:
        """`a` as (B, C, flat) rows of its zero-padded grid, trailing zeros
        included; with k = 1 and no padding, a view of `a`."""
        k, pad, size = self.k, self.pad, self.sp[0] * self.plane
        b, c = a.shape[:2]
        if k == 1 and pad == 0:
            return a.reshape(b, c, size)
        flat = np.zeros((b, c, size + (k - 1) * (self.row + 1)), dtype=a.dtype)
        grid = flat[:, :, :size].reshape((b, c) + self.sp)
        grid[(..., *(slice(pad, pad + e) for e in a.shape[2:]))] = a
        return flat

    def blocks(self, flat: np.ndarray):
        """Yield (sample, start, stop, cols) for each sample of the padded
        rows `flat` and each block of at most `block` flat output positions.
        `cols` is the block's k*k (z, y) shifts, (C*k*k, stop - start + k - 1)
        with rows ordered (c, i, j); its slice `cols[:, l:l + stop - start]`
        is the input under kernel offsets (i, j, l).  One buffer is reused
        for every block and filled by one copy; with k = 1 `cols` is the
        flat slice itself."""
        k, n, c = self.k, self.out_len, flat.shape[1]
        buf = np.empty((c, k, k, self.block + k - 1), dtype=flat.dtype) if k > 1 else None
        for bi, src in enumerate(flat):
            if k > 1:
                # shifts[:, i, j, p] = src[:, i*plane + j*row + p]: every (z, y)
                # shift of the whole sample as one read-only view.  Its last
                # element, (k-1)*(plane + row) + out_len + k - 2, lies within
                # `src`, which the (k-1)*(row+1) tail pads to.
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
    zero-padding every spatial side by `pad`.

    Stride 2 is the stride-1 correlation of the padded input's phases with
    the even-padded kernel's: tap 2s + d reads phase d at offset s."""
    if stride == 2:
        return _correlate(_split(a, pad), _split(w, 0), 0)
    grid = _FlatGrid(a.shape, a.itemsize, pad, w.shape[2])
    out = np.empty((a.shape[0], w.shape[0], grid.out_len), dtype=np.result_type(a, w))
    return grid.crop(_correlate_rows(grid, grid.padded(a), w, out))


def _correlate_rows(grid: _FlatGrid, flat: np.ndarray, w: np.ndarray, out: np.ndarray):
    """Fill and return `out`, (B, Co, out_len) rows, with `grid`'s padded
    rows `flat` correlated with `w`: per gathered block, k gemms
    (Co, Ci*k*k) @ (Ci*k*k, block) on its x-offset slices, accumulated.
    Callers crop `out` once `flat` is dropped; a forward allocates it before
    `flat`, as the other order raised `segment_volume`'s peak RSS by 7 MB."""
    co, k = w.shape[0], grid.k
    w_l = [np.ascontiguousarray(w[..., l]).reshape(co, -1) for l in range(k)]
    tmp = np.empty((co, grid.block), dtype=out.dtype)
    for bi, start, stop, cols in grid.blocks(flat):
        m = stop - start
        dst = out[bi, :, start:stop]
        np.matmul(w_l[0], cols[:, :m], out=dst)
        for l in range(1, k):
            np.matmul(w_l[l], cols[:, l:l + m], out=tmp[:, :m])
            dst += tmp[:, :m]
    return out


def _correlate_adjoint(a: np.ndarray | None, w: np.ndarray, pad: int, g: np.ndarray, needs,
                       stride: int = 1):
    """The gradients (ga, gw) of `_correlate(a, w, pad, stride)` for the
    cotangent `g`, None where `needs[0]`, `needs[1]` is false (`a` is read
    only for `gw`).  `g` is padded once, by k-1-pad, into the transpose's
    grid.  The kernel gradient runs first, per gathered block of `a`: k
    gemms with that copy read from flat offset (k-1-pad)*(plane + row + 1),
    the row-padded cotangent of `a`'s grid.  The input gradient correlates
    the copy with the flipped, (Co, Ci)-transposed kernel.  Stride 2 runs
    on the phases of `a` and the kernel and merges both gradients back."""
    k = w.shape[2]
    if stride == 2:
        ga, gw = _correlate_adjoint(_split(a, pad) if needs[1] else None, _split(w, 0), 0,
                                    g, needs)
        return (None if ga is None else _merge(ga, pad),
                None if gw is None else np.ascontiguousarray(_merge(gw, 0)[..., :k, :k, :k]))
    t_grid = _FlatGrid(g.shape, g.itemsize, k - 1 - pad, k)
    g_flat = t_grid.padded(g)
    gw = None
    if needs[1]:
        co, ci = g.shape[1], a.shape[1]
        grid = _FlatGrid(a.shape, a.itemsize, pad, k)
        first = t_grid.pad * (grid.plane + grid.row + 1)
        gw = np.zeros((k, ci * k * k, co), dtype=np.result_type(g, a))
        for bi, start, stop, cols in grid.blocks(grid.padded(a)):
            for l in range(k):
                gw[l] += cols[:, l:l + stop - start] @ g_flat[bi, :, first + start:first + stop].T
        gw = np.ascontiguousarray(gw.reshape(k, ci, k, k, co).transpose(4, 1, 2, 3, 0))
    if not needs[0]:
        return None, gw
    out = np.empty((g.shape[0], w.shape[1], t_grid.out_len), dtype=np.result_type(g, w))
    _correlate_rows(t_grid, g_flat, w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4), out)
    del g_flat  # the padded cotangent dies before the crop allocates the gradient
    return t_grid.crop(out), gw


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
    return op(out, (x, weight, bias), lambda g, needs: (
        *_correlate_adjoint(x.data, weight.data, padding, g, needs, stride),
        g.sum(axis=_AXES) if needs[2] else None))


def sconv2(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Strided 2x2x2 convolution (stride 2, no padding): exact halving."""
    return conv3(x, weight, bias, stride=2, padding=0)


def deconv3(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Transposed 2x2x2 convolution, stride 2: exact doubling, no overlap.

    The exact transpose of `sconv2` on the same (Ci, Co, 2, 2, 2) weight,
    which `sconv2` reads as mapping Co channels to Ci: the forward is that
    op's input gradient, and the kernel gradient its kernel gradient with
    the cotangent as input and `x` as cotangent, both `_correlate_adjoint`;
    the input gradient is its forward."""
    x = as_tensor(x)
    _check_conv3_input(x, weight.data.shape[0], "deconv3")
    w = weight.data
    out = _correlate_adjoint(None, w, 0, x.data, (True, False), 2)[0]
    if bias is not None:
        out += _col(bias.data)
    return op(out, (x, weight, bias), lambda g, needs: (
        _correlate(g, w, 0, 2) if needs[0] else None,
        _correlate_adjoint(g, w, 0, x.data, (False, needs[1]), 2)[1],
        g.sum(axis=_AXES) if needs[2] else None))


# ---------------------------------------------------------------------------
# normalization / activation / combination
# ---------------------------------------------------------------------------

# BN's running-average weight of a new batch and its variance guard
_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


def _running_stats(running_mean: np.ndarray, running_var: np.ndarray, dtype):
    """Eval BN's per-channel (mean, inv_std), from the running buffers cast
    to `dtype`."""
    var = running_var.astype(dtype, copy=False)
    return running_mean.astype(dtype, copy=False), 1.0 / np.sqrt(var + _BN_EPS)


def _batch_inv_std(mu: np.ndarray, var: np.ndarray, count: int,
                   running_mean: np.ndarray, running_var: np.ndarray) -> np.ndarray:
    """Training BN's per-channel inv_std from the batch mean and variance of
    `count` entries per channel, which it folds (the variance unbiased) into
    the running buffers in place, with weight `_BN_MOMENTUM`."""
    unbias = count / max(count - 1, 1)
    running_mean *= 1.0 - _BN_MOMENTUM
    running_mean += _BN_MOMENTUM * mu
    running_var *= 1.0 - _BN_MOMENTUM
    running_var += _BN_MOMENTUM * var * unbias
    return 1.0 / np.sqrt(var + _BN_EPS)


def _affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """gamma*xhat + beta per channel, in a new array, by training
    `_batchnorm_`'s own two calls, so its bits are that forward's."""
    out = np.multiply(xhat, _col(gamma), out=np.empty_like(xhat))
    out += _col(beta)
    return out


def _batchnorm_(z: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                running_mean: np.ndarray, running_var: np.ndarray, training: bool):
    """BN of the batch `z`, normalized in `z`'s own buffer, with the bits of
    `batchnorm`: returns (gamma*xhat + beta, xhat, inv_std), xhat being `z`.

    Eval takes `_running_stats` and builds the result by `_affine`.
    Training takes batch statistics and updates the running buffers as
    `_batch_inv_std` does: it centres the batch once, in place, takes the
    variance as the mean of its squares (numpy's own `var` order, so the
    bits equal `z.var`'s), scales the centred buffer into xhat, and builds
    the result in the squares' buffer."""
    if not training:
        mu, inv_std = _running_stats(running_mean, running_var, z.dtype)
        xhat = np.subtract(z, _col(mu), out=z)
        xhat *= _col(inv_std)
        return _affine(xhat, gamma, beta), xhat, inv_std
    mu = z.mean(axis=_AXES)
    xhat = np.subtract(z, _col(mu), out=z)
    result = np.square(xhat)
    var = result.mean(axis=_AXES)
    inv_std = _batch_inv_std(mu, var, z.size // z.shape[1], running_mean, running_var)
    xhat *= _col(inv_std)
    np.multiply(xhat, _col(gamma), out=result)
    result += _col(beta)
    return result, xhat, inv_std


def _batchnorm_adjoint(g: np.ndarray, xhat: np.ndarray, gamma: np.ndarray,
                       inv_std: np.ndarray, training: bool):
    """BN's backward for the cotangent `g` of gamma*xhat + beta: the
    gradients (gx, g_gamma, g_beta).  In training the gradient also flows
    through the batch statistics:
    gx = gamma*inv_std * (g - (g_beta + xhat*g_gamma) / count).
    `gx` is built in `xhat`'s buffer, which the caller gives up; `g` is
    only read."""
    g_beta = g.sum(axis=_AXES)
    g_gamma = (g * xhat).sum(axis=_AXES)
    scale = _col(gamma * inv_std)
    if not training:
        return np.multiply(g, scale, out=xhat), g_gamma, g_beta
    count = g.size // g.shape[1]
    gx = xhat
    gx *= _col(g_gamma / count)
    gx += _col(g_beta / count)
    np.subtract(g, gx, out=gx)
    gx *= scale
    return gx, g_gamma, g_beta


def batchnorm(x, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
              running_var: np.ndarray, training: bool) -> Tensor:
    """Per-channel batch normalization.

    Train mode normalizes with batch statistics and updates the running
    buffers in place; eval mode uses the buffers.  This is the plain
    formula (`a.var`, a fresh xhat): the reference that `conv_bn_relu`'s
    in-place training path matches bit for bit.
    """
    x = as_tensor(x)
    _check_5d(x)
    a = x.data
    if training:
        mu = a.mean(axis=_AXES)
        inv_std = _batch_inv_std(mu, a.var(axis=_AXES), a.size // a.shape[1],
                                 running_mean, running_var)
    else:
        mu, inv_std = _running_stats(running_mean, running_var, a.dtype)
    xhat = a - _col(mu)
    xhat *= _col(inv_std)
    return op(_col(gamma.data) * xhat + _col(beta.data), (x, gamma, beta),
              lambda g, needs: _batchnorm_adjoint(g, xhat, gamma.data, inv_std, training))


def _relu_(a: np.ndarray) -> np.ndarray:
    """max(a, 0) in `a`'s own buffer; NaN stays NaN."""
    return np.maximum(a, np.zeros((), dtype=a.dtype), out=a)


def conv_bn_relu(x, units, training: bool) -> Tensor:
    """A chain of conv3 -> batchnorm -> relu units as one recorded op, with
    the values, gradients and running-buffer updates of those ops chained.
    Each unit is (weight, bias, gamma, beta, running_mean, running_var): a
    "same" cubic convolution, BN's parameters and its running buffers.

    Wherever a tape records, and in training, each unit normalizes its conv
    output in its own buffer (`_batchnorm_`, in the op's mode), and the op
    keeps the chain's input and each unit's xhat and inv_std, nothing else.
    The backward walks the units in reverse.  It masks the last unit's
    cotangent with gamma*xhat + beta > 0, the forward's own sum, bit for
    bit.  For every other unit it rebuilds the unit's output,
    relu(gamma*xhat + beta), by the forward's own calls: the next unit's
    kernel gradient reads it, and then it takes that unit's masked
    cotangent (relu's output is > 0 where its input is, NaN included).
    BN's backward builds its gradient in xhat's buffer, and each incoming
    cotangent is dropped before the conv's backward runs.

    Eval without a tape folds BN into each conv on every call, from the
    current buffers (weight w*gamma/sigma, bias (b - mean)*gamma/sigma +
    beta), keeps nothing, and lets go of the chain's input once unit 1's
    conv has read it.  ReLU runs in place on each output; NaN stays NaN."""
    x = as_tensor(x)
    units = [tuple(unit) for unit in units]
    if not units:
        raise ValueError("conv_bn_relu needs at least one unit")
    _check_5d(x)
    channels = x.data.shape[1]
    for weight, *_ in units:
        if weight.data.shape[1] != channels:
            raise ChannelMismatchError(
                f"conv_bn_relu expected {weight.data.shape[1]} input channels, got {channels}")
        channels = weight.data.shape[0]
    pads = [(unit[0].data.shape[2] - 1) // 2 for unit in units]

    a, saved = x.data, []
    fold = not training and active_tape() is None
    if fold:
        x = None  # `a` alone holds the input, till unit 1's conv has read it
    for (weight, bias, gamma, beta, running_mean, running_var), pad in zip(units, pads):
        if fold:
            mu, inv_std = _running_stats(running_mean, running_var, a.dtype)
            scale = gamma.data * inv_std
            a = _correlate(a, weight.data * scale[:, None, None, None, None], pad)
            a += _col((bias.data - mu) * scale + beta.data)
        else:
            z = _correlate(a, weight.data, pad)
            z += _col(bias.data)
            a, xhat, inv_std = _batchnorm_(z, gamma.data, beta.data, running_mean,
                                           running_var, training)
            saved.append((xhat, inv_std))
        _relu_(a)
    last = len(units) - 1

    def vjp(g, needs):
        # each unit's saved arrays, and its gradient buffers, go once its
        # backward has read them, before the unit below it runs
        grads = [None] * len(needs)
        for i in reversed(range(len(units))):
            weight, _, gamma, beta = units[i][:4]
            xhat, inv_std = saved.pop()
            # `a`, unit i+1's input, is unit i's rebuilt output
            gz = _affine(xhat, gamma.data, beta.data) if i == last else a
            np.multiply(g, gz > 0, out=gz)
            del g
            a = x.data if i == 0 else _relu_(_affine(saved[-1][0], units[i - 1][2].data,
                                                     units[i - 1][3].data))
            gz, g_gamma, g_beta = _batchnorm_adjoint(gz, xhat, gamma.data, inv_std, training)
            del xhat
            k = 1 + 4 * i  # unit i's weight among the op's inputs
            g, grads[k] = _correlate_adjoint(a, weight.data, pads[i], gz,
                                             (any(needs[:k]), needs[k]))
            grads[k + 1:k + 4] = gz.sum(axis=_AXES) if needs[k + 1] else None, g_gamma, g_beta
            del gz
            if g is None:  # no earlier unit or input wants a gradient
                break
        grads[0] = g
        return grads

    return op(a, (x, *(t for unit in units for t in unit[:4])), vjp)


def relu(x) -> Tensor:
    """max(x, 0); NaN stays NaN, so a non-finite forward reaches the loss."""
    x = as_tensor(x)
    out = np.maximum(x.data, np.zeros((), dtype=x.data.dtype))
    # out > 0 selects the same entries as x > 0, NaN included
    return op(out, (x,), lambda g, needs: (g * (out > 0),))


def concat_channels(a, b) -> Tensor:
    """`a` and `b` stacked along channels.

    The backward gives `a` a view of the cotangent and `b` a copy of its
    half: in the networks `b` is the skip, whose gradient waits for the
    encoder's adjoint, and a view would keep both halves alive until then
    (at PDc's level 0 on a 32x128x128 cube, 8 MiB through the deeper
    backward)."""
    a, b = as_tensor(a), as_tensor(b)
    _check_5d(a, "concat lhs")
    _check_5d(b, "concat rhs")
    sa, sb = a.data.shape, b.data.shape
    if sa[0] != sb[0] or sa[2:] != sb[2:]:
        raise ShapeMismatchError(f"concat_channels batch/spatial mismatch: {sa} vs {sb}")
    split = sa[1]
    return op(np.concatenate([a.data, b.data], axis=1), (a, b),
              lambda g, needs: (g[:, :split], g[:, split:].copy()))


def hard_shrink_layer(x, threshold: float) -> Tensor:
    """`hard_shrink_array` as a layer: zero where |x| <= threshold, identity
    outside, so NaN passes through as it does in `relu`.

    Gradient passes through kept coefficients and is zero elsewhere; the
    adjoint keeps that boolean mask, not the output, and the mask is built
    only when a tape records the op."""
    x = as_tensor(x)
    out = hard_shrink_array(x.data, threshold)
    # threshold >= 0, so out != 0 selects exactly |x| > threshold, NaN included
    kept = out != 0 if active_tape() is not None else None
    return op(out, (x,), lambda g, needs: (g * kept,))


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
    The count runs, and is returned, in the narrowest unsigned integer type
    that holds it: uint8 for up to 256 entries."""
    top = stack.max(axis=0)
    idx = np.zeros(top.shape, dtype=np.min_scalar_type(len(stack) - 1))
    seen = np.zeros(top.shape, dtype=bool)
    hit = np.empty(top.shape, dtype=bool)
    for entry in stack[:-1]:
        seen |= np.equal(entry, top, out=hit)
        seen |= np.isnan(entry, out=hit)
        idx += np.logical_not(seen, out=hit)
    return idx


def _place(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Each value written at its block's phase `indices`, zeros elsewhere."""
    phases = np.zeros((8,) + values.shape, dtype=values.dtype)
    np.put_along_axis(phases, indices[None], values[None], axis=0)
    return _inverse3(phases, _PHASES)


def maxpool2_with_indices(x) -> tuple[Tensor, np.ndarray]:
    """2x2x2 max-pool with stride 2; indices are each block's lazy-wavelet
    phase (0..7) of its first maximum, NaN counting as the maximum, as
    uint8."""
    x = as_tensor(x)
    _check_5d(x)
    _check_even_spatial(x, "maxpool2")
    phases = _forward3(x.data, _PHASES)
    indices = first_max(phases)
    result = op(np.take_along_axis(phases, indices[None], axis=0)[0], (x,),
                lambda g, needs: (_place(g, indices),))
    return result, indices


def maxunpool2(x, indices: np.ndarray) -> Tensor:
    """Scatter pooled values back to their argmax positions, zeros elsewhere."""
    x = as_tensor(x)
    _check_5d(x)
    if x.data.shape != indices.shape:
        raise ShapeMismatchError(
            f"maxunpool2 values/indices mismatch: {x.data.shape} vs {indices.shape}")
    return op(_place(x.data, indices), (x,), lambda g, needs: (
        np.take_along_axis(_forward3(g, _PHASES), indices[None], axis=0)[0],))


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

    def vjp(g, needs):
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
    (7*B, C, z, y, x).  One analysis gives both, recorded as two ops.
    Backward is the exact adjoint, synthesis with the decomposition filters
    (equal to the inverse for orthogonal banks): `low`'s with the low-pass
    filter alone, `highs`' with the low band absent.

    `low` is a copy and `highs` a view of the analysis, and neither adjoint
    keeps more than a shape, so the seven high subbands are freed once the
    caller drops `highs` (in DIDn, once they are shrunk)."""
    x = as_tensor(x)
    _check_5d(x)
    _check_even_spatial(x, "dwt_layer")
    s = _forward3(x.data, (bank.lo_dec, bank.hi_dec))
    sub_shape = s[1:].shape
    low = op(s[0].copy(), (x,), lambda g, needs: (_inverse3((g,), (bank.lo_dec,)),))
    highs = op(s[1:].reshape((-1,) + s.shape[2:]), (x,), lambda g, needs: (_inverse3(
        [None, *g.reshape(sub_shape)], (bank.lo_dec, bank.hi_dec)),))
    return low, highs


def dwt_low_layer(x, bank: FilterBank) -> Tensor:
    """`dwt_layer`'s `low` alone, from the low-pass filter only: no high subband
    is computed or kept.  Backward is synthesis with that filter alone."""
    x = as_tensor(x)
    _check_5d(x)
    _check_even_spatial(x, "dwt_low_layer")
    return op(_forward3(x.data, (bank.lo_dec,))[0], (x,),
              lambda g, needs: (_inverse3((g,), (bank.lo_dec,)),))


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

    def vjp(g, needs):
        gsub = _forward3(g, (bank.lo_rec, bank.hi_rec))
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
              lambda g, needs: (g * c,))
