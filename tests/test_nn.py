import inspect
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavecube.errors import (
    ChannelMismatchError,
    OddExtentError,
    ShapeMismatchError,
    TapeConsumedError,
    TapeMisuseError,
)
from wavecube import train
from wavecube.filters import builtin_bank
from wavecube.nn import (
    GradientTape,
    Tensor,
    backward,
    batchnorm,
    concat_channels,
    conv3,
    conv_bn_relu,
    deconv3,
    dwt_layer,
    dwt_low_layer,
    hard_shrink_layer,
    idwt_layer,
    interpolate2,
    load_state,
    maxpool2_with_indices,
    maxunpool2,
    relu,
    save_state,
    sconv2,
    tensor_dot,
)
from wavecube.nn import functional
from wavecube.nn.autograd import _TAPE_STACK, op
from wavecube.nn.functional import first_max
from wavecube.transform import _forward3, _inverse3

rng = np.random.default_rng(20)


def ones_dot(t):
    """sum(t) as a recorded scalar: `tensor_dot` with a ones probe."""
    return tensor_dot(t, np.ones(t.shape))


def numeric_grad(fn, x0, idxs, h=1e-6):
    """Central finite differences of scalar fn at selected coordinates."""
    out = {}
    for idx in idxs:
        xp = x0.copy(); xp[idx] += h
        xm = x0.copy(); xm[idx] -= h
        out[idx] = (fn(xp) - fn(xm)) / (2 * h)
    return out


def check_input_grad(op, x0, n_probe=8, rel_tol=1e-6):
    """Analytic input gradient of sum-like scalar vs finite differences."""
    probe = rng.standard_normal(op(Tensor(x0, dtype=np.float64)).data.shape)

    def scalar(arr):
        return float(tensor_dot(op(Tensor(arr, dtype=np.float64)), probe).data)

    x = Tensor(x0.copy(), requires_grad=True, dtype=np.float64)
    with GradientTape() as tape:
        loss = tensor_dot(op(x), probe)
    backward(tape, loss)
    idxs = [tuple(rng.integers(0, s) for s in x0.shape) for _ in range(n_probe)]
    fd = numeric_grad(scalar, x0, idxs)
    for idx, want in fd.items():
        got = x.grad[idx]
        assert abs(got - want) <= rel_tol * max(abs(want), 1e-6), (idx, got, want)


# -- per-layer forward anchors -------------------------------------------------

def test_conv3_identity_kernel():
    x = rng.standard_normal((2, 3, 4, 4, 4))
    w = np.zeros((3, 3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1, 1] = 1.0
    out = conv3(Tensor(x), Tensor(w), None)
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_conv3_ones_kernel_interior():
    x = np.ones((1, 1, 5, 5, 5))
    out = conv3(Tensor(x), Tensor(np.ones((1, 1, 3, 3, 3))), None)
    assert out.data[0, 0, 2, 2, 2] == 27.0
    assert out.data[0, 0, 0, 0, 0] == 8.0  # zero padding at the corner


def test_conv3_channel_mismatch():
    with pytest.raises(ChannelMismatchError):
        conv3(Tensor(np.zeros((1, 2, 4, 4, 4))), Tensor(np.zeros((1, 3, 3, 3, 3))))


def test_conv3_stride2_odd_extent():
    with pytest.raises(OddExtentError):
        conv3(Tensor(np.zeros((1, 1, 5, 4, 4))), Tensor(np.zeros((1, 1, 3, 3, 3))),
              stride=2)


def test_conv3_stride2_halves():
    out = conv3(Tensor(np.zeros((1, 1, 8, 4, 6))), Tensor(np.zeros((2, 1, 3, 3, 3))),
                stride=2)
    assert out.data.shape == (1, 2, 4, 2, 3)


def test_deconv3_one_voxel_block():
    x = np.zeros((1, 1, 2, 2, 2))
    x[0, 0, 1, 0, 1] = 3.0
    out = deconv3(Tensor(x), Tensor(np.ones((1, 1, 2, 2, 2))), None)
    assert out.data.shape == (1, 1, 4, 4, 4)
    block = out.data[0, 0, 2:4, 0:2, 2:4]
    np.testing.assert_array_equal(block, 3.0)
    assert out.data.sum() == pytest.approx(8 * 3.0)


def test_interpolate2_constant_and_ramp():
    const = np.full((1, 1, 4, 4, 4), 2.5)
    np.testing.assert_allclose(interpolate2(Tensor(const)).data, 2.5, atol=1e-12)
    # linear ramp along z: midpoints averaged; closed-form of the documented
    # convention out[2i] = x[i], out[2i+1] = (x[i] + x[i+1])/2, last clamps
    ramp = np.arange(4.0)[None, None, :, None, None] * np.ones((1, 1, 4, 2, 2))
    out = interpolate2(Tensor(ramp)).data[0, 0, :, 0, 0]
    np.testing.assert_allclose(out, [0, 0.5, 1, 1.5, 2, 2.5, 3, 3], atol=1e-12)


def test_maxpool_block_values_and_indices():
    x = np.arange(1.0, 9.0).reshape(1, 1, 2, 2, 2)
    pooled, idx = maxpool2_with_indices(Tensor(x))
    assert pooled.data.shape == (1, 1, 1, 1, 1)
    assert pooled.data[0, 0, 0, 0, 0] == 8.0
    assert idx[0, 0, 0, 0, 0] == 7  # block-local flat position of the max


def test_maxpool_indices_are_block_phases():
    # six 2x2x2 blocks along x; a block's index is the phase 4*dz + 2*dy + dx
    # of its first maximum, NaN counting as the maximum
    x = np.zeros((1, 1, 2, 2, 12))
    for b, (dz, dy, dx) in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]):
        x[0, 0, dz, dy, 2 * b + dx] = 1.0
    # block 4 stays all zero; block 5 holds 9 at phase 0 and NaN at phases 3 and 5
    x[0, 0, 0, 0, 10] = 9.0
    x[0, 0, 0, 1, 11] = np.nan
    x[0, 0, 1, 0, 11] = np.nan
    pooled, idx = maxpool2_with_indices(Tensor(x))
    assert idx.shape == (1, 1, 1, 1, 6) and idx.dtype == np.intp
    np.testing.assert_array_equal(idx.ravel(), [4, 2, 1, 6, 0, 3])
    np.testing.assert_array_equal(pooled.data.ravel(), [1, 1, 1, 1, 0, np.nan])
    # unpooling writes each value at its block's phase and nowhere else
    up = maxunpool2(Tensor(np.full(pooled.shape, 5.0)), idx).data
    expect = np.zeros_like(x)
    for b, k in enumerate(idx.ravel()):
        expect[0, 0, k // 4, k // 2 % 2, 2 * b + k % 2] = 5.0
    np.testing.assert_array_equal(up, expect)


_SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       length=st.integers(1, 8))
def test_first_max_equals_numpy_argmax(data, dtype, length):
    # special values drawn from a small pool, so NaN, +-inf, +-0.0 and ties
    # meet at the same position
    shape = (length,) + data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=5))
    stack = data.draw(hnp.arrays(dtype, shape, elements=st.sampled_from(_SPECIALS)
                                 | st.floats(-2, 2, width=8 * np.dtype(dtype).itemsize)))
    idx = first_max(stack)
    assert idx.dtype == np.intp
    np.testing.assert_array_equal(idx, np.argmax(stack, axis=0))


def test_maxunpool_sparsity():
    x = rng.standard_normal((1, 2, 4, 4, 4))
    pooled, idx = maxpool2_with_indices(Tensor(x))
    up = maxunpool2(pooled, idx)
    blocks = up.data.reshape(1, 2, 2, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 6, 3, 5, 7)
    nonzero_per_block = (blocks.reshape(1, 2, 2, 2, 2, 8) != 0).sum(axis=-1)
    assert nonzero_per_block.max() <= 1


def test_pool_loses_constant_dwt_does_not():
    # comparative: pool/unpool cannot restore a constant, dwt/idwt can
    x = Tensor(np.full((1, 1, 4, 4, 4), 1.0))
    pooled, idx = maxpool2_with_indices(x)
    pool_rec = maxunpool2(pooled, idx).data
    assert np.max(np.abs(pool_rec - 1.0)) > 0.5
    bank = builtin_bank("haar")
    low, highs = dwt_layer(x, bank)
    dwt_rec = idwt_layer(low, highs, bank).data
    np.testing.assert_allclose(dwt_rec, 1.0, atol=1e-6)


def test_maxpool_odd_extent():
    with pytest.raises(OddExtentError):
        maxpool2_with_indices(Tensor(np.zeros((1, 1, 3, 4, 4))))


def test_relu_and_concat():
    assert relu(Tensor(np.array(-2.0).reshape(1, 1, 1, 1, 1))).data.item() == 0.0
    a = Tensor(np.zeros((1, 4, 2, 2, 2)))
    b = Tensor(np.ones((1, 8, 2, 2, 2)))
    assert concat_channels(a, b).data.shape[1] == 12
    with pytest.raises(ShapeMismatchError):
        concat_channels(a, Tensor(np.ones((1, 8, 2, 2, 4))))


def test_relu_keeps_nan():
    out = relu(Tensor(np.array([np.nan, -1.0, 2.0]).reshape(1, 1, 1, 1, 3))).data
    assert np.isnan(out[0, 0, 0, 0, 0])
    np.testing.assert_array_equal(out[0, 0, 0, 0, 1:], [0.0, 2.0])


def test_hard_shrink_layer_keeps_nan():
    x = Tensor(np.array([np.nan, 0.1, -1.0]).reshape(1, 1, 1, 1, 3), requires_grad=True)
    with GradientTape() as tape:
        out = hard_shrink_layer(x, 0.25)
        loss = ones_dot(out)
    assert np.isnan(out.data[0, 0, 0, 0, 0])
    np.testing.assert_array_equal(out.data[0, 0, 0, 0, 1:], [0.0, -1.0])
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad.ravel(), [1.0, 0.0, 1.0])


def test_batchnorm_train_normalizes():
    x = rng.standard_normal((4, 3, 4, 4, 4)) * 3.0 + 7.0
    gamma = Tensor(np.ones(3), dtype=np.float64)
    beta = Tensor(np.zeros(3), dtype=np.float64)
    out = batchnorm(Tensor(x), gamma, beta, np.zeros(3), np.ones(3), training=True).data
    assert np.abs(out.mean(axis=(0, 2, 3, 4))).max() < 1e-4
    assert np.abs(out.var(axis=(0, 2, 3, 4)) - 1.0).max() < 1e-4


def test_dwt_layer_channel_independence():
    bank = builtin_bank("db2")
    x = rng.standard_normal((1, 3, 4, 4, 4))
    perm = [2, 0, 1]
    low_a, _ = dwt_layer(Tensor(x[:, perm]), bank)
    low_b, _ = dwt_layer(Tensor(x), bank)
    np.testing.assert_array_equal(low_a.data, low_b.data[:, perm])


def test_idwt_layer_shape_mismatch():
    bank = builtin_bank("haar")
    low = Tensor(np.zeros((1, 1, 2, 2, 2)))
    for bad in [(7, 1, 2, 2, 4), (6, 1, 2, 2, 2), (1, 7, 2, 2, 2)]:
        with pytest.raises(ShapeMismatchError):
            idwt_layer(low, Tensor(np.zeros(bad)), bank)


# -- finite-difference gradient checks ------------------------------------------

def test_gradients_match_finite_differences():
    x0 = rng.standard_normal((2, 2, 4, 4, 4))
    w = Tensor(rng.standard_normal((3, 2, 3, 3, 3)), dtype=np.float64)
    b = Tensor(rng.standard_normal(3), dtype=np.float64)
    check_input_grad(lambda x: conv3(x, w, b), x0, rel_tol=1e-3)
    check_input_grad(lambda x: conv3(x, w, b, stride=2), x0, rel_tol=1e-3)
    wd = Tensor(rng.standard_normal((2, 3, 2, 2, 2)), dtype=np.float64)
    check_input_grad(lambda x: deconv3(x, wd, b), x0, rel_tol=1e-3)
    ws = Tensor(rng.standard_normal((3, 2, 2, 2, 2)), dtype=np.float64)
    check_input_grad(lambda x: sconv2(x, ws, b), x0, rel_tol=1e-3)
    check_input_grad(interpolate2, x0, rel_tol=1e-3)
    check_input_grad(lambda x: maxpool2_with_indices(x)[0], x0, rel_tol=1e-3)
    g = Tensor(rng.standard_normal(2), dtype=np.float64)
    be = Tensor(rng.standard_normal(2), dtype=np.float64)
    check_input_grad(
        lambda x: batchnorm(x, g, be, np.zeros(2), np.ones(2), training=True),
        x0, rel_tol=1e-3)
    check_input_grad(
        lambda x: batchnorm(x, g, be, np.full(2, 0.3), np.full(2, 2.0), training=False),
        x0, rel_tol=1e-3)
    check_input_grad(lambda x: relu(x), x0 + 0.21, rel_tol=1e-3)
    bank = builtin_bank("db2")
    check_input_grad(lambda x: dwt_layer(x, bank)[0], x0, rel_tol=1e-3)
    check_input_grad(lambda x: dwt_low_layer(x, bank), x0, rel_tol=1e-3)


def conv3_reference(x, w, b, stride, padding):
    """Direct correlation: one window product per output voxel."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0)) + ((padding, padding),) * 3)
    out_sp = [(e + 2 * padding - k) // stride + 1 for e in x.shape[2:]]
    out = np.empty((x.shape[0], w.shape[0], *out_sp))
    for z, y, xx in np.ndindex(*out_sp):
        win = xp[:, :, z * stride:z * stride + k, y * stride:y * stride + k,
                 xx * stride:xx * stride + k]
        out[:, :, z, y, xx] = np.tensordot(win, w, axes=([1, 2, 3, 4], [1, 2, 3, 4])) + b
    return out


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("ci,co,k,padding", [(1, 4, 3, 1), (3, 2, 1, 0), (5, 1, 3, 1),
                                             (2, 3, 2, 0), (2, 2, 3, 0), (2, 2, 3, 2),
                                             (2, 2, 4, 1), (2, 3, 2, 1)])
def test_conv3_parameter_gradients_and_forward(ci, co, k, padding, stride):
    local = np.random.default_rng(100 * ci + 10 * co + stride)
    x = Tensor(local.standard_normal((2, ci, 4, 6, 8)), dtype=np.float64)
    w0 = local.standard_normal((co, ci, k, k, k))
    b0 = local.standard_normal(co)

    out = conv3(x, Tensor(w0), Tensor(b0), stride=stride, padding=padding)
    want = conv3_reference(x.data, w0, b0, stride, padding)
    assert out.data.shape == want.shape
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
    if (k, padding, stride) == (2, 0, 2):  # the strided down-sampling conv
        np.testing.assert_allclose(sconv2(x, Tensor(w0), Tensor(b0)).data, out.data,
                                   rtol=1e-12, atol=1e-12)

    probe = local.standard_normal(want.shape)
    w = Tensor(w0.copy(), requires_grad=True, dtype=np.float64)
    b = Tensor(b0.copy(), requires_grad=True, dtype=np.float64)
    with GradientTape() as tape:
        loss = tensor_dot(conv3(x, w, b, stride=stride, padding=padding), probe)
    backward(tape, loss)

    def scalar_w(arr):
        return float(tensor_dot(conv3(x, Tensor(arr), b, stride=stride,
                                      padding=padding), probe).data)

    def scalar_b(arr):
        return float(tensor_dot(conv3(x, w, Tensor(arr), stride=stride,
                                      padding=padding), probe).data)

    for param, scalar, p0 in ((w, scalar_w, w0), (b, scalar_b, b0)):
        assert param.grad.shape == p0.shape
        fd = numeric_grad(scalar, p0, list(np.ndindex(*p0.shape)))
        for idx, expect in fd.items():
            assert abs(param.grad[idx] - expect) <= 1e-6 * max(abs(expect), 1.0), (
                idx, param.grad[idx], expect)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv3_spanning_several_gather_blocks(stride):
    # 3 channels of 8x20x20 flatten to more output positions than one
    # gathered block holds in float64, so block edges are crossed
    local = np.random.default_rng(7 + stride)
    x0 = local.standard_normal((1, 3, 8, 20, 20))
    w0 = local.standard_normal((2, 3, 3, 3, 3))
    x = Tensor(x0.copy(), requires_grad=True, dtype=np.float64)
    w = Tensor(w0.copy(), requires_grad=True, dtype=np.float64)
    with GradientTape() as tape:
        out = conv3(x, w, stride=stride)
        probe = local.standard_normal(out.data.shape)
        loss = tensor_dot(out, probe)
    backward(tape, loss)
    np.testing.assert_allclose(out.data, conv3_reference(x0, w0, 0.0, stride, 1),
                               rtol=1e-12, atol=1e-12)
    # the loss is linear in x and in w: <grad, argument> equals the loss
    assert float((x.grad * x0).sum()) == pytest.approx(float(loss.data), rel=1e-12)
    assert float((w.grad * w0).sum()) == pytest.approx(float(loss.data), rel=1e-12)


def test_conv3_rejects_padding_outside_kernel():
    x = Tensor(np.zeros((1, 1, 4, 4, 4)))
    for k, padding in ((3, -1), (3, 3), (1, 1), (2, 2)):
        with pytest.raises(ValueError, match="padding"):
            conv3(x, Tensor(np.zeros((1, 1, k, k, k))), padding=padding)


def test_deconv3_is_sconv2_transpose_with_parameter_gradients():
    local = np.random.default_rng(41)
    x0 = local.standard_normal((2, 3, 2, 3, 4))
    w0 = local.standard_normal((3, 2, 2, 2, 2))  # (Ci, Co, 2, 2, 2)
    b0 = local.standard_normal(2)
    g = local.standard_normal((2, 2, 4, 6, 8))
    # <deconv3(x, W), g> == <x, sconv2(g, W)>: the same weight read both ways
    lhs = float((deconv3(Tensor(x0), Tensor(w0), None).data * g).sum())
    rhs = float((x0 * sconv2(Tensor(g), Tensor(w0), None).data).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)

    w = Tensor(w0.copy(), requires_grad=True, dtype=np.float64)
    b = Tensor(b0.copy(), requires_grad=True, dtype=np.float64)
    with GradientTape() as tape:
        loss = tensor_dot(deconv3(Tensor(x0), w, b), g)
    backward(tape, loss)

    def scalar_w(arr):
        return float(tensor_dot(deconv3(Tensor(x0), Tensor(arr), b), g).data)

    def scalar_b(arr):
        return float(tensor_dot(deconv3(Tensor(x0), w, Tensor(arr)), g).data)

    for param, scalar, p0 in ((w, scalar_w, w0), (b, scalar_b, b0)):
        fd = numeric_grad(scalar, p0, list(np.ndindex(*p0.shape)))
        for idx, expect in fd.items():
            assert abs(param.grad[idx] - expect) <= 1e-6 * max(abs(expect), 1.0), (
                idx, param.grad[idx], expect)


# -- fused conv-BN-ReLU ---------------------------------------------------------

CBR_PARAMS = ("weight", "bias", "gamma", "beta")


def cbr_case(seed, dtype=np.float64):
    """Input, parameters, BN buffers and a cotangent probe for a 3 -> 4 unit."""
    local = np.random.default_rng(seed)
    x = local.standard_normal((2, 3, 4, 6, 8)).astype(dtype)
    params = {"weight": 0.3 * local.standard_normal((4, 3, 3, 3, 3)),
              "bias": local.standard_normal(4),
              "gamma": local.uniform(0.5, 1.5, 4),
              "beta": local.normal(0.0, 0.5, 4)}
    params = {k: v.astype(dtype) for k, v in params.items()}
    buffers = (local.normal(0.0, 0.1, 4).astype(dtype), local.uniform(0.5, 1.5, 4).astype(dtype))
    probe = local.standard_normal((2, 4, 4, 6, 8)).astype(dtype)
    return x, params, buffers, probe


def cbr_forward(fused, x, p, buffers, training):
    """The fused op, or the conv3 -> batchnorm -> relu chain it replaces."""
    if fused:
        return conv_bn_relu(x, p["weight"], p["bias"], p["gamma"], p["beta"], *buffers, training)
    return relu(batchnorm(conv3(x, p["weight"], p["bias"]), p["gamma"], p["beta"],
                          *buffers, training))


def cbr_run(fused, training, case):
    """Output, [x, weight, bias, gamma, beta] gradients and updated buffers."""
    x0, p0, buffers0, probe = case
    x = Tensor(x0.copy(), requires_grad=True)
    p = {k: Tensor(v.copy(), requires_grad=True) for k, v in p0.items()}
    buffers = tuple(b.copy() for b in buffers0)
    with GradientTape() as tape:
        out = cbr_forward(fused, x, p, buffers, training)
        loss = tensor_dot(out, probe)
    backward(tape, loss)
    return out.data, [x.grad] + [p[k].grad for k in CBR_PARAMS], list(buffers)


def assert_close_rel(got, want, tol):
    """Largest difference within tol of the largest magnitude."""
    assert got.shape == want.shape and got.dtype == want.dtype
    scale = max(float(np.abs(want).max()), np.finfo(want.dtype).tiny)
    assert float(np.abs(got - want).max()) <= tol * scale


@pytest.mark.parametrize("training,dtype,tol", [(True, np.float64, 1e-12),
                                                (True, np.float32, 1e-6),
                                                (False, np.float64, 1e-12)])
def test_conv_bn_relu_matches_chain(training, dtype, tol):
    case = cbr_case(31, dtype)
    got_out, got_grads, got_bufs = cbr_run(True, training, case)
    want_out, want_grads, want_bufs = cbr_run(False, training, case)
    assert_close_rel(got_out, want_out, tol)
    for got, want in zip(got_grads + got_bufs, want_grads + want_bufs):
        assert_close_rel(got, want, tol)
    if training:  # the update is the same as batchnorm's
        assert not np.array_equal(got_bufs[0], case[2][0])


@pytest.mark.parametrize("training", [True, False])
def test_conv_bn_relu_gradients_match_finite_differences(training):
    x0, p0, buffers0, probe = case = cbr_case(32)
    _, grads, _ = cbr_run(True, training, case)

    def loss(x, p):
        buffers = tuple(b.copy() for b in buffers0)
        out = cbr_forward(True, Tensor(x), {k: Tensor(v) for k, v in p.items()}, buffers,
                          training)
        return float(tensor_dot(out, probe).data)

    local = np.random.default_rng(33)
    x_idxs = [tuple(local.integers(0, s) for s in x0.shape) for _ in range(12)]
    checks = [(grads[0], numeric_grad(lambda a: loss(a, p0), x0, x_idxs))]
    for name, grad in zip(CBR_PARAMS, grads[1:]):
        fd = numeric_grad(lambda a: loss(x0, {**p0, name: a}), p0[name],
                          list(np.ndindex(*p0[name].shape)))
        checks.append((grad, fd))
    for grad, fd in checks:
        for idx, expect in fd.items():
            assert abs(grad[idx] - expect) <= 1e-6 * max(abs(expect), 1.0), (idx, grad[idx], expect)


def test_conv_bn_relu_eval_without_tape_matches_chain():
    x0, p0, buffers, _ = cbr_case(34, np.float32)
    p = {k: Tensor(v) for k, v in p0.items()}
    got = cbr_forward(True, Tensor(x0), p, buffers, False).data
    want = cbr_forward(False, Tensor(x0), p, buffers, False).data
    assert_close_rel(got, want, 1e-6)
    assert (got == 0).any() and (got > 0).any()


@pytest.mark.parametrize("training", [True, False])
def test_conv_bn_relu_keeps_nan(training):
    x0, p0, buffers, _ = cbr_case(35)
    x0[1, 2, 1, 3, 4] = np.nan
    p = {k: Tensor(v) for k, v in p0.items()}
    got = cbr_forward(True, Tensor(x0), p, tuple(b.copy() for b in buffers), training).data
    want = cbr_forward(False, Tensor(x0), p, tuple(b.copy() for b in buffers), training).data
    assert np.isnan(got[1, :, 1, 3, 4]).all()
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))


def test_dwt_layer_low_gradient_is_constant_for_sum_loss():
    # d/dx sum(low) distributes the per-voxel synthesis weight; for haar every
    # voxel contributes with total weight sum(f_lll) = 1/(2*sqrt(2)) * 8 per
    # coarse cell, i.e. the gradient is the constant 1/(2*sqrt(2)).
    bank = builtin_bank("haar")
    x = Tensor(rng.standard_normal((1, 1, 4, 4, 4)), requires_grad=True,
               dtype=np.float64)
    with GradientTape() as tape:
        low, _ = dwt_layer(x, bank)
        loss = ones_dot(low)
    backward(tape, loss)
    np.testing.assert_allclose(x.grad, 1 / (2 * np.sqrt(2)), atol=1e-12)


def test_hard_shrink_gradient_mask():
    lam = 0.25
    x0 = np.array([-0.6, -0.26, -0.1, 0.0, 0.1, 0.26, 0.6]).reshape(1, 1, 1, 1, 7)
    x = Tensor(x0, requires_grad=True, dtype=np.float64)
    with GradientTape() as tape:
        loss = ones_dot(hard_shrink_layer(x, lam))
    backward(tape, loss)
    np.testing.assert_array_equal(
        x.grad.ravel(), [1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize("name", ["haar", "db3", "ch2.2"])
def test_dwt_adjoint_identity(name):
    # <dwt(x), y> == <x, adjoint(y)>, the adjoint being the layer's backward
    bank = builtin_bank(name)
    x_data = rng.standard_normal((1, 2, 8, 8, 8))
    y = rng.standard_normal((8, 1, 2, 4, 4, 4))
    x = Tensor(x_data, requires_grad=True, dtype=np.float64)
    lhs = 0.0
    # one tape per output; x.grad accumulates over the two backwards
    for out, probe in ((0, y[0]), (1, y[1:].reshape(7, 2, 4, 4, 4))):
        with GradientTape() as tape:
            loss = tensor_dot(dwt_layer(x, bank)[out], probe)
        backward(tape, loss)
        lhs += float(loss.data)
    adj = _inverse3(y, (bank.lo_dec, bank.hi_dec))
    rhs = float((x_data * adj).sum())
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)
    np.testing.assert_allclose(x.grad, adj, atol=1e-10)


def test_idwt_adjoint_is_rec_analysis():
    bank = builtin_bank("ch4.4")
    shape = (1, 1, 4, 4, 4)
    low = Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)
    highs = Tensor(rng.standard_normal((7,) + shape[1:]), requires_grad=True,
                   dtype=np.float64)
    probe = rng.standard_normal((1, 1, 8, 8, 8))
    with GradientTape() as tape:
        rec = idwt_layer(low, highs, bank)
        loss = tensor_dot(rec, probe)
    backward(tape, loss)
    expect = _forward3(probe, (bank.lo_rec, bank.hi_rec))
    np.testing.assert_allclose(low.grad, expect[0], atol=1e-10)
    np.testing.assert_allclose(highs.grad, expect[1:].reshape(highs.shape), atol=1e-10)


# -- tape semantics ------------------------------------------------------------

def test_sum_gradient_is_ones():
    x = Tensor(rng.standard_normal((1, 1, 2, 2, 2)), requires_grad=True,
               dtype=np.float64)
    with GradientTape() as tape:
        loss = ones_dot(x)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_relu_dead_region_gradient_zero():
    x = Tensor(-np.abs(rng.standard_normal((1, 1, 2, 2, 2))) - 0.1,
               requires_grad=True, dtype=np.float64)
    with GradientTape() as tape:
        loss = ones_dot(relu(x))
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.zeros_like(x.data))


def test_backward_twice_raises():
    x = Tensor(np.ones((1, 1, 2, 2, 2)), requires_grad=True)
    with GradientTape() as tape:
        loss = ones_dot(x)
    backward(tape, loss)
    with pytest.raises(TapeConsumedError):
        backward(tape, loss)


def test_unused_parameters_get_zero_gradient():
    used = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(4), requires_grad=True)
    x = Tensor(np.ones((1, 1, 2, 2, 2)), requires_grad=True)
    with GradientTape() as tape:
        loss = ones_dot(x)
    backward(tape, loss, parameters=[used, unused])
    np.testing.assert_array_equal(unused.grad, np.zeros(4))


def test_no_tape_means_no_recording():
    x = Tensor(np.ones((1, 1, 2, 2, 2)), requires_grad=True)
    out = relu(x)
    assert out._recorded is False


@pytest.mark.parametrize("first", ["A", "B"])
def test_tape_is_per_thread(first):
    # A opens a tape; B then runs relu with no tape of its own and opens a
    # tape; the two tapes close in either order.
    opened = {n: threading.Event() for n in "AB"}
    closed = {n: threading.Event() for n in "AB"}
    other = {"A": "B", "B": "A"}
    tapes, errors = {}, []

    def run(name):
        try:
            if name == "B":
                assert opened["A"].wait(10)
                relu(Tensor(np.ones((1, 1, 2, 2, 2)), requires_grad=True))
            with GradientTape() as tape:
                tapes[name] = tape
                opened[name].set()
                assert opened[other[name]].wait(10)
                if name != first:
                    assert closed[first].wait(10)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            closed[name].set()

    threads = [threading.Thread(target=run, args=(n,)) for n in "AB"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(tapes["A"]) == 0 and len(tapes["B"]) == 0


def test_tape_closed_in_another_thread_raises_and_keeps_both_stacks():
    tape = GradientTape()
    tape.__enter__()
    seen = []

    def close_here():
        try:
            tape.__exit__(None, None, None)
        except TapeMisuseError:
            seen.append(list(_TAPE_STACK.tapes))

    try:
        worker = threading.Thread(target=close_here)
        worker.start()
        worker.join(timeout=30)
        assert seen == [[]]
        assert _TAPE_STACK.tapes[-1] is tape
    finally:
        tape.__exit__(None, None, None)
    assert tape not in _TAPE_STACK.tapes


def test_nested_tapes_closed_out_of_order_raise_and_keep_the_stack():
    outer, inner = GradientTape(), GradientTape()
    with outer:
        with inner:
            before = list(_TAPE_STACK.tapes)
            with pytest.raises(TapeMisuseError):
                outer.__exit__(None, None, None)
            assert _TAPE_STACK.tapes == before
    assert outer not in _TAPE_STACK.tapes and inner not in _TAPE_STACK.tapes


@pytest.mark.parametrize("shape", [(4, 4), (2, 1), (3, 2)])
def test_wrongly_shaped_cotangent_raises_at_the_tape(shape):
    # the first accumulation into `x` is checked, not only later ones
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with GradientTape() as tape:
        loss = ones_dot(op(2 * x.data, (x,), lambda grads, needs: (np.ones(shape),)))
    with pytest.raises(ShapeMismatchError, match=re.escape(f"{shape}")) as err:
        backward(tape, loss)
    assert "(2, 3)" in str(err.value)
    assert x.grad is None


def test_op_accumulates_needed_cotangents_only():
    a = Tensor(np.ones((1, 1, 2, 2, 2)), requires_grad=True)
    frozen = Tensor(np.ones((1, 1, 2, 2, 2)))
    calls = []

    def vjp(grads, needs):
        calls.append(needs)
        return grads[0], grads[0]

    def unreachable(grads, needs):
        raise AssertionError("vjp called with no input needing a gradient")

    with GradientTape() as tape:
        y = op(a.data + frozen.data, (a, frozen), vjp)
        z = op(2 * frozen.data, (frozen,), unreachable)
        loss = ones_dot(concat_channels(y, z))
    backward(tape, loss)
    assert calls == [(True, False)]
    np.testing.assert_array_equal(a.grad, np.ones_like(a.data))
    assert frozen.grad is None


def test_ops_and_loss_leave_gradient_plumbing_to_the_tape():
    # every op is declared through `autograd.op`, the one place that asks
    # which inputs need a gradient, accumulates and records
    for module in (functional, train):
        calls = re.findall(r"wants_grad\(|\._accumulate\(|\brecord\(", inspect.getsource(module))
        assert calls == [], f"{module.__name__} calls {calls}"


# -- checkpoint container --------------------------------------------------------

def test_checkpoint_bit_exact_roundtrip(tmp_path):
    state = {
        "enc1.conv.weight": rng.standard_normal((4, 1, 3, 3, 3)).astype(np.float32),
        "enc1.bn.running_var": rng.random(4).astype(np.float64),
        "labels": (rng.random(10) < 0.5).astype(np.uint8),
        "steps": np.arange(5, dtype=np.int64),
    }
    path = tmp_path / "net.ckpt"
    save_state(path, state, {"arch": "DIDn", "wavelet": "haar"})
    loaded, meta = load_state(path)
    assert meta == {"arch": "DIDn", "wavelet": "haar"}
    assert set(loaded) == set(state)
    for key in state:
        assert loaded[key].dtype == state[key].dtype
        assert loaded[key].tobytes() == state[key].tobytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE pretend checkpoint")
    from wavecube.errors import BadMagicError
    with pytest.raises(BadMagicError):
        load_state(path)


def test_checkpoint_unknown_dtype_code(tmp_path):
    path = tmp_path / "net.ckpt"
    save_state(path, {"a": np.ones(3, dtype=np.float32)})
    raw = path.read_bytes()
    assert b"a f4 3 12\n" in raw
    path.write_bytes(raw.replace(b"a f4 3 12\n", b"a f2 3 12\n"))
    from wavecube.errors import BadMagicError
    with pytest.raises(BadMagicError, match="unknown dtype code f2"):
        load_state(path)


def test_checkpoint_truncated(tmp_path):
    state = {"w": np.ones(8, dtype=np.float32)}
    path = tmp_path / "net.ckpt"
    save_state(path, state)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    from wavecube.errors import TruncatedPayloadError
    with pytest.raises(TruncatedPayloadError):
        load_state(path)
