import threading

import numpy as np
import pytest

from wavecube.errors import (
    ChannelMismatchError,
    OddExtentError,
    ShapeMismatchError,
    TapeConsumedError,
)
from wavecube.filters import builtin_bank
from wavecube.nn import (
    GradientTape,
    Tensor,
    backward,
    batchnorm,
    concat_channels,
    conv3,
    deconv3,
    dwt_layer,
    hard_shrink_layer,
    idwt_layer,
    interpolate2,
    load_state,
    maxpool2_with_indices,
    maxunpool2,
    relu,
    save_state,
    sconv2,
    tensor_add,
    tensor_dot,
    tensor_sum,
)
from wavecube.transform import _forward3, _inverse3

rng = np.random.default_rng(20)


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
@pytest.mark.parametrize("ci,co,k,padding", [(1, 4, 3, 1), (3, 2, 1, 0), (5, 1, 3, 1)])
def test_conv3_parameter_gradients_and_forward(ci, co, k, padding, stride):
    local = np.random.default_rng(100 * ci + 10 * co + stride)
    x = Tensor(local.standard_normal((2, ci, 4, 6, 8)), dtype=np.float64)
    w0 = local.standard_normal((co, ci, k, k, k))
    b0 = local.standard_normal(co)

    out = conv3(x, Tensor(w0), Tensor(b0), stride=stride, padding=padding)
    want = conv3_reference(x.data, w0, b0, stride, padding)
    assert out.data.shape == want.shape
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)

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


def test_dwt_layer_low_gradient_is_constant_for_sum_loss():
    # d/dx sum(low) distributes the per-voxel synthesis weight; for haar every
    # voxel contributes with total weight sum(f_lll) = 1/(2*sqrt(2)) * 8 per
    # coarse cell, i.e. the gradient is the constant 1/(2*sqrt(2)).
    bank = builtin_bank("haar")
    x = Tensor(rng.standard_normal((1, 1, 4, 4, 4)), requires_grad=True,
               dtype=np.float64)
    with GradientTape() as tape:
        low, _ = dwt_layer(x, bank)
        loss = tensor_sum(low)
    backward(tape, loss)
    np.testing.assert_allclose(x.grad, 1 / (2 * np.sqrt(2)), atol=1e-12)


def test_hard_shrink_gradient_mask():
    lam = 0.25
    x0 = np.array([-0.6, -0.26, -0.1, 0.0, 0.1, 0.26, 0.6]).reshape(1, 1, 1, 1, 7)
    x = Tensor(x0, requires_grad=True, dtype=np.float64)
    with GradientTape() as tape:
        loss = tensor_sum(hard_shrink_layer(x, lam))
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
    with GradientTape() as tape:
        low, highs = dwt_layer(x, bank)
        loss = tensor_add(tensor_dot(low, y[0]),
                          tensor_dot(highs, y[1:].reshape(7, 2, 4, 4, 4)))
    backward(tape, loss)
    lhs = float(loss.data)
    adj = _inverse3(y, bank.lo_dec, bank.hi_dec)
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
    expect = _forward3(probe, bank.lo_rec, bank.hi_rec)
    np.testing.assert_allclose(low.grad, expect[0], atol=1e-10)
    np.testing.assert_allclose(highs.grad, expect[1:].reshape(highs.shape), atol=1e-10)


# -- tape semantics ------------------------------------------------------------

def test_sum_gradient_is_ones():
    x = Tensor(rng.standard_normal((1, 1, 2, 2, 2)), requires_grad=True,
               dtype=np.float64)
    with GradientTape() as tape:
        loss = tensor_sum(x)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_relu_dead_region_gradient_zero():
    x = Tensor(-np.abs(rng.standard_normal((1, 1, 2, 2, 2))) - 0.1,
               requires_grad=True, dtype=np.float64)
    with GradientTape() as tape:
        loss = tensor_sum(relu(x))
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.zeros_like(x.data))


def test_backward_twice_raises():
    x = Tensor(np.ones((1, 1, 2, 2, 2)), requires_grad=True)
    with GradientTape() as tape:
        loss = tensor_sum(x)
    backward(tape, loss)
    with pytest.raises(TapeConsumedError):
        backward(tape, loss)


def test_unused_parameters_get_zero_gradient():
    used = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(4), requires_grad=True)
    x = Tensor(np.ones((1, 1, 2, 2, 2)), requires_grad=True)
    with GradientTape() as tape:
        loss = tensor_sum(x)
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


def test_checkpoint_truncated(tmp_path):
    state = {"w": np.ones(8, dtype=np.float32)}
    path = tmp_path / "net.ckpt"
    save_state(path, state)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    from wavecube.errors import TruncatedPayloadError
    with pytest.raises(TruncatedPayloadError):
        load_state(path)
