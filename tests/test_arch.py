import inspect
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from wavecube.arch import (
    DUAL_STRUCTURES,
    Network,
    NetworkSpec,
    build,
    count_parameters,
    describe,
    format_description,
    paper_spec,
)
from wavecube.errors import IndivisibleExtentError
from wavecube.nn import GradientTape, backward
from wavecube.nn import functional as F
from wavecube.nn.layers import ConvBNReLU
from wavecube.train import weighted_cross_entropy

WAVELET_KINDS = ("DDc", "DIn", "DI", "DIDn")
PLAIN_KINDS = ("PU", "PDc", "ScIn")


def test_spec_wavelet_rules():
    with pytest.raises(ValueError):
        NetworkSpec(dual_structure="DI")  # wavelet required
    with pytest.raises(ValueError):
        NetworkSpec(dual_structure="PU", wavelet="haar")  # no wavelet allowed
    with pytest.raises(ValueError):
        NetworkSpec(dual_structure="XX")


def test_spec_rejects_negative_shrink_threshold():
    # as ShrinkConfig does; hard_shrink_layer's gradient mask relies on it
    with pytest.raises(ValueError, match="shrink_threshold"):
        NetworkSpec("DIDn", "haar", shrink_threshold=-1.0)


@pytest.mark.parametrize("threshold", [float("inf"), float("nan")])
def test_spec_rejects_non_finite_shrink_threshold(threshold):
    with pytest.raises(ValueError, match="shrink_threshold"):
        NetworkSpec("DIDn", "haar", shrink_threshold=threshold)


@pytest.mark.parametrize("classes", [1, 0, -1])
def test_spec_rejects_fewer_than_two_classes(classes):
    # classes=1 used to build a one-logit head that the two-weight loss
    # cannot train, and classes=0 failed only in the first forward
    with pytest.raises(ValueError, match=f"classes must be at least 2, got {classes}"):
        NetworkSpec("PU", classes=classes)
    assert count_parameters(NetworkSpec("PU", classes=2)) > 0


@pytest.mark.parametrize("levels", [0, -1])
def test_spec_rejects_fewer_than_one_level(levels):
    # levels=0 with empty schedules used to construct and fail in build
    with pytest.raises(ValueError, match=f"levels must be at least 1, got {levels}"):
        NetworkSpec("PU", levels=levels, encoder_channels=(), decoder_channels=())


def test_spec_rejects_encoder_pairs_that_do_not_chain():
    # level 2's first conv would expect 5 channels where level 1 gives 4
    with pytest.raises(ValueError, match="level 2: encoder input channels 5"):
        NetworkSpec("PU", encoder_channels=((1, 4), (5, 8), (8, 16), (16, 32)))
    with pytest.raises(ValueError, match="level 2: encoder input channels 5"):
        count_parameters(NetworkSpec("PU", encoder_channels=((1, 4), (5, 8), (8, 16), (16, 32))))


@pytest.mark.parametrize("field, value", [
    ("bottom_channels", (32,)),
    ("bottom_channels", (32, 32, 32)),
    ("bottom_channels", 32),
    ("encoder_channels", ((1, 0), (0, 8), (8, 16), (16, 32))),
    ("decoder_channels", ((32, 16), (16, 8), (8, 0), (0, 4))),
])
def test_spec_rejects_channel_schedules_that_cannot_build(field, value):
    # each used to construct and fail in build, with IndexError, "too many
    # values to unpack", TypeError or ZeroDivisionError
    with pytest.raises(ValueError, match=rf"{field} must hold \(in, out\) pairs of channel "
                                         r"counts >= 1, got"):
        NetworkSpec("PDc", **{field: value})


@pytest.mark.parametrize("kind, wavelet", [("PU", None), ("DI", "haar"), ("DIDn", "haar")])
def test_spec_rejects_reverse_channels_a_payload_cannot_match(kind, wavelet):
    # pooling indices and high subbands carry the forward-process channel
    # count, so the decoder must bring exactly that many back to each level
    with pytest.raises(ValueError, match="level 2: reverse-process channels 12 must equal .* 8"):
        NetworkSpec(kind, wavelet, decoder_channels=((32, 16), (16, 12), (8, 4), (4, 4)))
    # a concatenated skip copy takes any count
    assert count_parameters(NetworkSpec(
        "PDc", decoder_channels=((32, 16), (16, 12), (8, 4), (4, 4)))) > 0


def test_config_text_roundtrip():
    spec = paper_spec("DIDn", "ch4.4")
    again = NetworkSpec.from_config_text(spec.to_config_text())
    assert again == spec
    spec = paper_spec("PU")
    assert NetworkSpec.from_config_text(spec.to_config_text()) == spec
    spec = NetworkSpec(dual_structure="DI", wavelet="db2", levels=3,
                       encoder_channels=((1, 3), (3, 5), (5, 6)), bottom_channels=(7, 6),
                       decoder_channels=((9, 5), (7, 3), (4, 2)), classes=3,
                       shrink_threshold=0.1)
    assert NetworkSpec.from_config_text(spec.to_config_text()) == spec


@pytest.mark.parametrize("text, message", [
    ("wavelet=haar\n", "no dual_structure"),
    ("dual_structure=PU\nencoder_channel=1,4;4,8;8,16;16,32\n", "encoder_channel"),
])
def test_config_text_rejects_missing_and_unknown_keys(text, message):
    with pytest.raises(ValueError, match=message):
        NetworkSpec.from_config_text(text)


@pytest.mark.parametrize("kind", DUAL_STRUCTURES)
def test_shape_roundtrip_all_variants(kind):
    net = build(paper_spec(kind), seed=3)
    x = np.random.default_rng(0).standard_normal((1, 1, 16, 32, 32)).astype(np.float32)
    out = net(x)
    assert out.data.shape == (1, 2, 16, 32, 32)


def test_full_cube_shape():
    net = build(paper_spec("DIDn"), seed=0)
    x = np.zeros((1, 1, 32, 128, 128), dtype=np.float32)
    assert net(x).data.shape == (1, 2, 32, 128, 128)


def test_indivisible_extent_rejected():
    net = build(paper_spec("PU"))
    with pytest.raises(IndivisibleExtentError):
        net(np.zeros((1, 1, 8, 16, 16), dtype=np.float32))
    with pytest.raises(IndivisibleExtentError):
        net(np.zeros((1, 1, 16, 24, 32), dtype=np.float32))


def test_parameter_counts_bracket_published_values():
    di = count_parameters(paper_spec("DI"))
    didn = count_parameters(paper_spec("DIDn"))
    assert 145_000 <= di <= 195_000
    assert didn == di  # the denoising block has no parameters
    for kind in ("PDc", "ScIn", "DDc", "DIn"):
        n = count_parameters(paper_spec(kind))
        assert 170_000 <= n <= 230_000, (kind, n)


def test_pdc_scin_parameter_symmetry():
    # 2x2x2 strided conv mirrors the 2x2x2 deconv parameter-for-parameter
    assert count_parameters(paper_spec("ScIn")) == count_parameters(paper_spec("PDc"))


def test_describe_rows():
    rows = describe(paper_spec("PU"))
    assert rows[0].detail.startswith("conv 1->4, 3x3x3")
    assert rows[-1].path == "head"
    assert "1x1x1" in rows[-1].detail and "4->2" in rows[-1].detail
    assert sum(r.count for r in rows) == count_parameters(paper_spec("PU"))
    text = format_description(paper_spec("DIDn", "haar"))
    assert "total" in text


@pytest.mark.parametrize("kind", DUAL_STRUCTURES)
def test_describe_rows_every_structure(kind):
    spec = paper_spec(kind)
    rows = {r.path: r for r in describe(spec)}
    assert sum(r.count for r in rows.values()) == count_parameters(spec)
    levels = ("1", "2", "3", "4")
    assert all(f"enc{i}.block2" in rows and f"dec{i}.block1" in rows for i in levels)
    assert all((f"down{i}" in rows) == (kind == "ScIn") for i in levels)
    assert all((f"up{i}" in rows) == (kind in ("PDc", "DDc")) for i in levels)
    if kind == "ScIn":
        assert rows["down1"].detail == "strided conv 4->4, 2x2x2 kernel, stride 2"
        assert rows["down1"].count == 4 * 4 * 8 + 4
    if kind in ("PDc", "DDc"):
        assert rows["up1"].detail == "deconv 4->4, 2x2x2 kernel, stride 2"
        assert rows["up4"].detail == "deconv 32->32, 2x2x2 kernel, stride 2"
    assert rows["dec1.block1"].detail.startswith(
        "conv 8->4," if kind in ("PDc", "ScIn", "DDc", "DIn") else "conv 4->4,")


def test_zero_parameters_give_bias_logits():
    spec = paper_spec("DI", "haar")
    net = build(spec, seed=0)
    for _, t in net.named_parameters():
        t.data[...] = 0.0
    net.head.bias.data[:] = (0.75, -1.5)
    out = net(np.random.default_rng(1).standard_normal((1, 1, 16, 16, 16)).astype(np.float32))
    np.testing.assert_allclose(out.data[0, 0], 0.75, atol=1e-6)
    np.testing.assert_allclose(out.data[0, 1], -1.5, atol=1e-6)


def test_forward_determinism():
    net = build(paper_spec("DDc", "db2"), seed=7)
    _randomize_head(net, seed=4)
    x = np.random.default_rng(2).standard_normal((1, 1, 16, 16, 16)).astype(np.float32)
    a = net(x).data
    b = net(x).data
    assert a.std() > 0  # nontrivial logits
    assert a.tobytes() == b.tobytes()


def _randomize_head(net, seed=0):
    # the head is zero-initialized by default, which would make these
    # structural comparisons vacuous (all outputs equal the bias)
    head_rng = np.random.default_rng(seed)
    net.head.weight.data[...] = head_rng.standard_normal(
        net.head.weight.data.shape).astype(net.head.weight.data.dtype)


def _draw_bn_buffers(net, local):
    # the initial buffers (mean 0, var 1) make eval BN nearly an identity
    for path, buf in net.named_buffers():
        buf[...] = (local.normal(0.0, 0.2, buf.shape) if path.endswith("mean")
                    else local.uniform(0.5, 1.5, buf.shape))


def test_didn_with_zero_threshold_equals_di():
    x = np.random.default_rng(3).standard_normal((1, 1, 16, 16, 16)).astype(np.float32)
    di = build(paper_spec("DI", "haar"), seed=11)
    _randomize_head(di)
    didn = build(NetworkSpec(dual_structure="DIDn", wavelet="haar",
                             shrink_threshold=0.0), seed=11)
    didn.load_state_dict(di.state_dict())
    a = di(x).data
    b = didn(x).data
    assert np.max(np.abs(a - b)) < 1e-6


def test_didn_differs_from_di_at_default_threshold():
    x = np.random.default_rng(3).standard_normal((1, 1, 16, 16, 16)).astype(np.float32)
    di = build(paper_spec("DI", "haar"), seed=11)
    _randomize_head(di)
    didn = build(paper_spec("DIDn", "haar"), seed=11)
    didn.load_state_dict(di.state_dict())
    assert np.max(np.abs(di(x).data - didn(x).data)) > 1e-6


def test_channel_wiring_highs_match_decoder():
    # DI/DIDn: stored high-frequency channels equal decoder mainstream
    # channels entering IDWT at every level (32/16/8/4), checked at build
    state = build(paper_spec("DIDn")).state_dict()
    below = [state[f"dec{i}.block1.conv.weight"].shape[1] for i in range(1, 5)]
    assert below == [4, 8, 16, 32]
    with pytest.raises(ValueError):
        build(NetworkSpec(dual_structure="DI", wavelet="haar",
                          decoder_channels=((32, 12), (16, 8), (8, 4), (4, 4))))


def test_state_dict_roundtrip_through_checkpoint(tmp_path):
    from wavecube.nn import load_state, save_state
    net = build(paper_spec("DIn", "ch2.2"), seed=5)
    _randomize_head(net, seed=6)
    path = tmp_path / "didn.ckpt"
    save_state(path, net.state_dict(), {"arch": "DIn"})
    state, meta = load_state(path)
    net2 = build(paper_spec("DIn", "ch2.2"), seed=99)
    net2.load_state_dict(state)
    x = np.random.default_rng(0).standard_normal((1, 1, 16, 16, 16)).astype(np.float32)
    assert net(x).data.tobytes() == net2(x).data.tobytes()


def test_load_state_dict_rejects_partial_state():
    net = build(paper_spec("DIDn", "haar"), seed=5)
    state = net.state_dict()
    partial = {k: state[k] for k in ("head.weight", "head.bias", "enc1.block1.bn.running_mean")}
    before = net.head.bias.data.copy()
    with pytest.raises(KeyError) as err:
        net.load_state_dict({k: v + 1 for k, v in partial.items()})
    assert "enc1.block1.conv.weight" in str(err.value)
    assert "dec4.block2.bn.running_var" in str(err.value)
    np.testing.assert_array_equal(net.head.bias.data, before)


def test_load_state_dict_rejects_scalar_buffer():
    net = build(paper_spec("DIDn", "haar"), seed=5)
    state = dict(net.state_dict())
    state["enc1.block1.bn.running_mean"] = np.float32(3.0)
    with pytest.raises(ValueError, match="running_mean"):
        net.load_state_dict(state)
    np.testing.assert_array_equal(dict(net.named_buffers())["enc1.block1.bn.running_mean"], 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_state_dict_rejects_non_finite_entries(bad):
    net = build(paper_spec("PU"), seed=5)
    state = {k: v.copy() for k, v in net.state_dict().items()}
    state["head.bias"] += 1
    state["enc1.block1.conv.weight"][0, 0, 1, 1, 1] = bad
    before = net.head.bias.data.copy()
    with pytest.raises(ValueError, match="non-finite entries in 'enc1.block1.conv.weight'"):
        net.load_state_dict(state)
    np.testing.assert_array_equal(net.head.bias.data, before)


def test_conv_bn_relu_unit_records_once():
    unit = ConvBNReLU(2, 3, np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((2, 2, 4, 4, 4)).astype(np.float32)
    for training in (True, False):
        with GradientTape() as tape:
            F.conv_bn_relu(x, [unit.unit()], training)
        assert len(tape) == 1


@pytest.mark.parametrize("kind,wavelet,shape,records", [
    ("DIDn", "haar", (4, 1, 16, 64, 64), 27),
    ("PU", None, (1, 1, 16, 32, 32), 19),
    ("ScIn", None, (1, 1, 16, 32, 32), 23),
    ("DIn", "haar", (1, 1, 16, 32, 32), 23),
    ("PDc", None, (1, 1, 16, 32, 32), 23),
    ("DDc", "haar", (1, 1, 16, 32, 32), 23),
    ("DI", "haar", (1, 1, 16, 32, 32), 23),
    ("DIDn", "haar", (1, 1, 16, 32, 32), 27),
])
def test_tape_records_per_training_step(kind, wavelet, shape, records):
    # each of the 9 levels (4 encoder, the bottom, 4 decoder) records its
    # two conv-BN-ReLU units as one op; the rest is resampling, the head
    # and the loss, with each `dwt_layer` recording `low` and `highs` apart
    net = build(paper_spec(kind, wavelet), seed=3)
    local = np.random.default_rng(4)
    x = local.standard_normal(shape).astype(np.float32)
    labels = local.integers(0, 2, (shape[0],) + shape[2:])
    with GradientTape() as tape:
        weighted_cross_entropy(net(x, training=True), labels, (1.0, 1.0))
    assert len(tape) == records


def _step_memory(kind, wavelet, shape):
    """tracemalloc bytes of one training step after a warm-up, relative to
    the start of the step: (held after the forward, peak of the backward,
    held after the backward with the tape still referenced, bytes of the
    logits and parameter gradients that legitimately stay)."""
    net = build(paper_spec(kind, wavelet), seed=3)
    local = np.random.default_rng(4)
    x = local.standard_normal(shape).astype(np.float32)
    labels = local.integers(0, 2, (shape[0],) + shape[2:])

    def forward():
        net.zero_grad()
        with GradientTape() as tape:
            logits = net(x, training=True)
            loss = weighted_cross_entropy(logits, labels, (1.0, 5.0))
        return tape, logits, loss

    tape, _, loss = forward()
    backward(tape, loss, net.parameters())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape, logits, loss = forward()
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(tape, loss, net.parameters())
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = logits.data.nbytes + sum(p.grad.nbytes for p in net.parameters())
    return held, peak - base, after - base, kept


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc is already in use")
@pytest.mark.parametrize("kind,wavelet,shape", [
    ("PU", None, (1, 1, 16, 32, 32)),
    ("DIDn", "haar", (2, 1, 16, 32, 32)),
])
def test_training_step_backward_frees_the_tape_as_it_walks(kind, wavelet, shape):
    # the backward releases each record's saved arrays and each non-leaf
    # gradient once it is consumed, so its peak stays near what the forward
    # holds (the whole tape would more than double it), and after it only
    # the logits and the parameter gradients remain
    held, peak, after, kept = _step_memory(kind, wavelet, shape)
    assert peak <= 1.75 * held, (peak, held)
    assert after <= kept + (1 << 18), (after, kept)


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory `a` views."""
    while a.base is not None:
        a = a.base
    return a


def _inputs_alive_after_forward(monkeypatch, kind, wavelet, shape, name):
    """Run one training forward and loss of `kind` under a tape, with the
    functional op `name` spied on, and return, per call of `name`, whether
    the memory of its first input is still alive once the forward has
    returned (the tape, logits and loss still held); then run the backward
    and check that it delivers finite gradients."""
    refs = []
    fn = getattr(F, name)

    def spy(x, *args):
        refs.append(weakref.ref(_owner(x.data)))
        return fn(x, *args)

    monkeypatch.setattr(F, name, spy)
    net = build(paper_spec(kind, wavelet), seed=3)
    local = np.random.default_rng(4)
    x = local.standard_normal(shape).astype(np.float32)
    labels = local.integers(0, 2, (shape[0],) + shape[2:])
    with GradientTape() as tape:
        logits = net(x, training=True)
        loss = weighted_cross_entropy(logits, labels, (1.0, 5.0))
    alive = [ref() is not None for ref in refs]
    backward(tape, loss, net.parameters())
    assert all(np.isfinite(p.grad).all() for p in net.parameters())
    return alive


def test_pu_pool_inputs_die_with_the_forward(monkeypatch):
    # the pool's vjp keeps only its indices, and the block-2 unit that feeds
    # it recomputes its ReLU mask, so neither the tape nor an adjoint keeps
    # the full-resolution block output
    alive = _inputs_alive_after_forward(monkeypatch, "PU", None, (1, 1, 16, 32, 32),
                                        "maxpool2_with_indices")
    assert alive == [False] * 4


def test_block1_outputs_die_with_the_forward(monkeypatch):
    # a level's op keeps block 1's xhat, from which its backward rebuilds
    # block 1's output, so neither the tape nor an adjoint keeps that output;
    # of the block-2 outputs only the last, the head conv's input, stays
    refs = []
    batchnorm_ = F._batchnorm_

    def spy(*args):
        out = batchnorm_(*args)
        refs.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(F, "_batchnorm_", spy)
    net = build(paper_spec("PU"), seed=3)
    local = np.random.default_rng(4)
    x = local.standard_normal((1, 1, 16, 32, 32)).astype(np.float32)
    labels = local.integers(0, 2, (1, 16, 32, 32))
    with GradientTape() as tape:
        logits = net(x, training=True)
        loss = weighted_cross_entropy(logits, labels, (1.0, 5.0))
    alive = [ref() is not None for ref in refs]
    assert alive == [False] * 17 + [True]
    backward(tape, loss, net.parameters())
    assert all(np.isfinite(p.grad).all() for p in net.parameters())


def test_tapeless_eval_frees_a_decoder_level_input_after_block_1(monkeypatch):
    # without a tape nothing reads a level's input once block 1's conv has
    # run; at the decoder levels the forward hands the up-sampled input over
    # to the op, so it is freed there, while the forward itself holds the
    # encoder and bottom inputs
    chains, dead = [], []
    chain, correlate = F.conv_bn_relu, F._correlate

    def spy_chain(x, units, training):
        chains.append([weakref.ref(_owner(x.data)), 0])
        held = [x]
        del x
        return chain(held.pop(), units, training)

    def spy_correlate(*args):
        ref, calls = chains[-1]
        if calls == 1:
            dead.append(ref() is None)
        chains[-1][1] += 1
        return correlate(*args)

    monkeypatch.setattr(F, "conv_bn_relu", spy_chain)
    monkeypatch.setattr(F, "_correlate", spy_correlate)
    net = build(paper_spec("PU"), seed=3)
    net(np.random.default_rng(4).standard_normal((1, 1, 16, 32, 32)).astype(np.float32))
    assert dead == [False] * 5 + [True] * 4


def test_didn_unshrunk_highs_die_with_the_forward(monkeypatch):
    # `low` is a copy of the analysis' lll band and the highs' vjp keeps a
    # shape, so the seven unshrunk subbands go once they are shrunk
    alive = _inputs_alive_after_forward(monkeypatch, "DIDn", "haar", (2, 1, 16, 32, 32),
                                        "hard_shrink_layer")
    assert alive == [False] * 4


def test_network_wiring_names_no_structure():
    # every per-structure decision is read from the structure table, and
    # every layer describes itself
    for code in (Network.__init__, Network.forward, describe):
        source = inspect.getsource(code)
        named = set(re.findall(r"[\"'](\w+)[\"']", source)) & set(DUAL_STRUCTURES)
        assert not named, f"{code.__qualname__} names {sorted(named)}"
        assert "isinstance" not in source, code.__qualname__


def test_eval_forward_reads_bn_buffers_loaded_after_an_earlier_forward():
    net = build(paper_spec("DIDn", "haar"), seed=5)
    _randomize_head(net, seed=6)
    x = np.random.default_rng(7).standard_normal((1, 1, 16, 16, 16)).astype(np.float32)
    before = net(x).data
    state = dict(net.state_dict())
    state["enc1.block1.bn.running_mean"] = state["enc1.block1.bn.running_mean"] + 0.5
    state["dec4.block2.bn.running_var"] = state["dec4.block2.bn.running_var"] * 3.0
    net.load_state_dict(state)
    fresh = build(paper_spec("DIDn", "haar"), seed=99)
    fresh.load_state_dict(state)
    after = net(x).data
    assert not np.allclose(after, before)
    assert after.tobytes() == fresh(x).data.tobytes()


def test_eval_logits_under_a_tape_match_the_tapeless_forward():
    # without a tape eval folds BN into each conv; under a tape it
    # normalizes the unfolded conv output, so the logits differ by float32
    # rounding only
    net = build(paper_spec("DIDn", "haar"), seed=15)
    local = np.random.default_rng(16)
    _randomize_head(net, seed=17)
    _draw_bn_buffers(net, local)
    x = local.standard_normal((1, 1, 16, 16, 16)).astype(np.float32)
    folded = net(x).data
    with GradientTape() as tape:
        taped = net(x).data
    assert len(tape) > 0 and folded.std() > 0
    np.testing.assert_allclose(taped, folded, rtol=1e-5, atol=1e-5 * np.abs(folded).max())


def _loss_and_grads(kind):
    net = build(paper_spec(kind, "db2"), seed=8, dtype=np.float64)
    local = np.random.default_rng(9)
    x = local.standard_normal((2, 1, 16, 16, 16))
    labels = local.integers(0, 2, (2, 16, 16, 16))
    with GradientTape() as tape:
        loss = weighted_cross_entropy(net(x, training=True), labels, (1.0, 3.0))
    records = len(tape)
    backward(tape, loss, net.parameters())
    return float(loss.data), {p: t.grad for p, t in net.named_parameters()}, records


@pytest.mark.parametrize("kind", ["DDc", "DIn"])
def test_low_pass_branch_matches_full_dwt_and_keeps_no_highs(kind, monkeypatch):
    loss, grads, records = _loss_and_grads(kind)
    monkeypatch.setattr(F, "dwt_low_layer", lambda h, bank: F.dwt_layer(h, bank)[0])
    want_loss, want_grads, want_records = _loss_and_grads(kind)
    # the full DWT puts one `highs` record more on the tape at each of the
    # four levels
    assert want_records == records + 4
    assert abs(loss - want_loss) <= 1e-12
    for path, g in want_grads.items():
        np.testing.assert_allclose(grads[path], g, rtol=0, atol=1e-12, err_msg=path)


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("kind", ["ScIn", "PDc", "DDc"])
def test_resampling_conv_networks_match_finite_differences(kind, training):
    # criterion 3 covers DIDn; these three down-sample with the strided conv
    # (ScIn) or up-sample with the transposed one (PDc, DDc).  Eval mode reads
    # drawn BN buffers, so folding BN into the conv is no identity.
    net = build(paper_spec(kind, "haar" if kind == "DDc" else None), seed=12,
                dtype=np.float64)
    local = np.random.default_rng(13)
    _randomize_head(net, seed=14)
    _draw_bn_buffers(net, local)
    x = local.standard_normal((2, 1, 16, 16, 16))
    labels = local.integers(0, 2, (2, 16, 16, 16))
    params = dict(net.named_parameters())

    def loss_value():
        return weighted_cross_entropy(net(x, training=training), labels, (1.0, 3.0))

    with GradientTape() as tape:
        loss = loss_value()
    backward(tape, loss, params.values())

    resampler = "down1" if kind == "ScIn" else "up1"
    names = [f"{resampler}.weight", f"{resampler}.bias"]
    names += [str(n) for n in local.choice(sorted(params), 8, replace=False)]
    for name in names:
        theta = params[name].data
        idx = tuple(int(local.integers(0, s)) for s in theta.shape)
        orig = theta[idx]
        h = 1e-6 * max(1.0, abs(orig))
        theta[idx] = orig + h
        lp = float(loss_value().data)
        theta[idx] = orig - h
        lm = float(loss_value().data)
        theta[idx] = orig
        fd, got = (lp - lm) / (2 * h), params[name].grad[idx]
        assert abs(got - fd) <= 1e-5 * max(abs(fd), 1e-3), (name, idx, got, fd)
