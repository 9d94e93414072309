import numpy as np
import pytest

from wavecube.arch import (
    DUAL_STRUCTURES,
    NetworkSpec,
    build,
    count_parameters,
    describe,
    format_description,
    paper_spec,
)
from wavecube.errors import IndivisibleExtentError

WAVELET_KINDS = ("DDc", "DIn", "DI", "DIDn")
PLAIN_KINDS = ("PU", "PDc", "ScIn")


def test_spec_wavelet_rules():
    with pytest.raises(ValueError):
        NetworkSpec(dual_structure="DI")  # wavelet required
    with pytest.raises(ValueError):
        NetworkSpec(dual_structure="PU", wavelet="haar")  # no wavelet allowed
    with pytest.raises(ValueError):
        NetworkSpec(dual_structure="XX")


def test_branch_payload_mapping():
    expect = {"PU": "pool_indices", "PDc": "skip_copy", "ScIn": "skip_copy",
              "DDc": "skip_copy", "DIn": "skip_copy", "DI": "high_frequency",
              "DIDn": "high_frequency_denoised"}
    for kind, payload in expect.items():
        assert paper_spec(kind).branch_payload == payload


def test_config_text_roundtrip():
    spec = paper_spec("DIDn", "ch4.4")
    again = NetworkSpec.from_config_text(spec.to_config_text())
    assert again == spec
    spec = paper_spec("PU")
    assert NetworkSpec.from_config_text(spec.to_config_text()) == spec


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
    net = build(paper_spec("DIDn"))
    assert net._below == [4, 8, 16, 32]
    bad = NetworkSpec(dual_structure="DI", wavelet="haar",
                      decoder_channels=((32, 12), (16, 8), (8, 4), (4, 4)))
    with pytest.raises(ValueError):
        build(bad)


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
    np.testing.assert_array_equal(net.enc[0][0].bn.running_mean, 0.0)
