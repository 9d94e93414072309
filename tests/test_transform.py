import numpy as np
import pytest

from wavecube.errors import (
    OddExtentError,
    ShapeMismatchError,
    TooSmallError,
    WaveletMismatchError,
)
from wavecube.filters import SUBBAND_TAGS, builtin_bank, tensor_filters
from wavecube.transform import (
    ShrinkConfig,
    SubbandSet,
    dwt3,
    hard_shrink,
    hard_shrink_array,
    idwt3,
)

ALL_NAMES = ("haar", "db2", "db3", "db4", "ch2.2", "ch4.4")
HIGH = SUBBAND_TAGS[1:]


def dwt3_direct(x, bank):
    """Independent oracle: triple-loop evaluation of the defining formula
    subband[i,j,k] = sum_{a,b,c} f3d[a,b,c] * x[(2i+a)%d, (2j+b)%m, (2k+c)%n]."""
    d, m, n = x.shape
    out = {}
    for f in tensor_filters(bank, "decomposition"):
        L = f.coefficients.shape[0]
        sub = np.zeros((d // 2, m // 2, n // 2))
        for i in range(d // 2):
            for j in range(m // 2):
                for k in range(n // 2):
                    acc = 0.0
                    for a in range(L):
                        for b in range(L):
                            for c in range(L):
                                acc += f.coefficients[a, b, c] * x[
                                    (2 * i + a) % d, (2 * j + b) % m, (2 * k + c) % n]
                    sub[i, j, k] = acc
        out[f.subband_tag] = sub
    return out


@pytest.mark.parametrize("name", ALL_NAMES)
def test_separable_equals_direct(name):
    bank = builtin_bank(name)
    x = np.random.default_rng(5).standard_normal((4, 4, 4))
    fast = dwt3(x, bank)
    slow = dwt3_direct(x, bank)
    for tag in SUBBAND_TAGS:
        np.testing.assert_allclose(fast[tag], slow[tag], atol=1e-10)


def test_separable_equals_direct_noncubic():
    bank = builtin_bank("db2")
    x = np.random.default_rng(8).standard_normal((6, 8, 10))
    fast = dwt3(x, bank)
    slow = dwt3_direct(x, bank)
    for tag in SUBBAND_TAGS:
        np.testing.assert_allclose(fast[tag], slow[tag], atol=1e-10)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_constant_volume_anchor(name):
    bank = builtin_bank(name)
    s = dwt3(np.ones((8, 8, 8)), bank)
    np.testing.assert_allclose(s["lll"], 2 * np.sqrt(2), atol=1e-12)
    for tag in HIGH:
        np.testing.assert_allclose(s[tag], 0.0, atol=1e-12)


def test_haar_delta_anchor():
    # expected coefficients computed by the direct oracle, then checked
    # against the printed filter entry aligned with voxel (0,0,0)
    bank = builtin_bank("haar")
    x = np.zeros((2, 2, 2))
    x[0, 0, 0] = 1.0
    slow = dwt3_direct(x, bank)
    fast = dwt3(x, bank)
    by_tag = {f.subband_tag: f.coefficients for f in tensor_filters(bank, "decomposition")}
    for tag in SUBBAND_TAGS:
        assert fast[tag].shape == (1, 1, 1)
        np.testing.assert_allclose(fast[tag], slow[tag], atol=1e-12)
        assert abs(abs(fast[tag][0, 0, 0]) - 1 / (2 * np.sqrt(2))) < 1e-12
        # phase-0 correlation: the coefficient is the filter entry at (0,0,0)
        np.testing.assert_allclose(fast[tag][0, 0, 0], by_tag[tag][0, 0, 0], atol=1e-12)


def test_subband_shapes_halve():
    s = dwt3(np.zeros((32, 128, 128), dtype=np.float32), builtin_bank("haar"))
    assert s.shape == (16, 64, 64)
    assert all(s[t].shape == (16, 64, 64) for t in SUBBAND_TAGS)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_perfect_reconstruction_64bit(name):
    bank = builtin_bank(name)
    x = np.random.default_rng(1).standard_normal((8, 8, 8))
    rec = idwt3(dwt3(x, bank), bank)
    assert np.max(np.abs(rec - x)) / np.max(np.abs(x)) < 1e-10


def test_perfect_reconstruction_32bit():
    x = np.random.default_rng(2).standard_normal((8, 8, 8)).astype(np.float32)
    bank = builtin_bank("haar")
    rec = idwt3(dwt3(x, bank), bank)
    assert np.max(np.abs(rec - x)) / np.max(np.abs(x)) < 1e-5
    assert rec.dtype == np.float32


def test_idwt_constant_lll_gives_unit_volume():
    shape = (4, 4, 4)
    arrays = {t: np.zeros(shape) for t in SUBBAND_TAGS}
    arrays["lll"] = np.full(shape, 2 * np.sqrt(2))
    rec = idwt3(SubbandSet(arrays, "haar"), builtin_bank("haar"))
    np.testing.assert_allclose(rec, 1.0, atol=1e-12)


def test_idwt_rejects_subbands_of_another_bank():
    s = dwt3(np.random.default_rng(4).standard_normal((8, 8, 8)), builtin_bank("db2"))
    with pytest.raises(WaveletMismatchError, match="db2"):
        idwt3(s, builtin_bank("haar"))


def test_biorthogonal_roundtrip_16cube():
    bank = builtin_bank("ch2.2")
    x = np.random.default_rng(3).standard_normal((16, 16, 16))
    rec = idwt3(dwt3(x, bank), bank)
    assert np.max(np.abs(rec - x)) / np.max(np.abs(x)) < 1e-4


def test_linearity():
    bank = builtin_bank("db3")
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((2, 8, 8, 8))
    a, b = 2.5, -1.25
    lhs = dwt3(a * x + b * y, bank)
    sx, sy = dwt3(x, bank), dwt3(y, bank)
    for tag in SUBBAND_TAGS:
        expect = a * sx[tag] + b * sy[tag]
        scale = np.max(np.abs(expect)) or 1.0
        assert np.max(np.abs(lhs[tag] - expect)) / scale < 1e-6


@pytest.mark.parametrize("name", ["haar", "db2", "db3", "db4"])
def test_energy_preservation_orthogonal(name):
    bank = builtin_bank(name)
    x = np.random.default_rng(6).standard_normal((8, 16, 16))
    s = dwt3(x, bank)
    total = sum(float((s[t] ** 2).sum()) for t in SUBBAND_TAGS)
    assert abs(total - float((x ** 2).sum())) / float((x ** 2).sum()) < 1e-5


def test_odd_extent_rejected():
    with pytest.raises(OddExtentError):
        dwt3(np.zeros((3, 4, 4)), builtin_bank("haar"))


def test_degenerate_extent_rejected():
    with pytest.raises(TooSmallError):
        dwt3(np.zeros((0, 4, 4)), builtin_bank("haar"))


def test_subband_set_shape_mismatch():
    arrays = {t: np.zeros((2, 2, 2)) for t in SUBBAND_TAGS}
    arrays["hhh"] = np.zeros((2, 2, 4))
    with pytest.raises(ShapeMismatchError):
        SubbandSet(arrays, "haar")


# -- hard shrinkage -----------------------------------------------------------

def test_hard_shrink_boundary_grid():
    vals = np.array([-0.3, -0.25, -0.1, 0.0, 0.1, 0.25, 0.3])
    expect = np.array([-0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3])
    arrays = {t: np.zeros((2, 2, 2)) for t in SUBBAND_TAGS}
    arrays["hhh"] = np.zeros((2, 2, 2))
    arrays["hhh"].flat[:7] = vals
    arrays["lll"] = np.full((2, 2, 2), 0.1)  # must pass through untouched
    out = hard_shrink(SubbandSet(arrays, "haar"), ShrinkConfig(0.25))
    np.testing.assert_array_equal(out["hhh"].flat[:7], expect)
    np.testing.assert_array_equal(out["lll"], arrays["lll"])


def test_hard_shrink_array_keeps_nan():
    out = hard_shrink_array(np.array([np.nan, 0.1, -1.0]), 0.25)
    assert np.isnan(out[0])
    np.testing.assert_array_equal(out[1:], [0.0, -1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hard_shrink_array_bytes_equal_select_form(dtype):
    # the masked multiply gives -0.0 for small negatives; the result must carry
    # +0.0 there, byte for byte what the select form gives
    x = (np.random.default_rng(3).standard_normal(4096) * 0.5).astype(dtype)
    x[:9] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.25, -0.25, -1e-30, 0.2500001]
    out = hard_shrink_array(x, 0.25)
    expect = np.where(np.abs(x) <= 0.25, np.zeros((), dtype=dtype), x)
    assert out.dtype == dtype and out.tobytes() == expect.tobytes()
    assert not np.any(np.signbit(out[out == 0]))


def test_hard_shrink_idempotent():
    rng = np.random.default_rng(7)
    arrays = {t: rng.standard_normal((4, 4, 4)) for t in SUBBAND_TAGS}
    s = SubbandSet(arrays, "haar")
    once = hard_shrink(s, ShrinkConfig(0.25))
    twice = hard_shrink(once, ShrinkConfig(0.25))
    for tag in SUBBAND_TAGS:
        np.testing.assert_array_equal(once[tag], twice[tag])


def test_shrink_config_rejects_negative():
    with pytest.raises(ValueError):
        ShrinkConfig(-0.1)


@pytest.mark.parametrize("threshold", [np.inf, np.nan])
def test_shrink_config_rejects_non_finite(threshold):
    # an infinite threshold would turn +-inf into NaN (inf * 0) under the
    # masked multiply; a NaN one would zero everything
    with pytest.raises(ValueError):
        ShrinkConfig(threshold)
