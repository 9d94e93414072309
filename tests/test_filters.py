import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecube.errors import UnknownWaveletError
from wavecube.filters import (
    SUBBAND_TAGS,
    FilterBank,
    builtin_bank,
    tensor_filters,
    validate_bank,
)
from wavecube.transform import _analyze, _synthesize

ALL_NAMES = ("haar", "db2", "db3", "db4", "ch2.2", "ch4.4")
INV_2SQRT2 = 1.0 / (2.0 * np.sqrt(2.0))


def test_haar_anchor_coefficients():
    bank = builtin_bank("haar")
    np.testing.assert_allclose(bank.lo_dec, [0.7071067812, 0.7071067812], atol=1e-10)
    np.testing.assert_allclose(bank.hi_dec, [0.7071067812, -0.7071067812], atol=1e-10)


def test_db2_length():
    assert len(builtin_bank("db2").lo_dec) == 4


def test_unknown_wavelet():
    with pytest.raises(UnknownWaveletError):
        builtin_bank("nosuch")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_bank_invariants(name):
    bank = builtin_bank(name)
    assert len(bank.lo_dec) == len(bank.hi_dec)
    assert len(bank.lo_dec) % 2 == 0
    assert abs(bank.lo_dec.sum() - np.sqrt(2)) < 1e-10
    assert abs(bank.hi_dec.sum()) < 1e-10
    if bank.orthogonal:
        np.testing.assert_array_equal(bank.lo_rec, bank.lo_dec)
        np.testing.assert_array_equal(bank.hi_rec, bank.hi_dec)
    else:
        assert not np.array_equal(bank.lo_rec, bank.lo_dec)


def test_haar_3d_filters_match_printed_values():
    filters = tensor_filters(builtin_bank("haar"), "decomposition")
    by_tag = {f.subband_tag: f.coefficients for f in filters}
    assert [f.subband_tag for f in filters] == list(SUBBAND_TAGS)
    # low-pass cube: every entry 1/(2*sqrt(2))
    np.testing.assert_allclose(by_tag["lll"], INV_2SQRT2, atol=1e-15)
    # full checkerboard for hhh: sign = (-1)^(i+j+k)
    i, j, k = np.indices((2, 2, 2))
    np.testing.assert_allclose(by_tag["hhh"], INV_2SQRT2 * (-1.0) ** (i + j + k), atol=1e-15)
    # the remaining six alternate along exactly the axes tagged 'h'
    for tag, coeff in by_tag.items():
        signs = np.ones((2, 2, 2))
        for axis, c in enumerate(tag):
            if c == "h":
                signs = signs * np.where(np.indices((2, 2, 2))[axis] == 0, 1.0, -1.0)
        np.testing.assert_allclose(coeff, INV_2SQRT2 * signs, atol=1e-15)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_llh_filter_zero_sum(name):
    filters = tensor_filters(builtin_bank(name), "decomposition")
    llh = next(f for f in filters if f.subband_tag == "llh")
    assert abs(llh.coefficients.sum()) < 1e-10


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("role", ["decomposition", "reconstruction"])
def test_tensor_filters_are_exact_triple_products(name, role):
    bank = builtin_bank(name)
    lo, hi = (bank.lo_dec, bank.hi_dec) if role == "decomposition" else (bank.lo_rec, bank.hi_rec)
    pick = {"l": lo, "h": hi}
    for f in tensor_filters(bank, role):
        fz, fy, fx = (pick[c] for c in f.subband_tag)
        L = len(lo)
        for i, j, k in [(0, 0, 0), (L - 1, L - 1, L - 1), (1, 0, L - 1)]:
            assert f.coefficients[i, j, k] == fz[i] * fy[j] * fx[k]  # exact


def test_haar_filters_orthonormal_gram():
    filters = tensor_filters(builtin_bank("haar"), "decomposition")
    flat = np.stack([f.coefficients.ravel() for f in filters])
    gram = flat @ flat.T
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-10)


def test_validate_bank_passes_builtins():
    for name in ALL_NAMES:
        report = validate_bank(builtin_bank(name))
        assert report.all_passed, str(report)
        assert all(c.residual < 1e-12 for c in report.checks)


def test_validate_bank_reports_bad_zero_sum():
    bank = builtin_bank("haar")
    bad = FilterBank("haar", bank.lo_dec, bank.hi_dec + 0.05, bank.lo_rec,
                     bank.hi_rec, bank.orthogonal)
    report = validate_bank(bad)
    check = next(c for c in report.checks if c.name == "high-pass sum = 0")
    assert not check.passed
    assert check.residual == pytest.approx(0.1, abs=1e-10)


def test_validate_bank_biorthogonal():
    report = validate_bank(builtin_bank("ch2.2"))
    pr = next(c for c in report.checks if "reconstruction" in c.name)
    assert pr.passed
    assert builtin_bank("ch2.2").orthogonal is False
    assert not any("duals equal" in c.name for c in report.checks)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(ALL_NAMES),
    half_len=st.integers(min_value=10, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_1d_perfect_reconstruction_property(name, half_len, seed):
    bank = builtin_bank(name)
    n = max(2 * half_len, 2 * len(bank.lo_dec))
    x = np.random.default_rng(seed).standard_normal(n)
    lo, hi = _analyze(x[None, :], (bank.lo_dec, bank.hi_dec), axis=-1)
    rec = _synthesize([lo, hi], (bank.lo_rec, bank.hi_rec), axis=-1)[0]
    assert np.max(np.abs(rec - x)) < 1e-10
