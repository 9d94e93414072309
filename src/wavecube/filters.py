"""1D wavelet filter banks and their 3D tensor-product filters.

A `FilterBank` holds the four 1D filters (decomposition/reconstruction,
low/high-pass); `tensor_filters` expands a bank into the eight separable
3D filters, ordered lll..hhh, where the first tag letter is the filter
applied along z, the second along y, the third along x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownWaveletError
from .wavelet_tables import BUILTIN_WAVELETS, WAVELET_NAMES

SUBBAND_TAGS = ("lll", "llh", "lhl", "lhh", "hll", "hlh", "hhl", "hhh")

_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class FilterBank:
    """Named 1D low/high-pass filter pair plus reconstruction duals."""

    name: str
    lo_dec: np.ndarray
    hi_dec: np.ndarray
    lo_rec: np.ndarray
    hi_rec: np.ndarray
    orthogonal: bool

    @property
    def length(self) -> int:
        return len(self.lo_dec)


@dataclass(frozen=True)
class Filter3D:
    """One separable 3D filter: the tensor product of three 1D filters."""

    subband_tag: str
    coefficients: np.ndarray  # shape (L, L, L)


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float


@dataclass
class ValidationReport:
    """Per-invariant pass/fail results for a bank."""

    bank_name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = [f"bank {self.bank_name}:"]
        for c in self.checks:
            state = "pass" if c.passed else "FAIL"
            lines.append(f"  {state}  {c.name}  (residual {c.residual:.3e})")
        return "\n".join(lines)


def _alternating_flip(lo: np.ndarray) -> np.ndarray:
    """High-pass from low-pass for orthogonal banks: g[j] = (-1)^j lo[L-1-j]."""
    L = len(lo)
    signs = (-1.0) ** np.arange(L)
    return signs * lo[::-1]


def builtin_bank(name: str) -> FilterBank:
    """Return one of the built-in banks: haar, db2, db3, db4, ch2.2, ch4.4."""
    try:
        lo_dec, hi_dec, lo_rec, hi_rec, orthogonal = BUILTIN_WAVELETS[name]
    except KeyError:
        raise UnknownWaveletError(
            f"unknown wavelet '{name}', expected one of {', '.join(WAVELET_NAMES)}"
        ) from None
    lo_dec = np.asarray(lo_dec, dtype=np.float64)
    hi_dec = _alternating_flip(lo_dec) if hi_dec is None else np.asarray(hi_dec, dtype=np.float64)
    lo_rec = lo_dec.copy() if lo_rec is None else np.asarray(lo_rec, dtype=np.float64)
    hi_rec = hi_dec.copy() if hi_rec is None else np.asarray(hi_rec, dtype=np.float64)
    return FilterBank(name, lo_dec, hi_dec, lo_rec, hi_rec, orthogonal)


def tensor_filters(bank: FilterBank, role: str = "decomposition") -> list[Filter3D]:
    """Expand a bank into its eight 3D filters, ordered lll..hhh.

    `role` selects the decomposition or reconstruction 1D pair.  Entry
    [i, j, k] of each filter is the exact triple product
    f_z[i] * f_y[j] * f_x[k].
    """
    if role == "decomposition":
        lo, hi = bank.lo_dec, bank.hi_dec
    elif role == "reconstruction":
        lo, hi = bank.lo_rec, bank.hi_rec
    else:
        raise ValueError(f"role must be 'decomposition' or 'reconstruction', got {role!r}")
    pick = {"l": lo, "h": hi}
    out = []
    for tag in SUBBAND_TAGS:
        fz, fy, fx = pick[tag[0]], pick[tag[1]], pick[tag[2]]
        coeffs = fz[:, None, None] * fy[None, :, None] * fx[None, None, :]
        out.append(Filter3D(tag, coeffs))
    return out


def _pr_residual(bank: FilterBank, n: int = 32, seed: int = 7) -> float:
    """Max abs reconstruction error of the 1D analysis/synthesis pair."""
    from .transform import _analyze_1d, _synthesize_1d  # cycle-free at call time

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    lo, hi = _analyze_1d(x, bank.lo_dec, bank.hi_dec, -1)
    rec = _synthesize_1d(lo, hi, bank.lo_rec, bank.hi_rec, -1)
    return float(np.max(np.abs(rec - x)))


def validate_bank(bank: FilterBank, tol: float = 1e-10) -> ValidationReport:
    """Check every bank invariant; failures are reported, not raised."""
    report = ValidationReport(bank.name)

    def add(name, residual, threshold=tol):
        report.checks.append(CheckResult(name, residual <= threshold, float(residual)))

    add("equal even filter lengths",
        0.0 if (len(bank.lo_dec) == len(bank.hi_dec) and len(bank.lo_dec) % 2 == 0) else 1.0,
        0.5)
    add("low-pass sum = sqrt(2)", abs(float(np.sum(bank.lo_dec)) - _SQRT2))
    add("high-pass sum = 0", abs(float(np.sum(bank.hi_dec))))
    if bank.orthogonal:
        dual_res = max(
            float(np.max(np.abs(bank.lo_rec - bank.lo_dec))),
            float(np.max(np.abs(bank.hi_rec - bank.hi_dec))),
        )
        add("orthogonal duals equal dec filters", dual_res)
    add("perfect reconstruction (random even signal)", _pr_residual(bank))
    return report
