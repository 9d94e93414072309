"""Parameterized layers: thin wrappers pairing weights with functional ops."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from . import functional as F


class Layer:
    """Base: children discovered by attribute scan, parameters by recursion."""

    def named_parameters(self, prefix: str = ""):
        for name, val in vars(self).items():
            path = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(val, Tensor) and val.requires_grad:
                yield path, val
            elif isinstance(val, Layer):
                yield from val.named_parameters(path)

    def named_buffers(self, prefix: str = ""):
        for name, val in vars(self).items():
            path = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(val, np.ndarray):
                yield path, val
            elif isinstance(val, Layer):
                yield from val.named_buffers(path)


class Conv3(Layer):
    """Cubic-kernel convolution with bias (default 3x3x3, padding 1)."""

    def __init__(self, c_in: int, c_out: int, kernel: int = 3,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        std = float(np.sqrt(2.0 / (c_in * kernel ** 3)))
        self.weight = Tensor(
            rng.normal(0.0, std, size=(c_out, c_in, kernel, kernel, kernel)),
            requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True, dtype=dtype)

    def forward(self, x):
        return F.conv3(x, self.weight, self.bias)

    def describe(self) -> str:
        co, ci, k = self.weight.data.shape[:3]
        return f"conv {ci}->{co}, {k}x{k}x{k} kernel"


class SConv2(Layer):
    """2x2x2 stride-2 down-sampling convolution: `F.conv3` at stride 2 without
    padding, a channel mix of the input's eight 2x2x2 phases.  Its (Co, Ci)
    weight mirrors Deconv2's (Ci, Co) parameter for parameter."""

    def __init__(self, c_in: int, c_out: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        std = float(np.sqrt(2.0 / (c_in * 8)))
        self.weight = Tensor(rng.normal(0.0, std, size=(c_out, c_in, 2, 2, 2)),
                             requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True, dtype=dtype)

    def forward(self, x):
        return F.sconv2(x, self.weight, self.bias)

    def describe(self) -> str:
        co, ci = self.weight.data.shape[:2]
        return f"strided conv {ci}->{co}, 2x2x2 kernel, stride 2"


class Deconv2(Layer):
    """2x2x2 stride-2 transposed convolution (exact doubling): the transpose
    of SConv2's convolution, a channel mix to eight 2x2x2 phases per output
    channel, interleaved back, run on the same kernel as `F.conv3`."""

    def __init__(self, c_in: int, c_out: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        std = float(np.sqrt(2.0 / (c_in * 8)))
        self.weight = Tensor(rng.normal(0.0, std, size=(c_in, c_out, 2, 2, 2)),
                             requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True, dtype=dtype)

    def forward(self, x):
        return F.deconv3(x, self.weight, self.bias)

    def describe(self) -> str:
        ci, co = self.weight.data.shape[:2]
        return f"deconv {ci}->{co}, 2x2x2 kernel, stride 2"


class BatchNorm3(Layer):
    """Batch-norm parameters and running buffers of a `ConvBNReLU` unit,
    which applies them; `F.batchnorm` is the stand-alone op."""

    def __init__(self, channels: int, dtype=np.float32):
        self.gamma = Tensor(np.ones(channels), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(channels), requires_grad=True, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)


class ConvBNReLU(Layer):
    """The network body unit: convolution + batch norm + ReLU, one unit of
    `F.conv_bn_relu`'s chain, which says what the op keeps for the
    backward.  The networks chain a level's two units into one recorded op,
    whose backward rebuilds the first unit's output from its BN-normalized
    input instead of keeping it; eval folds BN into the conv only where no
    tape records."""

    def __init__(self, c_in: int, c_out: int, rng=None, dtype=np.float32):
        self.conv = Conv3(c_in, c_out, rng=rng, dtype=dtype)
        self.bn = BatchNorm3(c_out, dtype=dtype)

    def unit(self) -> tuple:
        """(weight, bias, gamma, beta, running_mean, running_var), one
        `F.conv_bn_relu` unit."""
        conv, bn = self.conv, self.bn
        return conv.weight, conv.bias, bn.gamma, bn.beta, bn.running_mean, bn.running_var

    def describe(self) -> str:
        return f"{self.conv.describe()} + BN + ReLU"
