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


class SConv2(Layer):
    """2x2x2 stride-2 down-sampling convolution (parameter mirror of Deconv2)."""

    def __init__(self, c_in: int, c_out: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        std = float(np.sqrt(2.0 / (c_in * 8)))
        self.weight = Tensor(rng.normal(0.0, std, size=(c_out, c_in, 2, 2, 2)),
                             requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True, dtype=dtype)

    def forward(self, x):
        return F.sconv2(x, self.weight, self.bias)


class Deconv2(Layer):
    """2x2x2 stride-2 transposed convolution (exact doubling)."""

    def __init__(self, c_in: int, c_out: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        std = float(np.sqrt(2.0 / (c_in * 8)))
        self.weight = Tensor(rng.normal(0.0, std, size=(c_in, c_out, 2, 2, 2)),
                             requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True, dtype=dtype)

    def forward(self, x):
        return F.deconv3(x, self.weight, self.bias)


class BatchNorm3(Layer):
    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5,
                 dtype=np.float32):
        self.gamma = Tensor(np.ones(channels), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(channels), requires_grad=True, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.eps = eps

    def forward(self, x, training: bool):
        return F.batchnorm(x, self.gamma, self.beta, self.running_mean,
                           self.running_var, training, self.momentum, self.eps)


class ConvBNReLU(Layer):
    """The network body unit: convolution + batch norm + ReLU."""

    def __init__(self, c_in: int, c_out: int, rng=None, dtype=np.float32):
        self.conv = Conv3(c_in, c_out, rng=rng, dtype=dtype)
        self.bn = BatchNorm3(c_out, dtype=dtype)

    def forward(self, x, training: bool):
        return F.relu(self.bn.forward(self.conv.forward(x), training))
