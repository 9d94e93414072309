"""The seven encoder-decoder networks built from nested dual structures.

Variants (down-sampling / up-sampling / branch payload):
    PU    max-pool / max-unpool            pooling indices
    PDc   max-pool / deconvolution         skip copy, concatenated
    ScIn  strided conv / interpolation     skip copy, concatenated
    DDc   DWT low-pass / deconvolution     skip copy, concatenated
    DIn   DWT low-pass / interpolation     skip copy, concatenated
    DI    DWT / IDWT                       high-frequency subbands
    DIDn  DWT / IDWT                       high-frequency subbands, denoised

Each level runs two conv-BN-ReLU blocks before down-sampling (encoder) and
after up-sampling (decoder); a two-block bottom sits at 1/2^levels
resolution; a 1x1x1 convolution maps the last decoder output to class
logits.  Each block is one recorded op (`ConvBNReLU`, `F.conv_bn_relu`)
that folds BN into the conv in eval mode.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import IndivisibleExtentError, StateMismatchError
from .filters import FilterBank, builtin_bank
from .nn.autograd import Tensor, as_tensor
from .nn import functional as F
from .nn.layers import Conv3, ConvBNReLU, Deconv2, Layer, SConv2

DUAL_STRUCTURES = ("PU", "PDc", "ScIn", "DDc", "DIn", "DI", "DIDn")
WAVELET_STRUCTURES = ("DDc", "DIn", "DI", "DIDn")
CONCAT_STRUCTURES = ("PDc", "ScIn", "DDc", "DIn")


def _encode(value) -> str:
    """Config text of one field value: None is `none`, pairs are `a,b`,
    a schedule of pairs is `a,b;c,d`."""
    if value is None:
        return "none"
    if isinstance(value, tuple):
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(_encode(v) for v in value)
    return str(value)


def _decode(text: str, like):
    """Inverse of `_encode`, shaped and typed like the field's default; a
    field whose default is None, text or absent decodes to text or None."""
    if isinstance(like, tuple):
        if isinstance(like[0], tuple):
            return tuple(_decode(part, like[0]) for part in text.split(";"))
        return tuple(type(like[0])(v) for v in text.split(","))
    if isinstance(like, (int, float)):
        return type(like)(text)
    return None if text == "none" else text


@dataclass(frozen=True)
class NetworkSpec:
    """One of the seven architectures plus its channel schedule."""

    dual_structure: str
    wavelet: str | None = None
    levels: int = 4
    encoder_channels: tuple = ((1, 4), (4, 8), (8, 16), (16, 32))
    bottom_channels: tuple = (32, 32)
    decoder_channels: tuple = ((32, 16), (16, 8), (8, 4), (4, 4))  # deepest first
    classes: int = 2
    shrink_threshold: float = 0.25

    def __post_init__(self):
        if self.dual_structure not in DUAL_STRUCTURES:
            raise ValueError(
                f"dual_structure must be one of {DUAL_STRUCTURES}, got {self.dual_structure!r}")
        wavelet_based = self.dual_structure in WAVELET_STRUCTURES
        if wavelet_based and self.wavelet is None:
            raise ValueError(f"{self.dual_structure} requires a wavelet")
        if not wavelet_based and self.wavelet is not None:
            raise ValueError(f"{self.dual_structure} takes no wavelet")
        if len(self.encoder_channels) != self.levels or len(self.decoder_channels) != self.levels:
            raise ValueError("channel schedules must list one pair per level")
        if not 0 <= self.shrink_threshold < np.inf:
            raise ValueError(
                f"shrink_threshold must be finite and >= 0, got {self.shrink_threshold}")

    def to_config(self) -> dict[str, str]:
        """Every field as `key -> text`, in declaration order."""
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @staticmethod
    def from_config(config: dict[str, str]) -> "NetworkSpec":
        """Inverse of `to_config`; absent keys take the field defaults.
        Raises ValueError on an unknown key or a missing `dual_structure`."""
        specs = {f.name: f for f in fields(NetworkSpec)}
        unknown = sorted(set(config) - specs.keys())
        if unknown:
            raise ValueError(f"unknown network config keys {unknown}")
        if "dual_structure" not in config:
            raise ValueError("network config names no dual_structure")
        return NetworkSpec(**{key: _decode(text, specs[key].default)
                              for key, text in config.items()})

    def to_config_text(self) -> str:
        return "".join(f"{key}={text}\n" for key, text in self.to_config().items())

    @staticmethod
    def from_config_text(text: str) -> "NetworkSpec":
        config = {}
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, val = line.partition("=")
                config[key.strip()] = val.strip()
        return NetworkSpec.from_config(config)


def paper_spec(dual_structure: str, wavelet: str | None = None) -> NetworkSpec:
    """The Table-I preset for a given dual structure."""
    if dual_structure in WAVELET_STRUCTURES and wavelet is None:
        wavelet = "haar"
    return NetworkSpec(dual_structure=dual_structure, wavelet=wavelet)


class Network:
    """Built network: immutable wiring plus mutable parameter store."""

    def __init__(self, spec: NetworkSpec, seed: int = 0, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.bank: FilterBank | None = (
            builtin_bank(spec.wavelet) if spec.wavelet is not None else None)
        rng = np.random.default_rng(seed)
        kind = spec.dual_structure
        L = spec.levels

        enc_out = [pair[1] for pair in spec.encoder_channels]
        dec_out_of_level = lambda lvl: spec.decoder_channels[L - lvl]  # lvl is 1-based
        self._below = [
            spec.bottom_channels[1] if i == L - 1 else dec_out_of_level(i + 2)[1]
            for i in range(L)
        ]
        if kind in ("PU", "DI", "DIDn"):
            for i in range(L):
                if self._below[i] != enc_out[i]:
                    raise ValueError(
                        f"level {i + 1}: reverse-process channels {self._below[i]} must "
                        f"equal forward-process channels {enc_out[i]} for {kind}")

        self._modules: dict[str, Layer] = {}

        def add(path: str, layer: Layer) -> Layer:
            self._modules[path] = layer
            return layer

        self.enc = []
        for i, (c_in, c_mid) in enumerate(spec.encoder_channels):
            b1 = add(f"enc{i + 1}.block1", ConvBNReLU(c_in, c_mid, rng, dtype))
            b2 = add(f"enc{i + 1}.block2", ConvBNReLU(c_mid, c_mid, rng, dtype))
            self.enc.append((b1, b2))

        self.down = []
        for i in range(L):
            if kind == "ScIn":
                self.down.append(add(f"down{i + 1}", SConv2(enc_out[i], enc_out[i], rng, dtype)))
            else:
                self.down.append(None)

        cb_in, cb_out = spec.bottom_channels
        self.bottom1 = add("bottom.block1", ConvBNReLU(enc_out[-1], cb_in, rng, dtype))
        self.bottom2 = add("bottom.block2", ConvBNReLU(cb_in, cb_out, rng, dtype))

        self.up = []
        for i in range(L):
            if kind in ("PDc", "DDc"):
                self.up.append(add(f"up{i + 1}", Deconv2(self._below[i], self._below[i], rng, dtype)))
            else:
                self.up.append(None)

        self.dec = []
        for i in range(L):
            out1, out2 = dec_out_of_level(i + 1)
            skip = enc_out[i] if kind in CONCAT_STRUCTURES else 0
            b1 = add(f"dec{i + 1}.block1", ConvBNReLU(self._below[i] + skip, out1, rng, dtype))
            b2 = add(f"dec{i + 1}.block2", ConvBNReLU(out1, out2, rng, dtype))
            self.dec.append((b1, b2))

        self.head = add("head", Conv3(spec.decoder_channels[-1][1], spec.classes,
                                      kernel=1, rng=rng, dtype=dtype))
        # zero-initialized logit head: initial predictions are exactly the bias
        self.head.weight.data[...] = 0.0

    # -- parameter plumbing ------------------------------------------------
    def named_parameters(self):
        for path, module in self._modules.items():
            yield from module.named_parameters(path)

    def named_buffers(self):
        for path, module in self._modules.items():
            yield from module.named_buffers(path)

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def zero_grad(self):
        for _, t in self.named_parameters():
            t.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {path: t.data for path, t in self.named_parameters()}
        state.update({path: buf for path, buf in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Replace every parameter and buffer; the state must name each one
        with its exact shape.  Nothing is loaded unless all of it fits."""
        own = dict(self.named_parameters())
        bufs = dict(self.named_buffers())
        unknown = sorted(set(state) - own.keys() - bufs.keys())
        if unknown:
            raise StateMismatchError(f"unknown state entries {unknown}")
        missing = sorted((own.keys() | bufs.keys()) - set(state))
        if missing:
            raise StateMismatchError(f"state is missing entries {missing}")
        for path, arr in state.items():
            have = own[path].data.shape if path in own else bufs[path].shape
            if np.shape(arr) != have:
                raise ValueError(f"shape mismatch for '{path}': {have} vs {np.shape(arr)}")
        for path, arr in state.items():
            if path in own:
                own[path].data = arr.astype(own[path].data.dtype, copy=True)
            else:
                bufs[path][...] = arr

    # -- forward -----------------------------------------------------------
    def forward(self, x, training: bool = False) -> Tensor:
        x = as_tensor(x, dtype=self.dtype)
        c_in = self.spec.encoder_channels[0][0]
        if x.data.ndim != 5 or x.data.shape[1] != c_in:
            raise ValueError(f"expected input (b, {c_in}, z, y, x), got {x.data.shape}")
        divisor = 2 ** self.spec.levels
        for ext in x.data.shape[2:]:
            if ext % divisor != 0:
                raise IndivisibleExtentError(
                    f"spatial extents {x.data.shape[2:]} must be divisible by {divisor}")

        kind = self.spec.dual_structure
        branches = []
        h = x
        for i in range(self.spec.levels):
            b1, b2 = self.enc[i]
            h = b2.forward(b1.forward(h, training), training)
            if kind == "PU":
                h, idx = F.maxpool2_with_indices(h)
                branches.append(idx)
            elif kind == "PDc":
                branches.append(h)
                h, _ = F.maxpool2_with_indices(h)
            elif kind == "ScIn":
                branches.append(h)
                h = self.down[i].forward(h)
            elif kind in ("DDc", "DIn"):
                branches.append(h)
                h = F.dwt_low_layer(h, self.bank)
            else:  # DI, DIDn
                h, highs = F.dwt_layer(h, self.bank)
                if kind == "DIDn":
                    highs = F.hard_shrink_layer(highs, self.spec.shrink_threshold)
                branches.append(highs)

        h = self.bottom2.forward(self.bottom1.forward(h, training), training)

        for i in reversed(range(self.spec.levels)):
            if kind == "PU":
                h = F.maxunpool2(h, branches[i])
            elif kind in ("PDc", "DDc"):
                h = F.concat_channels(self.up[i].forward(h), branches[i])
            elif kind in ("ScIn", "DIn"):
                h = F.concat_channels(F.interpolate2(h), branches[i])
            else:  # DI, DIDn
                h = F.idwt_layer(h, branches[i], self.bank)
            b1, b2 = self.dec[i]
            h = b2.forward(b1.forward(h, training), training)

        return self.head.forward(h)

    def __call__(self, x, training: bool = False) -> Tensor:
        return self.forward(x, training)


def build(spec: NetworkSpec, seed: int = 0, dtype=np.float32) -> Network:
    """Construct a network with seeded He-normal initialization."""
    return Network(spec, seed=seed, dtype=dtype)


def count_parameters(spec: NetworkSpec) -> int:
    """Exact count of trainable scalars (conv weights/biases, BN scale/shift)."""
    net = Network(spec, seed=0)
    return int(sum(t.data.size for _, t in net.named_parameters()))


@dataclass
class LayerInfo:
    path: str
    detail: str
    count: int


def describe(spec: NetworkSpec) -> list[LayerInfo]:
    """Ordered per-layer report; counts sum to count_parameters(spec)."""
    net = Network(spec, seed=0)
    rows = []
    for path, module in net._modules.items():
        count = sum(t.data.size for _, t in module.named_parameters())
        if isinstance(module, ConvBNReLU):
            co, ci, k = module.conv.weight.data.shape[:3]
            detail = f"conv {ci}->{co}, {k}x{k}x{k} kernel + BN + ReLU"
        elif isinstance(module, Conv3):
            co, ci, k = module.weight.data.shape[:3]
            detail = f"conv {ci}->{co}, {k}x{k}x{k} kernel"
        elif isinstance(module, SConv2):
            co, ci = module.weight.data.shape[:2]
            detail = f"strided conv {ci}->{co}, 2x2x2 kernel, stride 2"
        elif isinstance(module, Deconv2):
            ci, co = module.weight.data.shape[:2]
            detail = f"deconv {ci}->{co}, 2x2x2 kernel, stride 2"
        else:
            detail = type(module).__name__
        rows.append(LayerInfo(path, detail, count))
    return rows


def format_description(spec: NetworkSpec) -> str:
    rows = describe(spec)
    total = sum(r.count for r in rows)
    width = max(len(r.path) for r in rows)
    lines = [f"{r.path:<{width}}  {r.detail:<48} {r.count:>8}" for r in rows]
    lines.append(f"{'total':<{width}}  {'':<48} {total:>8}")
    return "\n".join(lines)
