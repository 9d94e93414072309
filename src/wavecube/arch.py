"""The seven encoder-decoder networks built from nested dual structures.

They share one U-Net skeleton; `_STRUCTURES` gives each its down-sampler,
up-sampler and branch payload (Table I).

Each level runs two conv-BN-ReLU blocks before down-sampling (encoder) and
after up-sampling (decoder); a two-block bottom sits at 1/2^levels
resolution; a 1x1x1 convolution maps the last decoder output to class
logits.  Each block is a `ConvBNReLU` unit, and a level's two blocks run
as one recorded op (`F.conv_bn_relu` on a chain of two units), whose
backward rebuilds block 1's output from what BN kept instead of keeping it
and which folds BN into the convs in eval mode where no tape records.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .errors import IndivisibleExtentError, StateMismatchError
from .filters import FilterBank, builtin_bank
from .nn.autograd import Tensor, as_tensor
from .nn import functional as F
from .nn.layers import Conv3, ConvBNReLU, Deconv2, Layer, SConv2
from .validation import check_threshold


@dataclass(frozen=True)
class _Structure:
    """One network of Table I.  `down(network, level, h)` returns the coarser
    h and the branch payload; `up(network, level, h, payload)` returns the
    finer h entering the decoder.  Levels count from 0 at full resolution."""

    down: Callable
    up: Callable
    skip: bool  # the payload is a skip copy, concatenated into the decoder's input
    wavelet: bool  # the resamplers read the network's wavelet bank
    down_layer: type[Layer] | None = None  # learned down-sampler, built per level as `down{i}`
    up_layer: type[Layer] | None = None  # learned up-sampler, built per level as `up{i}`


def _encode(value) -> str:
    """Config text of one field value: None is `none`, pairs are `a,b`,
    a schedule of pairs is `a,b;c,d`."""
    if value is None:
        return "none"
    if isinstance(value, tuple):
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(_encode(v) for v in value)
    return str(value)


def config_of(obj) -> dict[str, str]:
    """Every field of a dataclass instance as `key -> text` (`_encode`), in
    declaration order: a `NetworkSpec`, or the run record's `TrainConfig`."""
    return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}


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
        structure = _STRUCTURES[self.dual_structure]
        if structure.wavelet and self.wavelet is None:
            raise ValueError(f"{self.dual_structure} requires a wavelet")
        if not structure.wavelet and self.wavelet is not None:
            raise ValueError(f"{self.dual_structure} takes no wavelet")
        if self.levels < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        if len(self.encoder_channels) != self.levels or len(self.decoder_channels) != self.levels:
            raise ValueError("channel schedules must list one pair per level")
        for name, pairs in (("encoder_channels", self.encoder_channels),
                            ("bottom_channels", (self.bottom_channels,)),
                            ("decoder_channels", self.decoder_channels)):
            if any(np.shape(pair) != (2,) or min(pair) < 1 for pair in pairs):
                raise ValueError(f"{name} must hold (in, out) pairs of channel counts >= 1, "
                                 f"got {getattr(self, name)}")
        for i in range(1, self.levels):
            if self.encoder_channels[i][0] != self.encoder_channels[i - 1][1]:
                raise ValueError(
                    f"level {i + 1}: encoder input channels {self.encoder_channels[i][0]} "
                    f"must equal level {i}'s output channels {self.encoder_channels[i - 1][1]}")
        if not structure.skip:
            for i, (below, (_, enc_out)) in enumerate(
                    zip(_reverse_channels(self), self.encoder_channels)):
                if below != enc_out:
                    raise ValueError(
                        f"level {i + 1}: reverse-process channels {below} must equal "
                        f"forward-process channels {enc_out} for {self.dual_structure}")
        if self.classes < 2:
            raise ValueError(f"classes must be at least 2, got {self.classes}")
        check_threshold(self.shrink_threshold, "shrink_threshold")

    def to_config(self) -> dict[str, str]:
        """Every field as `key -> text`, in declaration order."""
        return config_of(self)

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


def _reverse_channels(spec: NetworkSpec) -> list[int]:
    """Channels entering each level's up-sampler, full resolution first: the
    decoder output of the level below, or the bottom's at the deepest."""
    L = spec.levels
    return [spec.decoder_channels[L - 2 - i][1] for i in range(L - 1)] + [spec.bottom_channels[1]]


class Network:
    """Built network: immutable wiring plus mutable parameter store."""

    def __init__(self, spec: NetworkSpec, seed: int = 0, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.bank: FilterBank | None = (
            builtin_bank(spec.wavelet) if spec.wavelet is not None else None)
        self._structure = structure = _STRUCTURES[spec.dual_structure]
        rng = np.random.default_rng(seed)
        L = spec.levels
        enc_out = [pair[1] for pair in spec.encoder_channels]
        below = _reverse_channels(spec)

        self._modules: dict[str, Layer] = {}
        for i, (c_in, c_mid) in enumerate(spec.encoder_channels):
            self._modules[f"enc{i + 1}.block1"] = ConvBNReLU(c_in, c_mid, rng, dtype)
            self._modules[f"enc{i + 1}.block2"] = ConvBNReLU(c_mid, c_mid, rng, dtype)
        if structure.down_layer is not None:
            for i, c in enumerate(enc_out):
                self._modules[f"down{i + 1}"] = structure.down_layer(c, c, rng, dtype)

        cb_in, cb_out = spec.bottom_channels
        self._modules["bottom.block1"] = ConvBNReLU(enc_out[-1], cb_in, rng, dtype)
        self._modules["bottom.block2"] = ConvBNReLU(cb_in, cb_out, rng, dtype)

        if structure.up_layer is not None:
            for i, c in enumerate(below):
                self._modules[f"up{i + 1}"] = structure.up_layer(c, c, rng, dtype)
        for i in range(L):
            out1, out2 = spec.decoder_channels[L - 1 - i]
            skip = enc_out[i] if structure.skip else 0
            self._modules[f"dec{i + 1}.block1"] = ConvBNReLU(below[i] + skip, out1, rng, dtype)
            self._modules[f"dec{i + 1}.block2"] = ConvBNReLU(out1, out2, rng, dtype)

        self.head = self._modules["head"] = Conv3(spec.decoder_channels[-1][1], spec.classes,
                                                  kernel=1, rng=rng, dtype=dtype)
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
        with its exact shape and finite entries.  Nothing is loaded unless
        all of it fits."""
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
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite entries in '{path}'")
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

        payloads = []
        h = x
        for i in range(self.spec.levels):
            h = F.conv_bn_relu(h, self._units(f"enc{i + 1}"), training)
            h, payload = self._structure.down(self, i, h)
            payloads.append(payload)
        h = F.conv_bn_relu(h, self._units("bottom"), training)
        for i in reversed(range(self.spec.levels)):
            # the up-sampled input is handed over, not held here, so that a
            # tape-less chain can free it once its first unit has run
            h = F.conv_bn_relu(self._structure.up(self, i, h, payloads[i]),
                               self._units(f"dec{i + 1}"), training)
        return self.head.forward(h)

    def _units(self, name: str) -> list[tuple]:
        """The `F.conv_bn_relu` units of a level's two blocks."""
        return [self._modules[f"{name}.{block}"].unit() for block in ("block1", "block2")]

    def __call__(self, x, training: bool = False) -> Tensor:
        return self.forward(x, training)

    # -- resamplers: the `down` and `up` entries of `_STRUCTURES` ----------
    def _pool_indices(self, i, h):
        return F.maxpool2_with_indices(h)

    def _pool_skip(self, i, h):
        return F.maxpool2_with_indices(h)[0], h

    def _sconv_skip(self, i, h):
        return self._modules[f"down{i + 1}"].forward(h), h

    def _dwt_low_skip(self, i, h):
        return F.dwt_low_layer(h, self.bank), h

    def _dwt(self, i, h):
        return F.dwt_layer(h, self.bank)

    def _dwt_shrunk(self, i, h):
        h, highs = F.dwt_layer(h, self.bank)
        return h, F.hard_shrink_layer(highs, self.spec.shrink_threshold)

    def _unpool(self, i, h, indices):
        return F.maxunpool2(h, indices)

    def _deconv_concat(self, i, h, skip):
        return F.concat_channels(self._modules[f"up{i + 1}"].forward(h), skip)

    def _interpolate_concat(self, i, h, skip):
        return F.concat_channels(F.interpolate2(h), skip)

    def _idwt(self, i, h, highs):
        return F.idwt_layer(h, highs, self.bank)


_STRUCTURES = {
    # kind: (down-sampler, up-sampler, skip, wavelet[, down_layer, up_layer])
    "PU": _Structure(Network._pool_indices, Network._unpool, False, False),
    "PDc": _Structure(Network._pool_skip, Network._deconv_concat, True, False, None, Deconv2),
    "ScIn": _Structure(Network._sconv_skip, Network._interpolate_concat, True, False, SConv2),
    "DDc": _Structure(Network._dwt_low_skip, Network._deconv_concat, True, True, None, Deconv2),
    "DIn": _Structure(Network._dwt_low_skip, Network._interpolate_concat, True, True),
    "DI": _Structure(Network._dwt, Network._idwt, False, True),
    "DIDn": _Structure(Network._dwt_shrunk, Network._idwt, False, True),
}
DUAL_STRUCTURES = tuple(_STRUCTURES)
WAVELET_STRUCTURES = tuple(kind for kind, s in _STRUCTURES.items() if s.wavelet)


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
        rows.append(LayerInfo(path, module.describe(), count))
    return rows


def format_description(spec: NetworkSpec) -> str:
    rows = describe(spec)
    total = sum(r.count for r in rows)
    width = max(len(r.path) for r in rows)
    lines = [f"{r.path:<{width}}  {r.detail:<48} {r.count:>8}" for r in rows]
    lines.append(f"{'total':<{width}}  {'':<48} {total:>8}")
    return "\n".join(lines)
