"""Exception hierarchy shared across the package."""


class WavecubeError(Exception):
    """Base class for all wavecube errors."""


class UnknownWaveletError(WavecubeError):
    """Requested wavelet name is not one of the built-in banks."""


class WaveletMismatchError(WavecubeError):
    """Subbands are reconstructed with a bank other than the one that made them."""


class OddExtentError(WavecubeError):
    """A transform was asked to halve an odd spatial extent."""


class TooSmallError(WavecubeError):
    """A spatial extent is too small to transform (< 2 voxels)."""


class ShapeMismatchError(WavecubeError):
    """Arrays that must share a shape do not."""


class ChannelMismatchError(WavecubeError):
    """Layer input channel count does not match its parameters."""


class IndivisibleExtentError(WavecubeError):
    """Network input extents are not divisible by 2**levels."""


class StateMismatchError(WavecubeError, KeyError):
    """A state to load names entries the network lacks, or lacks entries it
    has.  Also a `KeyError`, the exception of a missing mapping key."""

    __str__ = WavecubeError.__str__  # the message as given, not KeyError's repr


class TapeConsumedError(WavecubeError):
    """backward() was called twice on the same gradient tape."""


class TapeMisuseError(WavecubeError):
    """A gradient tape was closed in a thread other than the one that opened
    it, or before a tape opened inside it, or backward() was given a loss
    that another tape recorded."""


class NonFiniteGradientError(WavecubeError):
    """A parameter gradient contains NaN or Inf; carries the layer path."""

    def __init__(self, layer: str):
        super().__init__(f"non-finite gradient in layer '{layer}'")
        self.layer = layer


class NonFiniteLossError(WavecubeError):
    """The training loss is NaN or Inf; carries the iteration and the value."""

    def __init__(self, iteration: int, value: float):
        super().__init__(f"non-finite loss {value} at iteration {iteration}")
        self.iteration = iteration
        self.value = value


class SwcFormatError(WavecubeError):
    """Malformed SWC line; message carries line number and content."""


class DuplicateNodeError(WavecubeError):
    """Two SWC nodes share an id."""


class DanglingParentError(WavecubeError):
    """An SWC node references a parent id that does not exist."""


class CycleError(WavecubeError):
    """The SWC parent relation contains a cycle."""


class BadMagicError(WavecubeError):
    """A volume file does not start with the NVOL magic."""


class TruncatedPayloadError(WavecubeError):
    """A volume file payload is shorter/longer than its header declares."""
