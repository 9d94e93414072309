"""3D wavelet-integrated encoder-decoder segmentation of line-shaped structures."""

__version__ = "0.1.0"

from .arch import NetworkSpec, build, count_parameters, describe, paper_spec
from .estimator import WaveUNetSegmenter
from .filters import FilterBank, builtin_bank, tensor_filters, validate_bank
from .pipeline import assemble, iou, partition, segment_volume
from .train import TrainConfig, fit, poly_lr, sgd_step, weighted_cross_entropy
from .transform import (
    ShrinkConfig,
    SubbandSet,
    dwt3,
    hard_shrink,
    idwt3,
)

__all__ = [
    "FilterBank",
    "NetworkSpec",
    "ShrinkConfig",
    "SubbandSet",
    "TrainConfig",
    "WaveUNetSegmenter",
    "assemble",
    "build",
    "builtin_bank",
    "count_parameters",
    "describe",
    "dwt3",
    "fit",
    "hard_shrink",
    "idwt3",
    "iou",
    "paper_spec",
    "partition",
    "poly_lr",
    "segment_volume",
    "sgd_step",
    "tensor_filters",
    "validate_bank",
    "weighted_cross_entropy",
    "__version__",
]
