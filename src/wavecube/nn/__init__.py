from .autograd import GradientTape, Tensor, as_tensor, backward
from .checkpoint import load_state, save_state
from .functional import (
    batchnorm,
    concat_channels,
    conv3,
    conv_bn_relu,
    deconv3,
    dwt_layer,
    dwt_low_layer,
    hard_shrink_layer,
    idwt_layer,
    interpolate2,
    maxpool2_with_indices,
    maxunpool2,
    relu,
    sconv2,
    tensor_dot,
)
from .layers import BatchNorm3, Conv3, ConvBNReLU, Deconv2, Layer, SConv2

__all__ = [
    "BatchNorm3", "Conv3", "ConvBNReLU", "Deconv2", "GradientTape", "Layer",
    "SConv2", "Tensor", "as_tensor", "backward", "batchnorm",
    "concat_channels", "conv3", "conv_bn_relu", "deconv3", "dwt_layer",
    "dwt_low_layer", "hard_shrink_layer", "idwt_layer", "interpolate2",
    "load_state", "maxpool2_with_indices", "maxunpool2", "relu", "save_state",
    "sconv2", "tensor_dot",
]
