from .cubes import CubeRecord, cut_cubes
from .phantom import PhantomConfig, generate_phantom, generate_phantom_dataset
from .rasterize import rasterize
from .swc import SwcMorphology, SwcNode, parse_swc, serialize_swc
from .volume_io import read_volume, write_volume

__all__ = [
    "CubeRecord", "PhantomConfig", "SwcMorphology", "SwcNode", "cut_cubes",
    "generate_phantom", "generate_phantom_dataset", "parse_swc", "rasterize", "read_volume",
    "serialize_swc", "write_volume",
]
