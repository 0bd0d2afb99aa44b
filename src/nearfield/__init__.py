"""Radiative near-field array modelling: focusing, depth multiplexing, and
LOS MIMO capacity."""

__version__ = "0.1.0"

from .geometry import (ArrayGeometry, RegionBounds, boundary_distances,
                       build_upa, classify)

__all__ = [
    "ArrayGeometry",
    "build_upa",
    "RegionBounds",
    "boundary_distances",
    "classify",
    "__version__",
]
