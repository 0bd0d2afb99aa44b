"""Near-/far-field boundary distances and region classification."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import ArrayGeometry

REACTIVE = "reactive"
RADIATIVE_NEAR_FIELD = "radiative-near-field"
FAR_FIELD = "far-field"

#: Rounded 8 * a3dB * d_FA / d_F for a square array (exact value 9.9373...).
#: This is the constant behind the square-array closed-form beam depth and
#: the canonical focal-point sequence d_FA/20, d_FA/40, ...
SQUARE_DEPTH_CONSTANT = 10.0


@dataclass(frozen=True)
class RegionBounds:
    """Boundary distances for an array geometry, all in meters.

    d_n   reactive near-field bound
    d_f   Fraunhofer distance of a single element (2 D^2 / lambda)
    d_b   twice the aperture diagonal; ~96% of max array gain beyond it
    d_fa  Fraunhofer distance of the whole aperture (2 W^2 / lambda)
    """

    d_n: float
    d_f: float
    d_b: float
    d_fa: float


def boundary_distances(geom: ArrayGeometry) -> RegionBounds:
    lam = geom.wavelength
    d = geom.element_diagonal
    w = geom.aperture_diagonal
    d_f = 2.0 * d * d / lam
    d_fa = 2.0 * w * w / lam
    d_b = 2.0 * w
    # Electrically small elements: lambda is the experimentally better bound.
    if d < lam:
        d_n = lam
    else:
        d_n = 0.62 * math.sqrt(d**3 / lam)
    return RegionBounds(d_n=d_n, d_f=d_f, d_b=d_b, d_fa=d_fa)


def classify(d: float, bounds: RegionBounds) -> str:
    """Array-level region label for an observation distance."""
    if d <= 0:
        raise ValueError("distance must be positive")
    if d <= bounds.d_n:
        return REACTIVE
    if d < bounds.d_fa:
        return RADIATIVE_NEAR_FIELD
    return FAR_FIELD
