"""Planar array geometry and the near-/far-field boundary distances it
fixes. Importing it does not load numpy; the element coordinate arrays
import it when they are built."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .numerics import check_positive

if TYPE_CHECKING:
    import numpy as np

REACTIVE = "reactive"
RADIATIVE_NEAR_FIELD = "radiative-near-field"
FAR_FIELD = "far-field"

#: Rounded 8 * a3dB * d_FA / d_F for a square array (exact value 9.9373...).
#: This is the constant behind the square-array closed-form beam depth and
#: the canonical focal-point sequence d_FA/20, d_FA/40, ...
SQUARE_DEPTH_CONSTANT = 10.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array of contiguous square elements in the xy-plane.

    The grid is centered at the origin with broadside along +z. Element
    spacing equals the element side (gap-free tiling).
    """

    rows: int
    cols: int
    element_side: float
    wavelength: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        check_positive("element_side", self.element_side)
        check_positive("wavelength", self.wavelength)

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols

    @property
    def element_diagonal(self) -> float:
        return self.element_side * math.sqrt(2.0)

    @property
    def element_area(self) -> float:
        return self.element_side**2

    @property
    def aperture_diagonal(self) -> float:
        m, n = self.rows, self.cols
        return self.element_diagonal * math.sqrt((m * m + n * n) / 2.0)

    def element_axes(self):
        """Element center coordinates along x (one per column) and along y
        (one per row)."""
        import numpy as np

        m, n, s = self.rows, self.cols, self.element_side
        x = (np.arange(1, n + 1) - (n + 1) / 2.0) * s
        y = (np.arange(1, m + 1) - (m + 1) / 2.0) * s
        return x, y

    def element_centers(self) -> np.ndarray:
        """(rows*cols, 2) array of element centers, row-major (m, n) order."""
        import numpy as np

        xx, yy = np.meshgrid(*self.element_axes())
        return np.column_stack([xx.ravel(), yy.ravel()])


def build_upa(rows: int, cols: int, element_side: float, wavelength: float) -> ArrayGeometry:
    """Build a contiguous uniform planar array."""
    return ArrayGeometry(rows=rows, cols=cols, element_side=element_side,
                         wavelength=wavelength)


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
    check_positive("d", d, finite=False)
    if d <= bounds.d_n:
        return REACTIVE
    if d < bounds.d_fa:
        return RADIATIVE_NEAR_FIELD
    return FAR_FIELD
