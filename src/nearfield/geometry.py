"""Planar array geometry. Importing it does not load numpy; the element
coordinate arrays import it when they are built."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


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
        if self.element_side <= 0 or self.wavelength <= 0:
            raise ValueError("element_side and wavelength must be positive")

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
