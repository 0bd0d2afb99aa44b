"""Test-only oracles for the library's specialised field kernels: the exact
on-axis field evaluated directly, the exact channel vector built from the
library's element integrals, and a generic adaptive 2-D quadrature over a
rectangle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from nearfield.field import element_field_integrals
from nearfield.geometry import ArrayGeometry
from nearfield.numerics import AccuracyError


def efield_exact(x, y, z, wavelength: float):
    """Exact scalar field of an on-axis source at (0, 0, z), observed at
    (x, y, 0); normalized so the far-field on-axis amplitude is 1/(sqrt(4 pi) z)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.asarray(z) <= 0):
        raise ValueError("z must be positive")
    r2 = x * x + y * y + z * z
    amplitude = np.sqrt(z * (x * x + z * z)) / (np.sqrt(4.0 * np.pi) * r2**1.25)
    return amplitude * np.exp(-2j * np.pi / wavelength * np.sqrt(r2))


def channel_vector(geom: ArrayGeometry, source_z: float,
                   tol: float = 1e-8) -> np.ndarray:
    """Exact patch-integrated channel vector for an on-axis source: one
    complex coefficient per element, row-major over (row, column)."""
    integrals = element_field_integrals(geom, source_z, tol=tol)
    return integrals / math.sqrt(geom.element_area)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the xy-plane, lengths in meters."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError(f"degenerate rectangle: {self}")

    @property
    def area(self) -> float:
        return (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)


_MAX_GAUSS_ORDER = 256


def integrate_patch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    region: Rect,
    tol: float = 1e-8,
) -> complex:
    """Integral of a smooth complex-valued f(x, y) over a rectangle.

    Tensor-product Gauss-Legendre with order doubling until two successive
    levels agree to the relative tolerance.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cx = 0.5 * (region.x_lo + region.x_hi)
    cy = 0.5 * (region.y_lo + region.y_hi)
    hx = 0.5 * (region.x_hi - region.x_lo)
    hy = 0.5 * (region.y_hi - region.y_lo)

    def level(order: int) -> complex:
        nodes, weights = leggauss(order)
        x = cx + hx * nodes
        y = cy + hy * nodes
        vals = f(x[:, None], y[None, :])
        w2 = np.multiply.outer(weights, weights)
        return complex(hx * hy * np.sum(vals * w2))

    order = 4
    prev = level(order)
    while order < _MAX_GAUSS_ORDER:
        order *= 2
        cur = level(order)
        scale = max(abs(cur), abs(prev), np.finfo(float).tiny)
        if abs(cur - prev) <= tol * scale:
            return cur
        prev = cur
    raise AccuracyError(
        f"quadrature did not converge to rel tol {tol} by order {_MAX_GAUSS_ORDER}",
        best_estimate=prev,
    )
