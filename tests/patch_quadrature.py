"""Generic adaptive 2-D quadrature over a rectangle: a test-only oracle for
the library's specialised field kernels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from nearfield.numerics import AccuracyError


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
