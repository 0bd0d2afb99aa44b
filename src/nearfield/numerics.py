"""Shared numerical kernels: Fresnel integrals, 2-D quadrature, root finding,
dense complex linear algebra."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import optimize, special


class BracketError(ValueError):
    """The supplied bracket does not enclose a sign change."""


class AccuracyError(RuntimeError):
    """Quadrature refinement exhausted without meeting the tolerance.

    Carries the best available estimate in ``best_estimate``.
    """

    def __init__(self, message: str, best_estimate: complex):
        super().__init__(message)
        self.best_estimate = best_estimate


class RankError(ValueError):
    """A linear system or Gram matrix is (numerically) rank deficient."""


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


def fresnel_cs(x):
    """Fresnel integrals C(x) = int_0^x cos(pi t^2/2) dt and the sine analog.

    Accepts scalars or arrays; odd in x. Accurate to well below 1e-10.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("fresnel_cs requires finite input")
    s, c = special.fresnel(x)
    if x.ndim == 0:
        return float(c), float(s)
    return c, s


def solve_scalar_root(
    g: Callable[[float], float],
    bracket: Tuple[float, float],
    tol: float = 1e-12,
) -> float:
    """Root of a scalar function inside a sign-changing bracket."""
    lo, hi = bracket
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: g={g_lo}, {g_hi}")
    return float(optimize.brentq(g, lo, hi, xtol=tol, rtol=4 * np.finfo(float).eps))


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


def hermitian_eig(m: np.ndarray, atol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.conj().T).max() > atol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    idx = np.argsort(w)[::-1]
    return w[idx], v[:, idx]


def svd(m: np.ndarray):
    """Full SVD (U, singular values descending, V)."""
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u, s, vh.conj().T


def sinc(x):
    """Normalized sinc, sin(pi x)/(pi x)."""
    return np.sinc(x)
