"""Electric-field models and channel vectors for a planar array.

Two channel models coexist on purpose: a patch-integrated exact model for
on-axis sources (used to validate gain-vs-distance behavior) and a
per-element spherical-phase model for arbitrary focal/user positions. The
spherical phase is computed in one place, `spherical_phase`, which channel
vectors, beam maps and multi-user channels all call.

The exact model integrates the field of `efield_exact` over each element
by Gauss-Legendre quadrature (`element_field_integrals`), with its own
blocked evaluation of that field; tests compare the two. The on-axis field
is even in x and in y over the centred grid, so only the quadrant x >= 0,
y >= 0 is integrated and then mirrored, and the node grid is evaluated in
blocks of a fixed size, so memory stays bounded for any array size and
order. The reference |E|^2 integral over one element has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import ArrayGeometry
from .numerics import AccuracyError


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


@dataclass(frozen=True)
class ChannelVector:
    """Per-element complex channel coefficients, row-major (m, n) order."""

    coefficients: np.ndarray
    geometry: ArrayGeometry
    source_position: Tuple[float, float, float]

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.coefficients, self.coefficients).real)


#: Highest Gauss-Legendre order per axis that `element_field_integrals` tries.
_MAX_GAUSS_ORDER = 64

#: Most field samples `_quadrant_integrals` evaluates at once. It bounds the
#: kernel's scratch memory (four arrays of this many doubles, 1 MB) for any
#: array size and order; a block holds at least one element's order**2
#: samples. 2**15 measured about 10 % faster than 2**14 or 2**16.
_BLOCK_SAMPLES = 1 << 15


def _quadrant_integrals(geom: ArrayGeometry, z: float, order: int) -> np.ndarray:
    """Gauss integrals of the exact field over the elements with x >= 0 and
    y >= 0, as a (rows - rows // 2, cols - cols // 2) array.

    The source is on axis and the grid is centred, so the field is even in x
    and in y and these elements determine all others. Each element's nodes
    are the product of `order` x nodes and `order` y nodes, so the terms that
    depend on x alone are computed once per level. The node grid is
    evaluated in blocks of element rows and columns of at most
    `_BLOCK_SAMPLES` samples. The phase is split as exp(-ikz) exp(-ik(r - z))
    with the cancellation-free r - z = (x^2 + y^2) / (r + z), and
    exp(-ik(r - z)) is formed from t = tan(-k(r - z) / 2) as
    (1 - t^2 + 2it) / (1 + t^2), one tangent in place of a cosine and a sine.
    """
    m, n = geom.rows, geom.cols
    half = 0.5 * geom.element_side
    k = 2.0 * np.pi / geom.wavelength
    centers = geom.element_centers().reshape(m, n, 2)
    nodes, weights = leggauss(order)
    x = (centers[0, n // 2:, 0, None] + half * nodes).ravel()
    y = (centers[m // 2:, 0, 1, None] + half * nodes).ravel()
    x2 = x * x
    y2 = y * y
    amp_x = np.sqrt(z * (x2 + z * z))
    rows, cols = len(y) // order, len(x) // order
    per_element = order * order
    block_cols = min(cols, max(1, _BLOCK_SAMPLES // per_element))
    block_rows = min(rows, max(1, _BLOCK_SAMPLES // (block_cols * per_element)))
    # four scratch arrays, reused in place by every block
    work = np.empty((4, block_rows * block_cols * per_element))
    out = np.empty((rows, cols), dtype=complex)
    for c0 in range(0, cols, block_cols):
        xs = slice(c0 * order, (c0 + block_cols) * order)
        for r0 in range(0, rows, block_rows):
            ys = slice(r0 * order, (r0 + block_rows) * order)
            shape = (len(y2[ys]), len(x2[xs]))
            a, b, c, t = (w[:shape[0] * shape[1]].reshape(shape) for w in work)
            rho2 = np.add.outer(y2[ys], x2[xs], out=a)
            r2 = np.add(rho2, z * z, out=b)
            r = np.sqrt(r2, out=c)
            np.add(r, z, out=t)
            np.divide(rho2, t, out=t)  # r - z
            t *= -0.5 * k
            np.tan(t, out=t)
            den = np.sqrt(r, out=c)
            den *= r2  # r^2.5
            t2 = np.multiply(t, t, out=a)
            den *= np.add(t2, 1.0, out=b)
            # |E| = sqrt(z (x^2 + z^2)) / (sqrt(4 pi) r^2.5); the constant
            # is applied to the result
            q = np.divide(amp_x[xs], den, out=c)
            re = np.subtract(1.0, t2, out=a)
            re *= q
            im = np.multiply(t, 2.0, out=t)
            im *= q
            # weighted sums over each element's x nodes, then its y nodes
            block = out[r0:r0 + block_rows, c0:c0 + block_cols]
            for part, dest in ((re, block.real), (im, block.imag)):
                sums = part.reshape(-1, order) @ weights
                dest[...] = weights @ sums.reshape(-1, order, block.shape[1])
    scale = half * half / math.sqrt(4.0 * np.pi)
    return out * (scale * np.exp(-2j * np.pi / geom.wavelength * z))


def _mirror(geom: ArrayGeometry, quadrant: np.ndarray) -> np.ndarray:
    """Row-major per-element vector from its x >= 0, y >= 0 quadrant."""
    def fold(count):
        i = np.arange(count)
        return np.maximum(i, count - 1 - i) - count // 2
    return quadrant[np.ix_(fold(geom.rows), fold(geom.cols))].ravel()


def _reference_power(geom: ArrayGeometry, z: float) -> float:
    """Integral of |E|^2 over an element-sized patch centred at the origin.

    In units of z, the integrand is (u^2 + 1) / (4 pi (u^2 + v^2 + 1)^(5/2))
    over |u|, |v| <= a = s / (2z). Its antiderivative (Bjornson and
    Sanguinetti, IEEE OJ-COMS 2020) is F(u, v) / (4 pi) with
    F(u, v) = uv / (3 (v^2 + 1) sqrt(u^2 + v^2 + 1))
              + (2/3) atan(uv / sqrt(u^2 + v^2 + 1)).
    F is odd in each argument, so the four signed corner terms sum to
    4 F(a, a).
    """
    a = 0.5 * geom.element_side / z
    a2 = a * a
    root = math.sqrt(2.0 * a2 + 1.0)
    corner = a2 / (3.0 * (a2 + 1.0) * root) + 2.0 / 3.0 * math.atan(a2 / root)
    return corner / math.pi


def element_field_integrals(geom: ArrayGeometry, z: float, tol: float = 1e-8):
    """Per-element integrals of the exact field, row-major, and the reference
    |E|^2 integral over an element-sized patch at the origin.

    Doubles the Gauss order from 4 until two successive levels agree on
    every element to the relative tolerance (relative to the largest
    element integral). Only the x >= 0, y >= 0 quadrant is integrated and
    checked, and mirrored to the full grid; mirrored elements have the same
    integrals, so the check accepts what a full-grid check would. The
    reference is exact (`_reference_power`). Raises `AccuracyError`, with
    the order-64 integrals as `best_estimate`, if order 64 does not meet the
    tolerance.
    """
    if not 0 < z < math.inf:
        raise ValueError("z must be finite and positive")
    order = 4
    prev = _quadrant_integrals(geom, z, order)
    while order < _MAX_GAUSS_ORDER:
        order *= 2
        cur = _quadrant_integrals(geom, z, order)
        scale = np.maximum(np.abs(cur), np.abs(prev)).max()
        if np.abs(cur - prev).max() <= tol * scale:
            return _mirror(geom, cur), _reference_power(geom, z)
        prev = cur
    raise AccuracyError(
        f"element integrals did not converge to rel tol {tol} by Gauss "
        f"order {_MAX_GAUSS_ORDER}", best_estimate=_mirror(geom, prev))


def channel_vector(geom: ArrayGeometry, source_z: float,
                   tol: float = 1e-8) -> ChannelVector:
    """Exact patch-integrated channel vector for an on-axis source."""
    integrals, _ = element_field_integrals(geom, source_z, tol=tol)
    coeffs = integrals / math.sqrt(geom.element_area)
    return ChannelVector(coefficients=coeffs, geometry=geom,
                         source_position=(0.0, 0.0, source_z))


def spherical_phase(centers: np.ndarray, wavelength: float,
                    points) -> Tuple[np.ndarray, np.ndarray]:
    """Spherical per-element phases and distances for a batch of points.

    `centers` is the (elements, 2) array of element centers in the z = 0
    plane and `points` a (points, 3) array of positions, or one position,
    with finite x, y and z > 0. Returns `(phases, dist)`, each of shape
    (points, elements), where `dist` is ||e_k - p|| and the phase is
    -(2 pi / lambda) * ||e_k - p|| up to a whole number of cycles per point.
    It is accumulated as ||p|| mod lambda plus a cancellation-free
    ||e_k - p|| - ||p||, so phase *differences* across the aperture stay
    accurate at arbitrarily large distances. A point at infinite z gives the
    broadside plane-wave limit: zero phase, infinite distance.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if not (np.all(np.isfinite(points[:, :2])) and np.all(points[:, 2] > 0)):
        raise ValueError("points must have finite x, y and z > 0")
    px, py, pz = points.T[:, :, None]
    ex, ey = centers.T
    dist = np.sqrt((ex - px) ** 2 + (ey - py) ** 2 + pz * pz)
    r = np.sqrt(px * px + py * py + pz * pz)
    delta = (ex * ex + ey * ey - 2.0 * (ex * px + ey * py)) / (dist + r)
    with np.errstate(invalid="ignore"):  # fmod(inf) at z = +inf, zeroed below
        phases = -2.0 * np.pi / wavelength * (np.fmod(r, wavelength) + delta)
    phases[np.isinf(pz[:, 0])] = 0.0
    return phases, dist


def fresnel_channel_vector(geom: ArrayGeometry, point) -> ChannelVector:
    """Unit-amplitude channel vector with exact spherical per-element phases
    (see `spherical_phase`)."""
    position = tuple(float(v) for v in point)
    phases, _ = spherical_phase(geom.element_centers(), geom.wavelength,
                                position)
    return ChannelVector(coefficients=np.exp(1j * phases[0]),
                         geometry=geom, source_position=position)
