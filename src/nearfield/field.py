"""Electric-field models and channel vectors for a planar array.

Two channel models coexist on purpose: a patch-integrated exact model for
on-axis sources (used to validate gain-vs-distance behavior) and a
per-element spherical-phase model for arbitrary focal/user positions. The
spherical phase is computed in one place, `spherical_phase`, which channel
vectors, beam maps and multi-user channels all call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import ArrayGeometry


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


def _patch_integrals(geom: ArrayGeometry, z: float, order: int) -> np.ndarray:
    """Gauss integrals of the exact field over every element, vectorized."""
    s = geom.element_side
    centers = geom.element_centers()
    nodes, weights = leggauss(order)
    half = 0.5 * s
    # (elements, order) node coordinates per axis
    gx = centers[:, 0][:, None] + half * nodes[None, :]
    gy = centers[:, 1][:, None] + half * nodes[None, :]
    vals = efield_exact(gx[:, :, None], gy[:, None, :], z, geom.wavelength)
    w2 = half * half * np.multiply.outer(weights, weights)
    return np.einsum("eij,ij->e", vals, w2)


def _reference_intensity_integral(geom: ArrayGeometry, z: float, order: int) -> float:
    """Integral of |E|^2 over an element-sized patch centered at the origin."""
    s = geom.element_side
    nodes, weights = leggauss(order)
    half = 0.5 * s
    g = half * nodes
    vals = np.abs(efield_exact(g[:, None], g[None, :], z, geom.wavelength)) ** 2
    w2 = half * half * np.multiply.outer(weights, weights)
    return float(np.sum(vals * w2))


def element_field_integrals(geom: ArrayGeometry, z: float, tol: float = 1e-8):
    """Adaptive per-element field integrals and the reference |E|^2 integral.

    Doubles the Gauss order until every element integral and the reference
    are stable to the relative tolerance.
    """
    if z <= 0:
        raise ValueError("z must be positive")
    order = 4
    prev = _patch_integrals(geom, z, order)
    prev_ref = _reference_intensity_integral(geom, z, order)
    while order < 64:
        order *= 2
        cur = _patch_integrals(geom, z, order)
        cur_ref = _reference_intensity_integral(geom, z, order)
        scale = np.maximum(np.abs(cur), np.abs(prev)).max()
        if (np.abs(cur - prev).max() <= tol * scale
                and abs(cur_ref - prev_ref) <= tol * cur_ref):
            return cur, cur_ref
        prev, prev_ref = cur, cur_ref
    return prev, prev_ref


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
