"""Array gain, beam width, and beam depth for broadside focusing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .field import (element_field_integrals, fresnel_channel_vector,
                    spherical_phasors)
from .geometry import ArrayGeometry
from .numerics import fresnel_cs, solve_scalar_root
from .regions import boundary_distances

#: Rounded 8 * a3dB * d_FA / d_F for a square array (exact value 9.9373...).
#: This is the constant behind the square-array closed-form beam depth and
#: the canonical focal-point sequence d_FA/20, d_FA/40, ...
SQUARE_DEPTH_CONSTANT = 10.0


@dataclass(frozen=True)
class BeamMetrics:
    """3 dB focus-region metrics for a focal distance F."""

    bw_3db: float
    bd_3db: float
    bd_interval: Tuple[float, float]


def array_gain_exact(geom: ArrayGeometry, z: float, tol: float = 1e-6) -> float:
    """Normalized array gain from patch-integrated exact fields, in (0, 1].

    Total matched-filter power over all elements divided by the power of
    rows*cols reference elements at the origin. Raises `AccuracyError` if
    the element integrals do not converge (see `element_field_integrals`).
    """
    integrals, ref = element_field_integrals(geom, z, tol=tol)
    num = float(np.sum(np.abs(integrals) ** 2))
    return num / (geom.num_elements * geom.element_area * ref)


def gain_focal_plane(geom: ArrayGeometry, focal_distance: float,
                     x_r, y_r):
    """Normalized gain in the focal plane, closed form (separable sinc^2)."""
    if not (focal_distance > 0 and math.isfinite(focal_distance)):
        raise ValueError("focal distance must be finite and positive")
    m, n = geom.rows, geom.cols
    d = geom.element_diagonal
    lam = geom.wavelength
    ax = n / math.sqrt(2.0) * d * np.asarray(x_r) / (lam * focal_distance)
    ay = m / math.sqrt(2.0) * d * np.asarray(y_r) / (lam * focal_distance)
    return np.sinc(ax) ** 2 * np.sinc(ay) ** 2


def beam_width_3db(geom: ArrayGeometry, focal_distance: float) -> float:
    """3 dB beam width along x in the focal plane."""
    if not (focal_distance > 0 and math.isfinite(focal_distance)):
        raise ValueError("focal distance must be finite and positive")
    return 0.886 * math.sqrt(2.0) * geom.wavelength * focal_distance / (
        geom.cols * geom.element_diagonal)


def g_of_x(rows: int, cols: int, x):
    """Axial gain profile as a function of x = d_F / (8 z_eff); even in x."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.ones_like(ax)
    nz = ax > 0
    root = np.sqrt(ax[nz])
    # g is the product of the per-axis ratios |F(m sqrt x)|^2 / (m^2 x) for
    # F = C + iS; each is at most 1, so no finite x overflows g or makes 0/0
    ratio = {}
    for m in {rows, cols}:
        c, s = fresnel_cs(m * root)
        ratio[m] = (c**2 + s**2) / (m * m) / ax[nz]
    out[nz] = ratio[rows] * ratio[cols]
    if out.ndim == 0:
        return float(out)
    return out


def gain_axial(geom: ArrayGeometry, focal_distance: float, z_r: float) -> float:
    """Normalized gain on the beam axis at distance z_r when focused at F.

    An infinite focal distance uses z_eff = z_r; z_r = F is the removable
    singularity with gain 1.
    """
    if z_r <= 0:
        raise ValueError("z_r must be positive")
    d_f = boundary_distances(geom).d_f
    if math.isinf(focal_distance):
        z_eff = z_r
    elif z_r == focal_distance:
        return 1.0
    else:
        z_eff = z_r * focal_distance / abs(z_r - focal_distance)
    return float(g_of_x(geom.rows, geom.cols, d_f / (8.0 * z_eff)))


def solve_a3db(rows: int, cols: int) -> float:
    """Half-gain value of x = d_F/(8 z_eff), found numerically.

    With s = 2/(rows^2 + cols^2), a3dB/s lies in [0.869, 1.2422] for every
    shape: 1.2422 for a square array (rows^2 * a3dB = 1.2422, often rounded
    to 1.25) and 0.869 in the 1:inf limit. So the root is searched on the
    fixed bracket [s/2, 2 s], which holds the one half-gain crossing.
    """
    scale = 2.0 / (rows**2 + cols**2)
    return solve_scalar_root(lambda x: g_of_x(rows, cols, x) - 0.5,
                             (0.5 * scale, 2.0 * scale), tol=1e-18)


def beam_depth_3db(geom: ArrayGeometry, focal_distance: float,
                   a3db: Optional[float] = None) -> BeamMetrics:
    """3 dB depth interval and length for a beam focused at F.

    The depth is finite only for F < d_F / (8 a3dB). `a3db` defaults to the
    numerically exact half-gain parameter of this array shape.
    """
    if focal_distance <= 0:
        raise ValueError("focal distance must be positive")
    if a3db is None:
        a3db = solve_a3db(geom.rows, geom.cols)
    d_f = boundary_distances(geom).d_f
    f = focal_distance
    if math.isinf(f):
        z_lo = d_f / (8.0 * a3db)
        z_hi = math.inf
        bd = math.inf
        bw = math.inf
    else:
        z_lo = d_f * f / (d_f + 8.0 * a3db * f)
        if f < d_f / (8.0 * a3db):
            z_hi = d_f * f / (d_f - 8.0 * a3db * f)
            bd = 16.0 * a3db * d_f * f**2 / (d_f**2 - 64.0 * a3db**2 * f**2)
        else:
            z_hi = math.inf
            bd = math.inf
        bw = beam_width_3db(geom, f)
    return BeamMetrics(bw_3db=bw, bd_3db=bd, bd_interval=(z_lo, z_hi))


def beam_depth_square(geom: ArrayGeometry, focal_distance: float) -> float:
    """Square-array closed-form 3 dB beam depth (rounded constant 10)."""
    if geom.rows != geom.cols:
        raise ValueError("square-array form requires rows == cols")
    if focal_distance <= 0:
        raise ValueError("focal distance must be positive")
    d_fa = boundary_distances(geom).d_fa
    f = focal_distance
    c = SQUARE_DEPTH_CONSTANT
    if math.isinf(f) or f >= d_fa / c:
        return math.inf
    return 2.0 * c * d_fa * f**2 / (d_fa**2 - c**2 * f**2)


def _pattern_row(x_cols: np.ndarray, y_rows: np.ndarray, wavelength: float,
                 weights: np.ndarray, x_grid: np.ndarray,
                 z_grid: np.ndarray) -> np.ndarray:
    """|sum_k w_k h_k(p)|^2 for p = (x, 0, z) over the whole (z, x) grid, as
    a (len(z_grid), len(x_grid)) array, where the elements are the grid of
    `x_cols` by `y_rows` and `weights` is a (rows, cols, 2) array of
    [Re w, Im w].

    All grid points go to one `spherical_phasors` pass, and the sum runs
    block by block over its phasors, as real matrix products of their real
    and imaginary parts with `weights`.
    """
    xs, zs = np.meshgrid(x_grid, z_grid)
    points = np.column_stack([xs.ravel(), np.zeros(xs.size), zs.ravel()])
    cos_w = np.zeros((len(points), 2))  # sum of cos * [Re w, Im w]
    sin_w = np.zeros((len(points), 2))  # sum of sin * [Re w, Im w]
    for ps, rs, cs, re, im in spherical_phasors(x_cols, y_rows, wavelength,
                                                points):
        w = weights[rs, cs].reshape(-1, 2)
        cos_w[ps] += re.reshape(len(re), -1) @ w
        sin_w[ps] += im.reshape(len(im), -1) @ w
    gain = ((cos_w[:, 0] - sin_w[:, 1]) ** 2
            + (cos_w[:, 1] + sin_w[:, 0]) ** 2)
    return gain.reshape(xs.shape)


def beam_pattern_map(geom: ArrayGeometry, focal_point, x_grid,
                     z_grid) -> np.ndarray:
    """Normalized gain |h(F)^H h(p)|^2 / (||h(F)||^2 ||h(p)||^2) on an
    (x, z) grid, using the per-element spherical-phase channel model.

    Returns an array of shape (len(z_grid), len(x_grid)), from one blocked
    kernel pass (`_pattern_row`) over the whole grid. Every grid point lies
    in the y = 0 plane, where the elements at +y and -y see the same
    response, so the conjugate focus weights are folded onto the y >= 0
    element rows and only those rows are evaluated. This holds for any
    focal point, including one off the y = 0 plane.

    A focus at x = 0 (any y and z) makes the gain even in x over the centred
    aperture. If the grid is then symmetric, x = -x[::-1] to within four
    ulps of max |x|, only its x >= 0 half, x_grid[n // 2:], is evaluated
    and mirrored onto the other columns.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    z_grid = np.asarray(z_grid, dtype=float)
    if not np.all(z_grid > 0):
        raise ValueError("grid must satisfy z > 0")
    m, n = geom.rows, geom.cols
    w = np.conj(fresnel_channel_vector(geom, focal_point)).reshape(m, n)
    folded = w + w[::-1]
    if m % 2:
        folded[m // 2] *= 0.5  # the y = 0 row is its own mirror
    folded = folded[m // 2:]
    weights = np.stack([folded.real, folded.imag], axis=-1)
    x_cols, y_rows = geom.element_axes()
    count = len(x_grid)
    mirror = (focal_point[0] == 0.0 and np.all(
        np.abs(x_grid + x_grid[::-1])
        <= 4.0 * np.spacing(np.abs(x_grid).max(initial=0.0))))
    half = count // 2 if mirror else 0
    gains = _pattern_row(x_cols, y_rows[m // 2:], geom.wavelength, weights,
                         x_grid[half:], z_grid)
    if mirror:  # column j takes the gain at x_grid[count - 1 - j] for j < half
        j = np.arange(count)
        gains = gains[:, np.maximum(j, count - 1 - j) - half]
    return gains / geom.num_elements**2
