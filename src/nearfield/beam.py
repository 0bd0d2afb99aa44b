"""Array gain, beam width, and beam depth for broadside focusing.

The closed forms (focal-plane and axial gain, g(x), beam width and depth)
use `math` only: each evaluates one scalar routine per element of a float,
a list or an ndarray (`numerics.elementwise`). So importing this module
does not load numpy; the exact gain and the beam map import numpy and
`field` when they run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from .geometry import SQUARE_DEPTH_CONSTANT, ArrayGeometry, boundary_distances
from .numerics import (AccuracyError, _fresnel, check_positive, elementwise,
                       solve_scalar_root)

if TYPE_CHECKING:
    import numpy as np


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
    the element integrals do not converge (see `element_field_integrals`),
    or if the gain exceeds its Cauchy-Schwarz bound by more than `tol` and
    rounding: each element's |integral of E|^2 is at most its area times
    its integral of |E|^2, so G is at most the aperture's |E|^2 integral
    over that of the N reference elements.
    """
    import numpy as np

    from .field import _power_integral, element_field_integrals

    integrals, ref = element_field_integrals(geom, z, tol=tol)
    num = float(np.sum(np.abs(integrals) ** 2))
    gain = num / (geom.num_elements * geom.element_area * ref)
    half = 0.5 * geom.element_side / z
    bound = (_power_integral(geom.cols * half, geom.rows * half)
             / (geom.num_elements * ref))
    # far out G and B both round to within a few ulps of 1
    if gain > bound * (1.0 + tol + 64.0 * sys.float_info.epsilon):
        raise AccuracyError(f"exact gain {gain!r} at z = {z:g} m exceeds its "
                            f"Cauchy-Schwarz bound {bound!r}",
                            best_estimate=gain)
    return gain


def _sinc(v: float) -> float:
    """sin(pi v) / (pi v), formed as numpy.sinc forms it, with its limits:
    1 at v = 0 and 0 where pi v overflows to +-inf."""
    y = math.pi * v
    if not y:
        return 1.0
    return 0.0 if math.isinf(y) else math.sin(y) / y


def gain_focal_plane(geom: ArrayGeometry, focal_distance: float,
                     x_r, y_r):
    """Normalized gain in the focal plane, closed form (separable sinc^2).

    `x_r` and `y_r` are floats, lists or ndarrays (`numerics.elementwise`):
    floats give a float, a list a list, and an ndarray an ndarray of the
    broadcast shape. Raises `ValueError` if lambda F is below the normal
    floats, where the sinc arguments lose their digits or divide by 0.
    """
    m, n = geom.rows, geom.cols
    d = geom.element_diagonal
    kx = n / math.sqrt(2.0) * d
    ky = m / math.sqrt(2.0) * d
    scale = geom.wavelength * check_positive("focal_distance", focal_distance)
    if scale < sys.float_info.min:  # it divides every sinc argument
        raise ValueError(f"focal distance {focal_distance:g} m puts "
                         "lambda F below the normal floats")

    def gain(x: float, y: float) -> float:
        sx = _sinc(kx * x / scale)
        sy = _sinc(ky * y / scale)
        return sx * sx * (sy * sy)

    return elementwise(gain, x_r, y_r)


def beam_width_3db(geom: ArrayGeometry, focal_distance: float) -> float:
    """3 dB beam width along x in the focal plane."""
    check_positive("focal_distance", focal_distance)
    return 0.886 * math.sqrt(2.0) * geom.wavelength * focal_distance / (
        geom.cols * geom.element_diagonal)


def _axis_ratio(m: int, root: float, ax: float) -> float:
    """|F(m sqrt x)|^2 / (m^2 x) for F = C + iS, at most 1."""
    c, s = _fresnel(m * root)
    return (c * c + s * s) / (m * m) / ax


def _g(rows: int, cols: int, x: float) -> float:
    """g(x) for one float: the product of the per-axis ratios, each at most
    1, so no finite x overflows g or makes 0/0."""
    ax = abs(x)
    if not ax > 0:
        return 1.0
    root = math.sqrt(ax)
    ratio = _axis_ratio(rows, root, ax)
    return ratio * (ratio if cols == rows else _axis_ratio(cols, root, ax))


def g_of_x(rows: int, cols: int, x):
    """Axial gain profile as a function of x = d_F / (8 z_eff); even in x.

    A float gives a float, a list a list, and an ndarray an ndarray of its
    shape (`numerics.elementwise`).
    """
    return elementwise(lambda v: _g(rows, cols, v), x)


def gain_axial(geom: ArrayGeometry, focal_distance: float, z_r):
    """Normalized gain on the beam axis at distance(s) z_r when focused at F:
    g(x) at x = |x_F - x_z| with x_p = d_F/(8p), so (d_F/8)|1/F - 1/z_r|.

    F = inf gives x_F = 0, and z_r = F gives x = 0, g = 1; where x_z
    overflows, so does x, and g is 0. A float z_r gives a float, a list a
    list, and an ndarray an ndarray of its shape (`numerics.elementwise`).
    """
    q = boundary_distances(geom).d_f / 8.0
    x_f = q / check_positive("focal_distance", focal_distance, finite=False)
    rows, cols = geom.rows, geom.cols

    def gain(z: float) -> float:
        check_positive("z_r", z, finite=False)
        return _g(rows, cols, abs(x_f - q / z))

    return elementwise(gain, z_r)


def solve_a3db(rows: int, cols: int) -> float:
    """Half-gain value of x = d_F/(8 z_eff), found numerically.

    With s = 2/(rows^2 + cols^2), a3dB/s lies in [0.869, 1.2422] for every
    shape: 1.2422 for a square array (rows^2 * a3dB = 1.2422, often rounded
    to 1.25) and 0.869 in the 1:inf limit. So the one half-gain crossing is
    searched on the fixed bracket [s/2, 2 s], to a tolerance scaled by s.
    """
    scale = 2.0 / (rows**2 + cols**2)
    return solve_scalar_root(lambda x: g_of_x(rows, cols, x) - 0.5,
                             (0.5 * scale, 2.0 * scale), tol=1e-16 * scale)


def beam_depth_3db(geom: ArrayGeometry, focal_distance: float,
                   a3db: Optional[float] = None) -> BeamMetrics:
    """3 dB depth interval and length for a beam focused at F.

    The half-gain points have x_z = x_F -+ a3dB, with x_p = d_F/(8p) as in
    `gain_axial`. The far one, and so the depth, is finite only for
    x_F > a3dB, that is F < d_F / (8 a3dB). `a3db` defaults to the
    numerically exact half-gain parameter of this array shape. Raises
    `ValueError` for an F so small that x_F overflows.
    """
    q = boundary_distances(geom).d_f / 8.0
    check_positive("focal_distance", focal_distance, finite=False)
    x_f = q / focal_distance  # 0 for F = inf
    if x_f == math.inf:
        raise ValueError(f"focal distance {focal_distance:g} m puts d_F/(8F) "
                         "beyond the float range")
    if a3db is None:
        a3db = solve_a3db(geom.rows, geom.cols)
    z_lo = q / (x_f + a3db)
    if x_f > a3db:
        z_hi = q / (x_f - a3db)
        bd = 2.0 * a3db * q / ((x_f - a3db) * (x_f + a3db))
    else:
        z_hi = bd = math.inf
    bw = (beam_width_3db(geom, focal_distance)
          if math.isfinite(focal_distance) else math.inf)
    return BeamMetrics(bw_3db=bw, bd_3db=bd, bd_interval=(z_lo, z_hi))


def beam_depth_square(geom: ArrayGeometry, focal_distance: float) -> float:
    """Square-array closed-form 3 dB beam depth (rounded constant 10)."""
    if geom.rows != geom.cols:
        raise ValueError("square-array form requires rows == cols")
    d_fa = boundary_distances(geom).d_fa
    f = check_positive("focal_distance", focal_distance, finite=False)
    c = SQUARE_DEPTH_CONSTANT
    if f >= d_fa / c:  # inf included
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
    import numpy as np

    from .field import spherical_phasors

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
    import numpy as np

    from .field import _fold, fresnel_channel_vector

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
        gains = gains[:, _fold(count)]
    return gains / geom.num_elements**2
