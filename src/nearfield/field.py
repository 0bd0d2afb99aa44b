"""Electric-field models and channel vectors for a planar array.

Two channel models coexist on purpose: a patch-integrated exact model for
on-axis sources (used to validate gain-vs-distance behavior) and a
per-element spherical-phase model for arbitrary focal/user positions.

The spherical-phase model is evaluated by one blocked kernel,
`spherical_phasors`. It walks (points x elements) blocks of at most
`_BLOCK_SAMPLES` samples in reused scratch arrays, so its memory is bounded
for any array size and number of points. Channel vectors and multi-user
channel matrices (`phasor_rows`) write its blocks into their output. A beam
map reduces them against the focus weights in one pass over its whole grid;
for an on-axis focus on a symmetric grid that grid is only the x >= 0 half.

The exact model integrates the field of `efield_exact` over each element
by Gauss-Legendre quadrature (`element_field_integrals`), with its own
blocked evaluation of that field; tests compare the two. The on-axis field
is even in x and in y over the centred grid, so only the quadrant x >= 0,
y >= 0 is integrated and then mirrored, and the node grid is evaluated in
the same fixed-size blocks. The reference |E|^2 integral over one element
has a closed form.

Both kernels form e^{i phi} from t = tan(phi / 2) in `_tangent_phasor`:
one tangent per sample, where a complex exponential would cost a cosine
and a sine.
"""

from __future__ import annotations

import math

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


#: Highest Gauss-Legendre order per axis that `element_field_integrals` tries.
_MAX_GAUSS_ORDER = 64

#: Most samples `_quadrant_integrals` and `spherical_phasors` evaluate at
#: once. It bounds each kernel's scratch memory (four arrays of this many
#: doubles, 1 MB) for any array size, order and number of points; a
#: quadrature block holds at least one element's order**2 samples. For the
#: quadrature, 2**15 measured about 10 % faster than 2**14 or 2**16.
_BLOCK_SAMPLES = 1 << 15


def _tangent_phasor(t, t2, q, numerator=1.0, denominator=None):
    """(numerator / denominator) * e^{i phi} from t = tan(phi / 2), in place.

    Returns (re, im) = numerator / (denominator (1 + t^2)) * (1 - t^2, 2t),
    written over `t2` and `t`; `q` is scratch. One tangent replaces a cosine
    and a sine, and no complex exponential is taken. `numerator` and
    `denominator` (default 1) are scalars or arrays that broadcast against
    `t`; the amplitude takes one division with the 1 + t^2 of the phasor.
    """
    np.multiply(t, t, out=t2)
    np.add(t2, 1.0, out=q)
    if denominator is not None:
        q *= denominator
    np.divide(numerator, q, out=q)
    re = np.subtract(1.0, t2, out=t2)
    re *= q
    im = np.multiply(t, 2.0, out=t)
    im *= q
    return re, im


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
    exp(-ik(r - z)) is formed from t = tan(-k(r - z) / 2) by
    `_tangent_phasor`.
    """
    m, n = geom.rows, geom.cols
    half = 0.5 * geom.element_side
    k = 2.0 * np.pi / geom.wavelength
    x_cols, y_rows = geom.element_axes()
    nodes, weights = leggauss(order)
    x = (x_cols[n // 2:, None] + half * nodes).ravel()
    y = (y_rows[m // 2:, None] + half * nodes).ravel()
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
            # |E| = sqrt(z (x^2 + z^2)) / (sqrt(4 pi) r^2.5); the constant
            # is applied to the result
            re, im = _tangent_phasor(t, a, b, amp_x[xs], den)
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
                   tol: float = 1e-8) -> np.ndarray:
    """Exact patch-integrated channel vector for an on-axis source: one
    complex coefficient per element, row-major over (row, column)."""
    integrals, _ = element_field_integrals(geom, source_z, tol=tol)
    return integrals / math.sqrt(geom.element_area)


def spherical_phasors(x_cols: np.ndarray, y_rows: np.ndarray,
                      wavelength: float, points,
                      per_element_amplitude: bool = False):
    """Spherical per-element phasors e^{i phi} for a batch of points, in
    blocks.

    The elements sit in the z = 0 plane at (x_cols[c], y_rows[r]), row-major
    over (r, c). `points` is a (points, 3) array of positions, or one
    position, with finite x, y and z > 0. The phase is
    -(2 pi / lambda) ||e_k - p|| up to a whole number of cycles per point:
    it is -(2 pi / lambda) (||e_k - p|| - rho) for rho = ||p|| minus
    ||p|| mod lambda, a whole number of wavelengths. That difference is
    formed without cancellation, as
    (e_k.(e_k - 2p) + ||p||^2 - rho^2) / (||e_k - p|| + rho), so phase
    *differences* across the aperture stay accurate at arbitrarily large
    distances. A point at infinite z gives the broadside plane-wave limit,
    zero phase. With `per_element_amplitude` the phasors carry the
    free-space amplitude lambda / (4 pi ||e_k - p||), which is 0 at
    infinite z.

    Yields `(ps, rs, cs, re, im)`: slices of the points, element rows and
    element columns, and the real and imaginary parts of that
    (points, rows, columns) block. A block holds at most `_BLOCK_SAMPLES`
    samples: whole element rows where they fit, then as many rows and
    points as fit, so the innermost axis stays long however many points
    there are. `re` and `im` are views of scratch arrays that the next
    block overwrites; no points yield no blocks. Squared distances and
    phase numerators are sums of a row term and a column term, so only
    those are formed per sample.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if not (np.all(np.isfinite(points[:, :2])) and np.all(points[:, 2] > 0)):
        raise ValueError("points must have finite x, y and z > 0")
    px, py, pz = (v[:, None] for v in points.T)
    with np.errstate(over="ignore"):
        r = np.sqrt(px * px + py * py + pz * pz)
    finite = np.isfinite(r)
    if np.any(~finite & np.isfinite(pz)):
        raise ValueError("points must have a norm within the float range")
    cycles = np.zeros_like(r)  # ||p|| mod lambda
    np.fmod(r, wavelength, out=cycles, where=finite)
    rho = r - cycles
    rho_gap = np.zeros_like(r)  # ||p||^2 - rho^2; 0 at z = +inf
    np.multiply(cycles, r + rho, out=rho_gap, where=finite)
    # phases are scaled by -k / 2, the tangent's half angle
    half_k = -np.pi / wavelength
    free_space = wavelength / (4.0 * np.pi)
    count, rows, cols = len(points), len(y_rows), len(x_cols)
    if count == 0:
        return
    block_c = min(cols, _BLOCK_SAMPLES)
    block_r = min(rows, max(1, _BLOCK_SAMPLES // (count * block_c)))
    block_p = min(count, max(1, _BLOCK_SAMPLES // (block_r * block_c)))
    # four scratch arrays, reused in place by every block
    work = np.empty((4, block_p * block_r * block_c))
    for p0 in range(0, count, block_p):
        ps = slice(p0, p0 + block_p)
        for c0 in range(0, cols, block_c):
            cs = slice(c0, c0 + block_c)
            x = x_cols[cs]
            dx2 = (x - px[ps]) ** 2
            x_num = x * (x - 2.0 * px[ps]) * half_k
            for r0 in range(0, rows, block_r):
                rs = slice(r0, r0 + block_r)
                y = y_rows[rs]
                dy2 = (y - py[ps]) ** 2 + pz[ps] ** 2
                y_num = (y * (y - 2.0 * py[ps]) + rho_gap[ps]) * half_k
                shape = (dx2.shape[0], len(y), len(x))
                a, b, c, d = (w[:math.prod(shape)].reshape(shape)
                              for w in work)
                dist = np.add(dy2[:, :, None], dx2[:, None, :], out=b)
                np.sqrt(dist, out=dist)
                t = np.add(y_num[:, :, None], x_num[:, None, :], out=a)
                t /= np.add(dist, rho[ps, :, None], out=c)
                np.tan(t, out=t)
                if per_element_amplitude:  # lambda / (4 pi ||e_k - p||)
                    re, im = _tangent_phasor(t, c, d, free_space, dist)
                else:
                    re, im = _tangent_phasor(t, c, d)
                yield ps, rs, cs, re, im


def phasor_rows(geom: ArrayGeometry, points, per_element_amplitude=False,
                scale=1.0) -> np.ndarray:
    """(points, elements) complex array of the phasors of
    `spherical_phasors` over the whole array, times a per-point `scale`
    (a scalar or one value per point)."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    scale = np.broadcast_to(np.asarray(scale, dtype=float),
                            (len(points),))[:, None, None]
    out = np.empty((len(points), geom.rows, geom.cols), dtype=complex)
    x_cols, y_rows = geom.element_axes()
    for ps, rs, cs, re, im in spherical_phasors(
            x_cols, y_rows, geom.wavelength, points, per_element_amplitude):
        block = out[ps, rs, cs]
        np.multiply(re, scale[ps], out=block.real)
        np.multiply(im, scale[ps], out=block.imag)
    return out.reshape(len(points), geom.num_elements)


def fresnel_channel_vector(geom: ArrayGeometry, point) -> np.ndarray:
    """Unit-amplitude channel vector with exact spherical per-element phases
    (see `spherical_phasors`), row-major over (row, column)."""
    return phasor_rows(geom, point)[0]
