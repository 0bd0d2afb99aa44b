"""Electric-field models and channel vectors for a planar array.

Two channel models coexist on purpose: a patch-integrated exact model for
on-axis sources (used to validate gain-vs-distance behavior) and a
per-element spherical-phase model for arbitrary focal/user positions.

The spherical-phase model is evaluated by one blocked kernel,
`spherical_phasors`. It walks (points x elements) blocks of at most
`_BLOCK_SAMPLES` samples in reused scratch arrays, so its memory is bounded
for any array size and number of points. It forms the free-space amplitude
lambda / (4 pi d) and checks its range. It yields each block in its scratch
arrays, and each consumer reduces or stores it: channel vectors and
multi-user channel matrices (`phasor_rows`) copy each block into the real and
imaginary planes of their output, and a beam map reduces unit phasors
against the focus weights in one pass over its whole grid; for an on-axis
focus on a symmetric grid that grid is only the x >= 0 half.

The exact model integrates the field of an on-axis source at (0, 0, z),
E = sqrt(z (x^2 + z^2)) / (sqrt(4 pi) r^2.5) e^{-ikr} at (x, y, 0) with
r^2 = x^2 + y^2 + z^2, over each element by Gauss-Legendre quadrature
(`element_field_integrals`). The tests check it against a direct
evaluation of that field and a generic adaptive quadrature
(`tests/patch_quadrature.py`). The on-axis field is even in x and in y over
the centred grid, so only the quadrant x >= 0, y >= 0 is integrated and
then mirrored, and the node grid is evaluated in the same fixed-size
blocks.

Both kernels form e^{i phi} from t = tan(phi / 2) in `_tangent_phasor`:
one tangent per sample, where a complex exponential would cost a cosine
and a sine.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import ArrayGeometry
from .numerics import AccuracyError, check_positive


#: Gauss-Legendre orders per axis that `element_field_integrals` tries in
#: turn, each about sqrt(2) times the last, so each level has about twice
#: the samples of the one before it.
_GAUSS_ORDERS = (2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64)

#: Highest Gauss-Legendre order per axis that `element_field_integrals` tries.
_MAX_GAUSS_ORDER = _GAUSS_ORDERS[-1]

#: Most samples `_quadrant_integrals` and `spherical_phasors` evaluate at
#: once. It bounds each kernel's scratch memory (four arrays of this many
#: doubles, 1 MB) for any array size, order and number of points; a
#: quadrature block holds at least one element's order**2 samples. For the
#: quadrature, 2**15 measured about 10 % faster than 2**14 or 2**16.
_BLOCK_SAMPLES = 1 << 15


def _scratch(size: int) -> np.ndarray:
    """Four scratch rows of at least `size` doubles, each starting on a
    64-byte boundary: a cache line, and the widest SIMD vector.

    Left to the heap, a row's offset from a line follows whatever was
    allocated before it, and a beam map whose rows started 16 or 32 bytes
    past a line measured 5-10 % slower.
    """
    stride = -(-size // 8) * 8  # whole 64-byte lines per row
    buf = np.empty(4 * stride + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + 4 * stride].reshape(4, stride)


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
    re = np.multiply(np.subtract(1.0, t2, out=t2), q, out=t2)
    im = np.multiply(np.multiply(t, 2.0, out=t), q, out=t)
    return re, im


@functools.lru_cache(maxsize=None)  # at most the 11 _GAUSS_ORDERS
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1] for `order` points, as
    read-only arrays: computed once per order and shared by every call."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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
    nodes, weights = _gauss_legendre(order)
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
    work = _scratch(block_rows * block_cols * per_element)
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
    """Row-major per-element vector from its x >= 0, y >= 0 quadrant: the
    rows and columns before it are its mirror images."""
    rows = np.concatenate((quadrant[::-1][:geom.rows // 2], quadrant))
    return np.concatenate((rows[:, ::-1][:, :geom.cols // 2], rows),
                          axis=1).ravel()


def element_field_integrals(geom: ArrayGeometry, z: float, tol: float = 1e-8):
    """Per-element integrals of the exact field, row-major.

    Tries the Gauss orders of `_GAUSS_ORDERS` (2, 3, 4, 6, ..., 45, 64, each
    about sqrt(2) times the last) until two successive levels agree on
    every element to the relative tolerance (relative to the largest
    element integral). So a far point can be accepted at order 3, and the
    level that confirms an order has about twice the samples of the level
    before it, not four times. Only the x >= 0, y >= 0 quadrant is
    integrated and checked, and mirrored to the full grid; mirrored
    elements have the same integrals, so the check accepts what a
    full-grid check would. Raises `AccuracyError`, with the order-64
    integrals as `best_estimate`, if order 64 does not meet the tolerance,
    and `ValueError` before any level if z is so large that the field's
    amplitude numerator z (x^2 + z^2) overflows, beyond about 5.6e102 m.
    """
    check_positive("z", z)
    check_positive("tol", tol)
    x_edge = 0.5 * geom.cols * geom.element_side  # bounds every node's |x|
    if math.isinf(z * (x_edge * x_edge + z * z)):
        raise ValueError(f"z = {z:g} m is beyond the float range of the "
                         "exact field's amplitude")
    prev = _quadrant_integrals(geom, z, _GAUSS_ORDERS[0])
    for order in _GAUSS_ORDERS[1:]:
        cur = _quadrant_integrals(geom, z, order)
        scale = np.maximum(np.abs(cur), np.abs(prev)).max()
        if np.abs(cur - prev).max() <= tol * scale:
            return _mirror(geom, cur)
        prev = cur
    raise AccuracyError(
        f"element integrals did not converge to rel tol {tol} by Gauss "
        f"order {_MAX_GAUSS_ORDER}", best_estimate=_mirror(geom, prev))


def spherical_phasors(x_cols: np.ndarray, y_rows: np.ndarray,
                      wavelength: float, points, amplitude=None):
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
    distances. A point within a wavelength of the centre has rho = 0, and
    its phase is formed from ||e_k - p|| directly: phase 0 right on an
    element. A point at infinite z gives the broadside plane-wave limit,
    zero phase. `amplitude` is None for unit phasors, "point" for the
    free-space amplitude lambda / (4 pi ||p||) per point, or "element" for
    lambda / (4 pi ||e_k - p||); both are 0 at infinite z. `ValueError` is
    raised before any block if a point's power over the N elements, at most
    N (lambda / (4 pi d))^2 for d = ||p|| or z, is not a finite float.

    Yields `(ps, rs, cs, re, im)`: slices of the points, element rows and
    element columns, and the real and imaginary parts of that
    (points, rows, columns) block. A block holds at most `_BLOCK_SAMPLES`
    samples: whole element rows where they fit, then as many rows and
    points as fit, so the innermost axis stays long however many points
    there are. `re` and `im` are views of scratch arrays that the next
    block overwrites, so a consumer must reduce or copy them before it asks
    for the next block; no points yield no blocks. Squared distances and
    phase numerators are sums of a row term and a column term, so only those
    are formed per sample.
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
    count, rows, cols = len(points), len(y_rows), len(x_cols)
    numerator = 1.0
    if amplitude is not None:
        # the nearest distance: ||p|| by hypot, as the squares in r of tiny
        # coordinates underflow, or z, which no element is nearer than
        near = {"point": np.hypot(np.hypot(px, py), pz),
                "element": pz}[amplitude]
        with np.errstate(over="ignore"):
            peak = wavelength / (4.0 * np.pi * near)
            power = rows * cols * peak * peak
        if not np.all(np.isfinite(power)):
            raise ValueError(f"a point {near.min():g} m from the array puts "
                             "its phasors' power beyond the float range")
        # per point, or over the per-element distance in each block
        numerator = (peak[:, :, None] if amplitude == "point"
                     else wavelength / (4.0 * np.pi))
    cycles = np.zeros_like(r)  # ||p|| mod lambda
    np.fmod(r, wavelength, out=cycles, where=finite)
    rho = r - cycles
    rho_gap = np.zeros_like(r)  # ||p||^2 - rho^2; 0 at z = +inf
    np.multiply(cycles, r + rho, out=rho_gap, where=finite)
    # points within a wavelength of the centre
    centre = rho[:, 0] == 0
    any_centre = bool(centre.any())
    # phases are scaled by -k / 2, the tangent's half angle
    half_k = -np.pi / wavelength
    if count == 0:
        return
    block_c = min(cols, _BLOCK_SAMPLES)
    block_r = min(rows, max(1, _BLOCK_SAMPLES // (count * block_c)))
    block_p = min(count, max(1, _BLOCK_SAMPLES // (block_r * block_c)))
    # four scratch arrays, reused in place by every block
    work = _scratch(block_p * block_r * block_c)
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
                rho_dist = np.add(dist, rho[ps, :, None], out=c)
                if any_centre and centre[ps].any():
                    # a point with rho = 0 has the quotient ||e_k - p||,
                    # whose numerator ||e_k - p||^2 cancels near an element
                    # and is 0 / 0 right on one
                    close = centre[ps]
                    t[close] = dist[close] * half_k
                    rho_dist[close] = 1.0
                t /= rho_dist
                np.tan(t, out=t)
                num = numerator[ps] if amplitude == "point" else numerator
                den = dist if amplitude == "element" else None
                re, im = _tangent_phasor(t, c, d, num, den)
                yield ps, rs, cs, re, im


def phasor_rows(geom: ArrayGeometry, points, amplitude=None) -> np.ndarray:
    """(points, elements) complex array of `spherical_phasors` over the
    whole array, each block copied into its real and imaginary planes."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    out = np.empty((len(points), geom.rows, geom.cols), dtype=complex)
    for ps, rs, cs, re, im in spherical_phasors(*geom.element_axes(),
                                                geom.wavelength, points,
                                                amplitude):
        block = out[ps, rs, cs]
        block.real, block.imag = re, im
    return out.reshape(len(points), geom.num_elements)


def fresnel_channel_vector(geom: ArrayGeometry, point) -> np.ndarray:
    """Unit-amplitude channel vector with exact spherical per-element phases
    (see `spherical_phasors`), row-major over (row, column)."""
    return phasor_rows(geom, point)[0]
