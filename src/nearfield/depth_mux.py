"""Depth-domain multi-user multiplexing: focal planning, channels,
zero-forcing, SINR.

Focal planning is closed-form arithmetic on the region bounds, so importing
this module loads neither numpy nor `beam`; the channel, precoder and SINR
functions import numpy when they run.

The channel matrix comes from one blocked kernel pass that forms each
user's phasors, with their free-space amplitude, and copies each block
into it (`field.phasor_rows`). Beyond the zero-forcing Gram product, the
precoders make no temporary of the channel's size: W is their only array
of that size, and it is scaled in place or formed in one multiply.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .geometry import SQUARE_DEPTH_CONSTANT, ArrayGeometry, boundary_distances
from .numerics import RankError, check_non_negative, check_positive

if TYPE_CHECKING:
    import numpy as np

#: SINR cap for the degenerate interference-free, noise-free case.
SINR_CAP = 1e30

#: Condition-number threshold on the Gram matrix beyond which zero-forcing
#: is treated as non-existent (users not resolvable).
GRAM_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class FocalPlan:
    """Focal distances (descending, first may be inf) with contiguous,
    pairwise disjoint 3 dB depth intervals."""

    focal_points: Tuple[float, ...]
    intervals: Tuple[Tuple[float, float], ...]
    d_min: float


@dataclass(frozen=True)
class MultiUserChannel:
    """Downlink channel matrix; column k is user k's channel vector."""

    matrix: np.ndarray  # (num_elements, K)


def planning_depth_parameter(geom: ArrayGeometry, exact: bool = False) -> float:
    """Half-gain depth parameter used by the focal-point planner.

    The default is the rounded square-array convention 8*a3dB =
    SQUARE_DEPTH_CONSTANT*d_F/d_FA, that is 2.5/(rows^2+cols^2) for the
    constant 10. It generates the canonical focal sequence d_FA/20,
    d_FA/40, ... With exact=True the numerically solved
    shape-dependent value is used instead (about 0.6% smaller for squares,
    substantially smaller for elongated arrays).
    """
    if exact:
        from .beam import solve_a3db

        return solve_a3db(geom.rows, geom.cols)
    return SQUARE_DEPTH_CONSTANT / (4.0 * (geom.rows**2 + geom.cols**2))


def plan_depth_focal_points(geom: ArrayGeometry, d_min: Optional[float] = None,
                            a3db: Optional[float] = None) -> FocalPlan:
    """Far-to-near focal points with contiguous 3 dB depth intervals.

    The first focal point is at infinity and covers [d_F/(8 a3dB), inf);
    the others are d_F/(16 a3dB j), j = 1, 2, ..., and each interval's
    upper endpoint equals the previous lower endpoint. Focal points below
    d_min are not admitted. d_min defaults to the geometry's d_B bound.
    Raises `ValueError` if the plan would have more focal points than the
    array has elements: no precoder resolves more users than antennas. A
    plan beyond memory raises `MemoryError` at once, before it is filled.
    """
    bounds = boundary_distances(geom)
    if d_min is None:
        d_min = bounds.d_b
    check_positive("d_min", d_min)
    if a3db is None:
        a3db = planning_depth_parameter(geom)
    check_positive("a3db", a3db)
    inv_tau = bounds.d_f / (8.0 * a3db)  # first interval's lower endpoint
    # the finite focal points are inv_tau / (2j) for j = 1..n, down to d_min;
    # the relative 1e-9 keeps a point that lands on d_min despite rounding
    finite_points = inv_tau / (2.0 * d_min * (1.0 - 1e-9))
    if not finite_points < geom.num_elements:
        raise ValueError(
            f"d_min = {d_min:.6g} m admits more focal points than the "
            f"{geom.num_elements} array elements")
    if d_min < bounds.d_b:
        warnings.warn("d_min below d_B: gain and interval approximations "
                      "degrade close to the array", stacklevel=2)
    # j = 0 is the point at infinity; interval j is bounded by
    # inv_tau / (2j + 1) below and by interval j - 1's lower end above
    j = range(int(finite_points) + 1)
    lower = [0.0] * len(j)  # allocated first, so a plan beyond memory fails
    for i in j:
        lower[i] = inv_tau / (2.0 * i + 1.0)
    return FocalPlan(
        focal_points=(math.inf, *(inv_tau / (2.0 * i) for i in j[1:])),
        intervals=tuple(zip(lower, [math.inf] + lower[:-1])), d_min=d_min)


def plan_user_positions(plan: FocalPlan,
                        geom: ArrayGeometry) -> List[Tuple[float, float, float]]:
    """On-axis user positions for a focal plan; the infinite focal point is
    represented by a user at z = d_FA (inside its interval)."""
    d_fa = boundary_distances(geom).d_fa
    return [(0.0, 0.0, d_fa if math.isinf(f) else f)
            for f in plan.focal_points]


def build_mu_channel(geom: ArrayGeometry, users: Sequence[Sequence[float]],
                     per_element_amplitude: bool = False) -> MultiUserChannel:
    """Channel matrix with one column per user.

    Column k carries the spherical-phase vector of user k scaled by
    sqrt(beta_k) with beta_k = (lambda / (4 pi d_k))^2 (uniform-gain
    approximation). With per_element_amplitude=True the free-space amplitude
    is evaluated per element instead. Raises `ValueError` for a user whose
    column's power leaves the float range (`field.spherical_phasors`).
    """
    from .field import phasor_rows

    users = [tuple(float(v) for v in u) for u in users]
    if not users:
        raise ValueError("need at least one user")
    if len(set(users)) < len(users):
        warnings.warn("duplicate user positions give a rank-deficient channel",
                      stacklevel=2)
    # (users, elements) rows, transposed: the matrix is Fortran-ordered
    rows = phasor_rows(geom, users,
                       "element" if per_element_amplitude else "point")
    return MultiUserChannel(matrix=rows.T)


def zf_precoder(h: np.ndarray, total_power: float = 1.0) -> np.ndarray:
    """Zero-forcing precoder W = alpha H (H^H H)^-1, scaled to the total
    power budget tr(W^H W) = total_power.

    tr(W^H W) is one inner product over W's memory, and W is scaled in
    place, so no temporary of H's size is made after the Gram product.
    Raises `RankError` if the Gram matrix is singular or ill-conditioned.
    """
    import numpy as np

    check_positive("total_power", total_power)
    h = np.asarray(h)
    gram = h.conj().T @ h
    try:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
            raise RankError(
                f"channel matrix is not full rank (Gram condition {cond:.3e})")
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"channel Gram matrix: {exc}") from None
    w = h @ inverse
    flat = w.ravel(order="K")  # a view: w is a new contiguous array
    w *= math.sqrt(total_power / np.vdot(flat, flat).real)
    return w


def matched_filter_precoder(h: np.ndarray, total_power: float = 1.0) -> np.ndarray:
    """Per-user matched filter (conjugate beamforming) with equal power.

    The column norms are one reduction over the real view of H^T, which
    reads H in place in any memory order, and W is one multiply.
    """
    import numpy as np

    check_positive("total_power", total_power)
    h = np.asarray(h)
    k = h.shape[1]
    parts = h.T[..., None].view(h.real.dtype)  # (K, elements, 2): [Re, Im]
    norms = np.sqrt(np.einsum("knc,knc->k", parts, parts))
    return h * (math.sqrt(total_power / k) / norms)


def evaluate_sinr(h: np.ndarray, w: np.ndarray, noise_power: float,
                  bandwidth: float = 1.0):
    """Per-user SINRs and the sum rate for a precoded downlink.

    SINR_k = |h_k^H w_k|^2 / (sum_{i != k} |h_k^H w_i|^2 + noise_power);
    sum rate = bandwidth * sum_k log2(1 + SINR_k). Noise-free,
    interference-free users get the SINR_CAP sentinel.
    """
    import numpy as np

    check_non_negative("noise_power", noise_power)
    check_positive("bandwidth", bandwidth)
    cross = np.asarray(h).conj().T @ np.asarray(w)  # (K, K): h_k^H w_i
    signal = np.abs(np.diag(cross)) ** 2
    interference = np.sum(np.abs(cross) ** 2, axis=1) - signal
    denom = interference + noise_power
    with np.errstate(divide="ignore", over="ignore"):
        sinr = np.where(denom > 0, signal / np.where(denom > 0, denom, 1.0),
                        SINR_CAP)
    sinr = np.minimum(sinr, SINR_CAP)
    sum_rate = bandwidth * float(np.sum(np.log2(1.0 + sinr)))
    return sinr, sum_rate
