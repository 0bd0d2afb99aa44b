"""LOS SU-MIMO between broadside ULAs: channel synthesis, optimal spacing,
waterfilling capacity, sweep experiments, spatial degrees of freedom.

The link-budget functions (`free_space_gain`, `optimal_spacing`,
`equal_eigenvalue_capacity`, `capacity_bandwidth_sweep`,
`num_streams_for_area`, `capacity_frequency_sweep`, `spatial_dof`) use
`math` only, so importing this module does not load numpy; the matrix
functions import it when they run.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

from .geometry import wavelength_of
from .numerics import (AccuracyError, check_count, check_non_negative,
                       check_positive)

if TYPE_CHECKING:
    import numpy as np

    from .config import RadioParams


@dataclass(frozen=True)
class LosMimoLink:
    """LOS channel between two identical broadside ULAs."""

    num_antennas: int
    spacing: float
    wavelength: float
    h_exact: np.ndarray
    h_fresnel: np.ndarray
    beta: float


@dataclass(frozen=True)
class CapacityResult:
    capacity: float
    powers: np.ndarray
    k_used: int


def free_space_gain(wavelength: float, distance: float) -> float:
    """Friis path gain (lambda / (4 pi d))^2. Raises `ValueError` unless
    both lengths are finite and positive, and the gain a positive float."""
    lam = float(check_positive("wavelength", wavelength))
    d = float(check_positive("distance", distance))
    ratio = lam / (4.0 * math.pi * d)
    gain = ratio * ratio  # Python floats: an overflow gives inf, no warning
    if not 0.0 < gain < math.inf:
        raise ValueError(f"wavelength {lam:g} m at distance {d:g} m "
                         f"puts the path gain (lambda / (4 pi d))^2 = "
                         f"{gain:g} outside the float range")
    return gain


def _fresnel_scale(distance: float, wavelength: float) -> float:
    """d lambda, the scale of the Fresnel phases pi delta / (d lambda).
    `ValueError` below the normal floats, where one subnormal of error in
    d^2 or delta can move a phase by more than pi 2^-52 (7e-16 rad)."""
    scale = distance * wavelength
    if scale < sys.float_info.min:
        raise ValueError(f"distance {distance:g} m times wavelength "
                         f"{wavelength:g} m puts the Fresnel scale "
                         f"d lambda = {scale:g} m^2 below the normal floats")
    return scale


def build_los_mimo(num_antennas: int, spacing: float, distance: float,
                   wavelength: float) -> LosMimoLink:
    """Exact and Fresnel-approximate K x K LOS channel matrices.

    The exact matrix uses the full propagation phase 2 pi (d_mk - d)/lambda,
    which is the convention consistent with the Fresnel form
    exp(-j pi delta_mk / (d lambda)).
    Raises `ValueError` if the path gain or an antenna distance leaves the
    float range, or d lambda the normal floats (`_fresnel_scale`).
    """
    import numpy as np

    k = check_count("num_antennas", num_antennas)
    beta = free_space_gain(wavelength, distance)
    scale = _fresnel_scale(distance, wavelength)
    check_positive("spacing", spacing)
    extent = (k - 1) * spacing
    if not distance * distance + extent * extent < math.inf:
        raise ValueError(f"antenna distances overflow at distance "
                         f"{distance:g} m and spacing {spacing:g} m")
    idx = np.arange(1, k + 1)
    delta = ((idx[:, None] - idx[None, :]) * spacing) ** 2
    d_mk = np.sqrt(distance**2 + delta)  # receive m to transmit k
    beta_mk = (wavelength / (4.0 * np.pi * d_mk)) ** 2
    h_exact = np.sqrt(beta_mk) * np.exp(
        -2j * np.pi * (d_mk - distance) / wavelength)
    h_fresnel = math.sqrt(beta) * np.exp(-1j * np.pi * delta / scale)
    return LosMimoLink(num_antennas=k, spacing=spacing, wavelength=wavelength,
                       h_exact=h_exact, h_fresnel=h_fresnel, beta=beta)


def optimal_spacing(num_antennas: int, distance: float, wavelength: float) -> float:
    """Spacing that makes the Fresnel Gram matrix a scaled identity.
    Raises `ValueError` where sqrt(lambda d / K) overflows."""
    k = check_count("num_antennas", num_antennas)
    spacing = math.sqrt(check_positive("wavelength", wavelength)
                        * check_positive("distance", distance) / k)
    if spacing == math.inf:
        raise ValueError(f"distance {distance:g} m times wavelength "
                         f"{wavelength:g} m puts the optimal spacing "
                         "sqrt(lambda d / K) beyond the float range")
    return spacing


def offdiag_magnitude(num_antennas: int, spacing: float, distance: float,
                      wavelength: float, k: int, l: int) -> float:
    """|(k, l) off-diagonal entry| of the Fresnel Gram matrix, closed form
    (geometric series). The antenna indices k and l run from 1 to K."""
    num_antennas = check_count("num_antennas", num_antennas)
    check_positive("spacing", spacing)
    for name, index in (("k", k), ("l", l)):
        if check_count(name, index) > num_antennas:
            raise ValueError(f"{name} must be an antenna index from 1 to "
                             f"{num_antennas}, got {index!r}")
    if k == l:
        raise ValueError("k and l must differ")
    beta = free_space_gain(wavelength, distance)
    q = (l - k) * spacing**2 / _fresnel_scale(distance, wavelength)
    denom = 1.0 - cmath.exp(2j * math.pi * q)
    if abs(denom) < 1e-12:
        return beta * num_antennas
    num = 1.0 - cmath.exp(2j * math.pi * num_antennas * q)
    return beta * abs(num / denom)


def capacity_waterfilling(eigenvalues: Sequence[float], snr: float,
                          bandwidth: float = 1.0) -> CapacityResult:
    """Waterfilling over channel eigenvalues with unit total (fractional)
    power: p_i = max(0, mu - f_i), sum p_i = 1, with the floors
    f_i = 1/(snr lam_i) ascending. The streams used are the leading run
    with 1 + sum_{i<=r} (f_i - f_r) > 0, the level mu above f_r, and the k
    of them get p_i = (1 - sum_{j<=k} (f_i - f_j)) / k.

    Both sums are taken relative to the floors, so no 1 is lost against a
    floor above 1/eps: D_r = sum_{i<=r} (f_r - f_i) accumulates the
    non-negative steps (r - 1)(f_r - f_{r-1}), and
    p_i = (1 - D_k) / k + (f_k - f_i).

    Raises `ValueError` if snr times the largest eigenvalue overflows: the
    stream's rate log2(1 + snr lam p) would read infinite.
    """
    import numpy as np

    lam = np.asarray(eigenvalues, dtype=float)
    if not np.all(lam >= 0):
        raise ValueError("eigenvalues must be non-negative")
    check_positive("snr", snr)
    check_positive("bandwidth", bandwidth)
    top = float(lam.max(initial=0.0))
    if not snr * top < math.inf:
        raise ValueError(f"the SNR {snr:g} times the largest eigenvalue "
                         f"{top:g} is beyond the float range")
    order = np.argsort(lam)[::-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        floor = 1.0 / (snr * lam[order])
        # D_r; an infinite floor (lam = 0) makes it inf or nan from there on
        deficit = np.concatenate(
            ([0.0], np.cumsum(np.arange(1, lam.size) * np.diff(floor))))
    k_used = int(np.sum(np.logical_and.accumulate(
        (deficit < 1.0) & np.isfinite(floor))))
    powers = np.zeros_like(lam)
    if k_used:
        powers[order[:k_used]] = ((1.0 - deficit[k_used - 1]) / k_used
                                  + (floor[k_used - 1] - floor[:k_used]))
    capacity = bandwidth * float(
        np.sum(np.log1p(snr * lam * powers))) / math.log(2.0)
    return CapacityResult(capacity=capacity, powers=powers, k_used=k_used)


def equal_eigenvalue_capacity(num_streams: int, snr: float,
                              bandwidth: float = 1.0) -> float:
    """Capacity with equal eigenvalues and equal power split (closed form).
    An snr of 0, a signal below the float range, gives 0 bit/s."""
    # log1p keeps the rate of an snr below eps, where 1 + snr rounds to 1
    return (check_positive("bandwidth", bandwidth)
            * check_count("num_streams", num_streams)
            * (math.log1p(check_non_negative("snr", snr)) / math.log(2.0)))


@dataclass(frozen=True)
class BandwidthSweep:
    """Rates in bit/s, one per bandwidth of the sweep, as a tuple of
    floats; the infinite-bandwidth limit; the 80%-of-limit bandwidth."""

    rates: Tuple[float, ...]
    rate_limit: float
    bandwidth_80pct: float


#: log1p(y80) = 0.8 y80, y80 > 0: the double nearest 0.5385527622303237960
_Y80 = 0.5385527622303238


def capacity_bandwidth_sweep(power_over_noise: float, beta: float,
                             bandwidths: Sequence[float]) -> BandwidthSweep:
    """Single-stream rate B log2(1 + P beta/(B N0)) over a bandwidth range,
    plus the infinite-bandwidth limit and the 80%-of-limit bandwidth
    P beta / (N0 y80), where log1p(y80) = 0.8 y80 (`_Y80`).
    A bandwidth so narrow that P beta/(B N0) overflows still gets a finite
    rate. Raises `ValueError` if P beta or that bandwidth leaves the float
    range."""
    # received power over N0, in Hz
    s = check_positive("power_over_noise", power_over_noise) \
        * check_positive("beta", beta)
    b = [check_positive("bandwidths", float(v)) for v in bandwidths]
    if not b:
        raise ValueError("bandwidths must be non-empty")
    b80 = s / _Y80
    if not (0.0 < s and b80 < math.inf):
        raise ValueError(f"received power over noise density P beta = {s:g} "
                         "Hz is outside the float range of the sweep")

    def rate(bandwidth: float) -> float:
        snr = s / bandwidth
        if snr < math.inf:
            return bandwidth * math.log1p(snr) / math.log(2.0)
        # s/B overflows: log1p(s/B) = log(s) - log(B) + log1p(B/s)
        return bandwidth * (math.log(s) - math.log(bandwidth)
                            + math.log1p(bandwidth / s)) / math.log(2.0)

    limit = math.log2(math.e) * s
    return BandwidthSweep(rates=tuple(map(rate, b)), rate_limit=limit,
                          bandwidth_80pct=b80)


def num_streams_for_area(area: float, distance: float, wavelength: float,
                         antenna_width: float) -> int:
    """Largest K >= 1 whose optimally spaced ULA fits the array side
    sqrt(area): sqrt(lambda d / K)(K-1) + antenna_width <= sqrt(area), that
    is (K-1)/sqrt(K) <= c = (sqrt(area) - antenna_width)/sqrt(lambda d). So
    K = floor(((c + sqrt(c^2 + 4))/2)^2) up to rounding, which a few steps
    correct. Raises `ValueError` beyond 2^53, where a float no longer tells
    K from K + 1, and where lambda d / K underflows, so the fit test cannot
    tell them either."""
    side = math.sqrt(check_positive("area", area))
    check_positive("distance", distance)
    check_positive("wavelength", wavelength)
    check_non_negative("antenna_width", antenna_width)

    def fits(k: int) -> bool:
        return math.sqrt(wavelength * distance / k) * (k - 1) \
            + antenna_width <= side

    c = (side - antenna_width) / (math.sqrt(wavelength) * math.sqrt(distance))
    root = 0.5 * (c + math.hypot(c, 2.0))  # the largest sqrt(K)
    k_max = root * root
    if not k_max <= 2.0**53:
        raise ValueError(f"area {area:g} m^2, distance {distance:g} m and "
                         f"wavelength {wavelength:g} m fit {k_max:.3g} "
                         "streams into the area, more than a float counts "
                         "(2^53)")
    # the fit test divides lambda d by K; as a subnormal the quotient is too
    # coarse to tell K from K + 1, and the steps below would not end
    if wavelength * distance / (k_max + 1.0) < sys.float_info.min:
        raise ValueError(f"distance {distance:g} m times wavelength "
                         f"{wavelength:g} m per stream underflows the float "
                         "range")
    k = max(1, int(k_max))
    while k > 1 and not fits(k):
        k -= 1
    while fits(k + 1):
        k += 1
    return k


@dataclass(frozen=True)
class FrequencyPoint:
    num_streams: int
    capacity: float


def capacity_frequency_sweep(area: float, distance: float,
                             frequencies: Sequence[float], radio: RadioParams,
                             directive: bool = False) -> list[FrequencyPoint]:
    """Capacity vs carrier frequency at fixed array area and distance.

    Per frequency: lambda = c/f, antenna width lambda/2, K from the area
    constraint, optimal spacing, B from the radio bandwidth rule, and
    capacity B K log2(1 + P beta/(B N0)), with beta = G^2 (lambda/(4 pi d))^2.
    Isotropic ends have G = 1.

    `directive` makes both ends apertures. An aperture of effective area A_e
    has the standard gain G = 4 pi A_e / lambda^2. That is the receive model
    of the exact channel (`field.element_field_integrals` over sqrt(A)),
    where an element of area A collects
    A/(4 pi d^2) = (lambda/(4 pi d))^2 * 4 pi A/lambda^2 far out. Each
    antenna gets A_e = area / K: the K antennas share the fixed area, so the
    total aperture stays the same at every frequency. That split is a
    modelling choice; the package's sources do not fix it. For the shipped
    geometry (0.01 m^2 at 10 m), K = 1 below about 153 GHz, so there
    beta = area^2/(lambda d)^2, Friis' A_t A_r/(lambda d)^2.

    The aperture gain is a far-field one: it holds beyond the Fraunhofer
    distance 2 D^2/lambda of the aperture diagonal D, and is an
    approximation closer in. 10 m is inside that distance for the 0.1 m
    square above about 75 GHz (9.34 m at 70 GHz, 13.3 m at 100 GHz), and
    this sweep does not model the near-field loss of gain there.
    Raises `ValueError` if a frequency has no finite wavelength
    (`geometry.wavelength_of`), or if the path gain, the stream count or the
    SNR leaves the float range.
    """
    freqs = [float(f) for f in frequencies]  # an overflow gives inf
    if not freqs:
        raise ValueError("frequency range is empty")
    points = []
    for f in freqs:
        lam = wavelength_of(f)
        k = num_streams_for_area(area, distance, lam, lam / 2.0)
        beta = free_space_gain(lam, distance)
        if directive:
            lam2 = lam * lam
            gain = 4.0 * math.pi * (area / k) / lam2 if lam2 else math.inf
            beta *= gain * gain
        snr = radio.snr(beta, f)
        if not snr < math.inf:
            raise ValueError(f"distance {distance:g} m gives an infinite SNR "
                             f"at {f:g} Hz")
        points.append(FrequencyPoint(num_streams=k, capacity=(
            equal_eigenvalue_capacity(k, snr, radio.bandwidth(f)))))
    return points


def spatial_dof(area: float, wavelength: float) -> float:
    """Orthogonal spatial channels pi A / lambda^2 resolvable by a planar
    aperture. Raises `ValueError` unless that is a finite positive float."""
    check_positive("area", area)
    check_positive("wavelength", wavelength)
    lam2 = float(wavelength) * float(wavelength)  # an overflow gives inf
    dof = math.pi * float(area) / lam2 if lam2 else math.inf
    if not 0.0 < dof < math.inf:
        raise ValueError(f"area {area:g} m^2 at wavelength {wavelength:g} m "
                         f"gives pi A / lambda^2 = {dof:g} degrees of "
                         "freedom, outside the float range")
    return dof


@dataclass(frozen=True)
class ModeAnalysis:
    eigenvalue_fractions: np.ndarray
    angles: np.ndarray
    patterns: np.ndarray  # (K, num_angles); |a(theta)^H v_k|^2


def svd(h, compute_uv: bool = True):
    """Thin SVD of H: (U, s, V^H), or without `compute_uv` the singular
    values s alone, descending. Raises `AccuracyError` where LAPACK's SVD
    does not converge, in place of numpy's `LinAlgError`."""
    import numpy as np

    try:
        return np.linalg.svd(h, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise AccuracyError(f"SVD of the {np.shape(h)} channel: {exc}") \
            from None


def mode_analysis(link: LosMimoLink, num_angles: int = 2048) -> ModeAnalysis:
    """Eigenvalue split of H^H H and far-field patterns of the right
    singular vectors (transmit beamforming modes). The eigenvalues of H^H H
    are the squared singular values of H, so one SVD gives both. Raises
    `AccuracyError` if the SVD does not converge."""
    import numpy as np

    check_count("num_angles", num_angles)
    _, s, vh = svd(link.h_exact)
    fractions = s**2 / np.sum(s**2)
    angles = np.linspace(-np.pi / 2.0, np.pi / 2.0, num_angles)
    k = link.num_antennas
    positions = np.arange(k) * link.spacing
    steering = np.exp(-2j * np.pi / link.wavelength
                      * np.outer(np.sin(angles), positions)) / math.sqrt(k)
    patterns = np.abs(steering.conj() @ vh.conj().T) ** 2  # (angles, modes)
    return ModeAnalysis(eigenvalue_fractions=fractions, angles=angles,
                        patterns=patterns.T)

