"""LOS SU-MIMO between broadside ULAs: channel synthesis, optimal spacing,
waterfilling capacity, sweep experiments, spatial degrees of freedom."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import solve_scalar_root

SPEED_OF_LIGHT = 299792458.0  # m/s

GAIN_MODELS = ("isotropic", "directive")


@dataclass(frozen=True)
class RadioParams:
    """Link-level radio assumptions for the capacity experiments.

    bandwidth_fraction gives B = fraction * carrier frequency; set
    bandwidth_hz instead for a fixed bandwidth. Gain models: "isotropic"
    (G = 1) or "directive": an aperture of effective area A_e, with the
    standard aperture gain G = 4 pi A_e / lambda^2. That is the receive
    model of `field.channel_vector`, where an element of area A collects
    A/(4 pi d^2) = (lambda/(4 pi d))^2 * 4 pi A/lambda^2 far out. The gain is
    a far-field one: it holds beyond the Fraunhofer distance 2 D^2/lambda of
    the aperture diagonal D, and is an approximation closer in.
    """

    carrier_frequency: float
    power_over_noise_db: float
    bandwidth_fraction: float | None = 0.03
    bandwidth_hz: float | None = None
    tx_gain_model: str = "isotropic"
    rx_gain_model: str = "isotropic"

    def __post_init__(self):
        if self.carrier_frequency <= 0:
            raise ValueError("carrier_frequency must be positive")
        if (self.bandwidth_fraction is None) == (self.bandwidth_hz is None):
            raise ValueError("set exactly one of bandwidth_fraction / bandwidth_hz")
        for model in (self.tx_gain_model, self.rx_gain_model):
            if model not in GAIN_MODELS:
                raise ValueError(f"unknown gain model {model!r}")
        # these messages start with the field name, which config errors use
        if not 0.0 < self.power_over_noise < math.inf:
            raise ValueError(
                f"power_over_noise_db: {self.power_over_noise_db:g} dB gives "
                f"the power ratio {self.power_over_noise:g}; it must be "
                "finite and positive")
        if not self.bandwidth() < math.inf:
            raise ValueError(
                f"bandwidth_fraction: {self.bandwidth_fraction:g} gives an "
                "infinite bandwidth at the carrier")

    @property
    def power_over_noise(self) -> float:
        try:
            return 10.0 ** (self.power_over_noise_db / 10.0)
        except OverflowError:
            return math.inf

    def wavelength(self, frequency: float | None = None) -> float:
        return SPEED_OF_LIGHT / (frequency or self.carrier_frequency)

    def bandwidth(self, frequency: float | None = None) -> float:
        if self.bandwidth_hz is not None:
            return self.bandwidth_hz
        return self.bandwidth_fraction * (frequency or self.carrier_frequency)

    def gain_product(self, frequency: float | None = None,
                     area: float | None = None) -> float:
        """G_tx * G_rx at `frequency`; `area` (m^2) is the effective
        aperture of each directive end and is required if either is."""
        lam = self.wavelength(frequency)
        gain = 1.0
        for model in (self.tx_gain_model, self.rx_gain_model):
            if model == "directive":
                if area is None or not area > 0:
                    raise ValueError("a directive gain model needs a positive "
                                     "aperture area")
                gain *= 4.0 * math.pi * area / lam**2
        return gain


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
    """Friis path gain (lambda / (4 pi d))^2. Raises `ValueError` unless it
    is a finite positive float."""
    ratio = float(wavelength) / (4.0 * math.pi * float(distance))
    gain = ratio * ratio  # Python floats: an overflow gives inf, no warning
    if not 0.0 < gain < math.inf:
        raise ValueError(f"distance {distance:g} m puts the path gain "
                         f"(lambda / (4 pi d))^2 = {gain:g} outside the "
                         "float range")
    return gain


def pair_distance(m, k, spacing: float, distance: float):
    """Distance between receive antenna m and transmit antenna k."""
    offset = (np.asarray(m) - np.asarray(k)) * spacing
    return np.sqrt(distance**2 + offset**2)


def build_los_mimo(num_antennas: int, spacing: float, distance: float,
                   wavelength: float) -> LosMimoLink:
    """Exact and Fresnel-approximate K x K LOS channel matrices.

    The exact matrix uses the full propagation phase 2 pi (d_mk - d)/lambda,
    which is the convention consistent with the Fresnel form
    exp(-j pi delta_mk / (d lambda)).
    Raises `ValueError` if the path gain or an antenna distance leaves the
    float range.
    """
    if distance <= 0 or spacing <= 0 or wavelength <= 0:
        raise ValueError("distance, spacing, wavelength must be positive")
    k = num_antennas
    beta = free_space_gain(wavelength, distance)
    extent = (k - 1) * spacing
    if not distance * distance + extent * extent < math.inf:
        raise ValueError(f"antenna distances overflow at distance "
                         f"{distance:g} m and spacing {spacing:g} m")
    idx = np.arange(1, k + 1)
    d_mk = pair_distance(idx[:, None], idx[None, :], spacing, distance)
    beta_mk = (wavelength / (4.0 * np.pi * d_mk)) ** 2
    h_exact = np.sqrt(beta_mk) * np.exp(
        -2j * np.pi * (d_mk - distance) / wavelength)
    delta = ((idx[:, None] - idx[None, :]) * spacing) ** 2
    h_fresnel = math.sqrt(beta) * np.exp(
        -1j * np.pi * delta / (distance * wavelength))
    return LosMimoLink(num_antennas=k, spacing=spacing, wavelength=wavelength,
                       h_exact=h_exact, h_fresnel=h_fresnel, beta=beta)


def optimal_spacing(num_antennas: int, distance: float, wavelength: float) -> float:
    """Spacing that makes the Fresnel Gram matrix a scaled identity."""
    if num_antennas < 1 or distance <= 0 or wavelength <= 0:
        raise ValueError("inputs must be positive")
    return math.sqrt(wavelength * distance / num_antennas)


def offdiag_magnitude(num_antennas: int, spacing: float, distance: float,
                      wavelength: float, k: int, l: int,
                      beta: float | None = None) -> float:
    """|(k, l) off-diagonal entry| of the Fresnel Gram matrix, closed form
    (geometric series)."""
    if k == l:
        raise ValueError("k and l must differ")
    if beta is None:
        beta = free_space_gain(wavelength, distance)
    q = (l - k) * spacing**2 / (wavelength * distance)
    denom = 1.0 - np.exp(2j * np.pi * q)
    if abs(denom) < 1e-12:
        return beta * num_antennas
    num = 1.0 - np.exp(2j * np.pi * num_antennas * q)
    return beta * abs(num / denom)


def capacity_waterfilling(eigenvalues: Sequence[float], snr: float,
                          bandwidth: float = 1.0) -> CapacityResult:
    """Waterfilling over channel eigenvalues with unit total (fractional)
    power: p_i = max(0, mu - 1/(snr * lam_i)), sum p_i = 1. Filling the r
    strongest streams gives the level mu_r = (1 + sum_{i<=r} 1/(snr lam_i))/r;
    the streams used are the leading run with mu_r above 1/(snr lam_r)."""
    lam = np.asarray(eigenvalues, dtype=float)
    if not np.all(lam >= 0):
        raise ValueError("eigenvalues must be non-negative")
    if snr <= 0 or bandwidth <= 0:
        raise ValueError("snr and bandwidth must be positive")
    order = np.argsort(lam)[::-1]
    with np.errstate(divide="ignore", over="ignore"):
        floor = 1.0 / (snr * lam[order])
    levels = (1.0 + np.cumsum(floor)) / np.arange(1, lam.size + 1)
    k_used = int(np.sum(np.logical_and.accumulate(levels > floor)))
    powers = np.zeros_like(lam)
    if k_used:
        powers[order[:k_used]] = levels[k_used - 1] - floor[:k_used]
    capacity = bandwidth * float(
        np.sum(np.log2(1.0 + snr * lam * powers)))
    return CapacityResult(capacity=capacity, powers=powers, k_used=k_used)


def equal_eigenvalue_capacity(num_streams: int, snr: float,
                              bandwidth: float = 1.0) -> float:
    """Capacity with equal eigenvalues and equal power split (closed form)."""
    return bandwidth * num_streams * math.log2(1.0 + snr)


@dataclass(frozen=True)
class BandwidthSweep:
    rates: np.ndarray
    rate_limit: float
    bandwidth_80pct: float


def capacity_bandwidth_sweep(power_over_noise: float, beta: float,
                             bandwidths: Sequence[float]) -> BandwidthSweep:
    """Single-stream rate B log2(1 + P beta/(B N0)) over a bandwidth range,
    plus the infinite-bandwidth limit and the 80%-of-limit bandwidth
    P beta / (N0 y80), where log1p(y80) = 0.8 y80 is solved on [0.1, 10].
    A bandwidth so narrow that P beta/(B N0) overflows still gets a finite
    rate. Raises `ValueError` if P beta or that bandwidth leaves the float
    range."""
    b = np.asarray(bandwidths, dtype=float)
    if b.size == 0 or np.any(b <= 0):
        raise ValueError("bandwidths must be positive and non-empty")
    s = power_over_noise * beta  # received power over N0, in Hz
    y80 = solve_scalar_root(lambda y: math.log1p(y) - 0.8 * y, (0.1, 10.0))
    b80 = s / y80
    if not (0.0 < s and b80 < math.inf):
        raise ValueError(f"received power over noise density P beta = {s:g} "
                         "Hz is outside the float range of the sweep")
    with np.errstate(over="ignore"):
        snr = s / b
    rates = b * np.log1p(snr) / math.log(2.0)
    # where s/B overflows, log1p(s/B) = log(s) - log(B) + log1p(B/s)
    big = np.isinf(snr)
    narrow = b[big]
    rates[big] = narrow * (math.log(s) - np.log(narrow)
                           + np.log1p(narrow / s)) / math.log(2.0)
    limit = math.log2(math.e) * s
    return BandwidthSweep(rates=rates, rate_limit=limit, bandwidth_80pct=b80)


def num_streams_for_area(area: float, distance: float, wavelength: float,
                         antenna_width: float) -> int:
    """Largest K >= 1 whose optimally spaced ULA fits the array side
    sqrt(area): sqrt(lambda d / K)(K-1) + antenna_width <= sqrt(area), that
    is (K-1)/sqrt(K) <= c = (sqrt(area) - antenna_width)/sqrt(lambda d). So
    K = floor(((c + sqrt(c^2 + 4))/2)^2) up to rounding, which a few steps
    correct. Raises `ValueError` beyond 2^53, where a float no longer tells
    K from K + 1."""
    if area <= 0 or distance <= 0:
        raise ValueError("area and distance must be positive")
    side = math.sqrt(area)

    def fits(k: int) -> bool:
        return math.sqrt(wavelength * distance / k) * (k - 1) \
            + antenna_width <= side

    c = (side - antenna_width) / (math.sqrt(wavelength) * math.sqrt(distance))
    root = 0.5 * (c + math.hypot(c, 2.0))  # the largest sqrt(K)
    k_max = root * root
    if not k_max <= 2.0**53:
        raise ValueError(f"distance {distance:g} m and wavelength "
                         f"{wavelength:g} m fit {k_max:.3g} streams into "
                         "the area, more than a float counts (2^53)")
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
                             frequencies: Sequence[float],
                             radio: RadioParams) -> list[FrequencyPoint]:
    """Capacity vs carrier frequency at fixed array area and distance.

    Per frequency: lambda = c/f, antenna width lambda/2, K from the area
    constraint, optimal spacing, B from the radio bandwidth rule, and
    capacity B K log2(1 + P beta/(B N0)), with
    beta = G_tx G_rx (lambda/(4 pi d))^2.

    A directive end gets the aperture gain of area / K: the K antennas share
    the fixed area, so the total aperture stays the same at every frequency.
    That split is a modelling choice; the package's sources do not fix it.
    For the shipped geometry (0.01 m^2 at 10 m), K = 1 below about 153 GHz,
    so there beta = area^2/(lambda d)^2, Friis' A_t A_r/(lambda d)^2. The
    aperture gain is a far-field approximation: 10 m is inside the
    Fraunhofer distance 2 D^2/lambda of the 0.1 m square's diagonal above
    about 75 GHz (9.34 m at 70 GHz, 13.3 m at 100 GHz), and this sweep does
    not model the near-field loss of gain there.
    """
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.size == 0:
        raise ValueError("frequency range is empty")
    points = []
    for f in freqs.tolist():  # Python floats: an overflow gives inf
        lam = SPEED_OF_LIGHT / f
        k = num_streams_for_area(area, distance, lam, lam / 2.0)
        beta = radio.gain_product(f, area / k) * free_space_gain(lam, distance)
        b = radio.bandwidth(f)
        snr = radio.power_over_noise * beta / b
        if not snr < math.inf:
            raise ValueError(f"distance {distance:g} m gives an infinite SNR")
        points.append(FrequencyPoint(
            num_streams=k, capacity=equal_eigenvalue_capacity(k, snr, b)))
    return points


def spatial_dof(area: float, wavelength: float) -> float:
    """Orthogonal spatial channels resolvable by a planar aperture."""
    if area <= 0 or wavelength <= 0:
        raise ValueError("area and wavelength must be positive")
    return math.pi * area / wavelength**2


@dataclass(frozen=True)
class ModeAnalysis:
    eigenvalue_fractions: np.ndarray
    angles: np.ndarray
    patterns: np.ndarray  # (K, num_angles); |a(theta)^H v_k|^2


def mode_analysis(link: LosMimoLink, num_angles: int = 2048) -> ModeAnalysis:
    """Eigenvalue split of H^H H and far-field patterns of the right
    singular vectors (transmit beamforming modes). The eigenvalues of H^H H
    are the squared singular values of H, so one SVD gives both."""
    _, s, vh = np.linalg.svd(link.h_exact, full_matrices=False)
    fractions = s**2 / np.sum(s**2)
    angles = np.linspace(-np.pi / 2.0, np.pi / 2.0, num_angles)
    k = link.num_antennas
    positions = np.arange(k) * link.spacing
    steering = np.exp(-2j * np.pi / link.wavelength
                      * np.outer(np.sin(angles), positions)) / math.sqrt(k)
    patterns = np.abs(steering.conj() @ vh.conj().T) ** 2  # (angles, modes)
    return ModeAnalysis(eigenvalue_fractions=fractions, angles=angles,
                        patterns=patterns.T)
