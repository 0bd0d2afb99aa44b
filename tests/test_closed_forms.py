"""Property tests of the closed forms behind the focal plan, the stream
count, waterfilling, the 80 % bandwidth, the half-gain parameter a3dB and
the LOS mode spectrum, of the zero-forcing precoder's accuracy, of the
precoders and multi-user channels on every memory layout, and of the
golden comparison. The numpy-free closed forms of the figure subcommands
(their grids, the focal-plane and axial gains, g(x) and the bandwidth
rates) are checked bit for bit against the numpy expressions they replaced.

Each closed form is checked against the loop it replaced, kept here
verbatim as a reference, and against the invariants its callers rely on.
Hypothesis runs derandomized with a bounded number of examples, so the
suite stays deterministic and fast.
"""

import math
import tempfile
from fractions import Fraction
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nearfield import boundary_distances, build_upa
from nearfield import beam
from nearfield.beam import g_of_x, solve_a3db
from nearfield.cli import SCHEMAS, _log_grid, _plan, _symmetric_grid, \
    compare_golden
from nearfield.config import load_config
from nearfield.depth_mux import (
    GRAM_CONDITION_LIMIT,
    build_mu_channel,
    matched_filter_precoder,
    plan_depth_focal_points,
    zf_precoder,
)
from nearfield.field import phasor_rows
from nearfield.mimo_los import (
    CapacityResult,
    RadioParams,
    build_los_mimo,
    capacity_bandwidth_sweep,
    capacity_waterfilling,
    free_space_gain,
    mode_analysis,
    num_streams_for_area,
)
from nearfield.numerics import RankError, fresnel_cs, solve_scalar_root

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)


# ---------------------------------------------------------------------------
# the replaced loops, verbatim

def reference_focal_points(inv_tau, d_min):
    focal_points = [math.inf]
    intervals = [(inv_tau, math.inf)]
    k = 2
    while True:
        f_k = inv_tau / (2.0 * (k - 1))
        # tolerate rounding when a focal point lands exactly on d_min
        if f_k < d_min * (1.0 - 1e-9):
            break
        focal_points.append(f_k)
        intervals.append((inv_tau / (2.0 * k - 1), inv_tau / (2.0 * k - 3)))
        k += 1
    return tuple(focal_points), tuple(intervals)


def reference_num_streams_for_area(area, distance, wavelength,
                                   antenna_width):
    if area <= 0 or distance <= 0:
        raise ValueError("area and distance must be positive")
    side = math.sqrt(area)
    k = 1
    while True:
        k_next = k + 1
        extent = math.sqrt(wavelength * distance / k_next) * (k_next - 1)
        if extent + antenna_width <= side:
            k = k_next
        else:
            return k


def reference_capacity_waterfilling(eigenvalues, snr, bandwidth=1.0):
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be non-negative")
    if snr <= 0 or bandwidth <= 0:
        raise ValueError("snr and bandwidth must be positive")
    if np.all(lam == 0):
        return CapacityResult(0.0, np.zeros_like(lam), 0)
    order = np.argsort(lam)[::-1]
    lam_sorted = lam[order]
    inv = np.where(lam_sorted > 0, 1.0 / (snr * np.maximum(lam_sorted, 1e-300)),
                   np.inf)
    k_used = 0
    mu = 0.0
    for r in range(1, len(lam_sorted) + 1):
        if not np.isfinite(inv[r - 1]):
            break
        mu_r = (1.0 + np.sum(inv[:r])) / r
        if mu_r - inv[r - 1] > 0:
            k_used, mu = r, mu_r
        else:
            break
    powers_sorted = np.maximum(0.0, mu - inv[:k_used])
    powers = np.zeros_like(lam)
    powers[order[:k_used]] = powers_sorted
    capacity = bandwidth * float(
        np.sum(np.log1p(snr * lam * powers))) / math.log(2.0)
    return CapacityResult(capacity=capacity, powers=powers, k_used=k_used)


def reference_bandwidth_80pct(s):
    limit = math.log2(math.e) * s
    return solve_scalar_root(
        lambda bb: bb * math.log2(1.0 + s / bb) - 0.8 * limit,
        (1e-3 * s, 1e3 * s), tol=1e-9 * s)


def reference_solve_a3db(rows: int, cols: int) -> float:
    scale = 2.0 / (rows**2 + cols**2)
    x_lo = 1e-6 * scale
    if g_of_x(rows, cols, x_lo) <= 0.5:
        raise ValueError("bracket assumption violated at the lower end")
    x_hi = 0.1 * scale
    while g_of_x(rows, cols, x_hi) >= 0.25:
        x_hi *= 1.3
        if x_hi > 1e6 * scale:
            raise ValueError("failed to bracket the half-gain point")
    return solve_scalar_root(
        lambda x: g_of_x(rows, cols, x) - 0.5, (x_lo, x_hi), tol=1e-18)


def reference_gain_focal_plane(geom, focal_distance, x_r, y_r):
    m, n = geom.rows, geom.cols
    d = geom.element_diagonal
    lam = geom.wavelength
    ax = n / math.sqrt(2.0) * d * np.asarray(x_r) / (lam * focal_distance)
    ay = m / math.sqrt(2.0) * d * np.asarray(y_r) / (lam * focal_distance)
    return np.sinc(ax) ** 2 * np.sinc(ay) ** 2


def reference_g_of_x(rows, cols, x):
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.ones_like(ax)
    nz = ax > 0
    root = np.sqrt(ax[nz])
    ratio = {}
    for m in {rows, cols}:
        c, s = fresnel_cs(m * root)
        ratio[m] = (c**2 + s**2) / (m * m) / ax[nz]
    out[nz] = ratio[rows] * ratio[cols]
    return out


def reference_gain_axial(geom, focal_distance, z_r):
    z = np.asarray(z_r, dtype=float)
    q = boundary_distances(geom).d_f / 8.0
    with np.errstate(over="ignore"):
        x = np.abs(q / focal_distance - q / z)
    return reference_g_of_x(geom.rows, geom.cols, x)


def reference_rates(s, bandwidths, log1p):
    """The rates b log1p(s / b) / ln 2, with `log1p` numpy's or libm's."""
    b = np.asarray(bandwidths, dtype=float)
    return b * log1p(s / b) / math.log(2.0)


# ---------------------------------------------------------------------------
# focal plan

def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


arrays = st.builds(lambda rows, cols, side: build_upa(rows, cols, side, 0.1),
                   st.integers(1, 40), st.integers(1, 40),
                   log_uniform(0.01, 1.0))


def plan_quietly(geom, d_min, a3db):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # d_min below d_B
        return plan_depth_focal_points(geom, d_min=d_min, a3db=a3db)


def check_plan(plan, d_min):
    points, intervals = plan.focal_points, plan.intervals
    assert points[0] == math.inf and intervals[0][1] == math.inf
    assert len(points) == len(intervals)
    # contiguous: each upper end is the previous lower end, exactly
    for (lo_prev, _), (_, hi) in zip(intervals, intervals[1:]):
        assert hi == lo_prev
    for f, (lo, hi) in zip(points, intervals):
        assert 0 < lo < hi  # disjoint: the lower ends strictly descend
        assert lo < f <= hi and (f < hi or f == math.inf)
    assert all(f >= d_min * (1 - 1e-9) for f in points[1:])


class TestFocalPlan:
    @PROPERTY
    @given(geom=arrays, a3db=log_uniform(1e-4, 0.1),
           fraction=st.floats(0.5, 1.5))
    def test_matches_loop(self, geom, a3db, fraction):
        # d_min = inv_tau / (2x) admits about x finite points; x runs past
        # the element count, where the plan must refuse
        inv_tau = boundary_distances(geom).d_f / (8.0 * a3db)
        d_min = inv_tau / (2.0 * fraction * geom.num_elements)
        points, intervals = reference_focal_points(inv_tau, d_min)
        if len(points) > geom.num_elements:
            with pytest.raises(ValueError, match="more focal points"):
                plan_quietly(geom, d_min, a3db)
            return
        plan = plan_quietly(geom, d_min, a3db)
        assert plan.focal_points == points
        assert plan.intervals == intervals
        check_plan(plan, d_min)

    @PROPERTY
    @given(geom=arrays.filter(lambda g: g.num_elements > 1),
           a3db=log_uniform(1e-4, 0.1), data=st.data())
    def test_point_on_d_min_is_kept(self, geom, a3db, data):
        inv_tau = boundary_distances(geom).d_f / (8.0 * a3db)
        j = data.draw(st.integers(1, geom.num_elements - 1))
        d_min = inv_tau / (2.0 * j)  # the plan's own j-th point
        plan = plan_quietly(geom, d_min, a3db)
        assert len(plan.focal_points) == j + 1
        assert plan.focal_points[-1] == d_min
        assert (plan.focal_points, plan.intervals) \
            == reference_focal_points(inv_tau, d_min)
        check_plan(plan, d_min)


# ---------------------------------------------------------------------------
# stream count

def fits(k, area, distance, wavelength, width):
    return math.sqrt(wavelength * distance / k) * (k - 1) + width \
        <= math.sqrt(area)


def stream_case(c_lo, c_hi):
    """(area, distance, wavelength, width) with the aperture side
    width + c sqrt(lambda d), which holds about c^2 streams."""
    def build(wavelength, distance, width, c):
        side = wavelength * width + c * math.sqrt(wavelength * distance)
        return side * side, distance, wavelength, wavelength * width
    return st.builds(build, log_uniform(1e-4, 1.0), log_uniform(1e-2, 1e3),
                     st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0),
                     st.floats(c_lo, c_hi, exclude_min=True))


class TestStreamCount:
    @PROPERTY
    @given(case=stream_case(0.01, 40.0))
    def test_matches_loop(self, case):
        k = num_streams_for_area(*case)
        assert k == reference_num_streams_for_area(*case)
        assert k == 1 or fits(k, *case)
        assert not fits(k + 1, *case)

    @PROPERTY
    @given(case=stream_case(40.0, 9.4e7))
    def test_fits_and_next_does_not(self, case):
        # up to K near 2^53, beyond the reach of the loop
        k = num_streams_for_area(*case)
        assert fits(k, *case)
        assert not fits(k + 1, *case)
        assert k <= 2**53 + 16

    @PROPERTY
    @given(case=stream_case(1e8, 1e150))
    @example(case=(0.01, 1e-200, 1e-200, 0.0))  # lambda d underflows to 0
    def test_beyond_float_count_raises(self, case):
        with pytest.raises(ValueError, match="2\\^53"):
            num_streams_for_area(*case)


# ---------------------------------------------------------------------------
# waterfilling

eigenvalue_sets = st.lists(st.just(0.0) | log_uniform(1e-3, 1e2),
                           min_size=1, max_size=40)


class TestWaterfilling:
    @PROPERTY
    @given(lam=eigenvalue_sets, snr=log_uniform(1.0, 1e3))
    def test_matches_loop(self, lam, snr):
        res = capacity_waterfilling(lam, snr)
        ref = reference_capacity_waterfilling(lam, snr)
        assert res.k_used == ref.k_used
        # the level's sum now runs in another order: n terms of a sum
        # 1 + S round to n eps (1 + S), and dC/dp_i = 1 / (mu ln 2)
        n, eps = len(lam), np.finfo(float).eps
        floors = 1.0 / (snr * np.asarray(lam)[ref.powers > 0])
        np.testing.assert_allclose(res.powers, ref.powers, rtol=0,
                                   atol=n * eps * (1.0 + np.sum(floors)))
        assert res.capacity == pytest.approx(ref.capacity, rel=0,
                                             abs=2 * n**3 * eps)

    @PROPERTY
    @given(lam=eigenvalue_sets, snr=log_uniform(1e-3, 1e3),
           gain=st.floats(1.0, 10.0))
    def test_powers_and_monotone_capacity(self, lam, snr, gain):
        res = capacity_waterfilling(lam, snr)
        assert np.all(res.powers >= 0)
        if max(lam) > 0:
            assert res.k_used >= 1
            # p_i = mu - 1/(snr lam_i) rounds to a few ulps of the level mu
            used = res.powers > 0
            level = np.max(res.powers[used]
                           + 1.0 / (snr * np.asarray(lam)[used]))
            assert abs(np.sum(res.powers) - 1.0) <= 1e-15 * len(lam) * level
        else:
            assert res.k_used == 0 and res.capacity == 0.0
        # zero eigenvalues get no power
        assert np.all(res.powers[np.asarray(lam) == 0] == 0)
        assert capacity_waterfilling(lam, snr * gain).capacity \
            >= res.capacity * (1 - 1e-12)


def exact_waterfilling(floors):
    """Stream count and powers of waterfilling over ascending floors, in
    exact rational arithmetic on the given floats."""
    f = [Fraction(v) for v in floors if math.isfinite(v)]
    k = 0
    while k < len(f) and 1 + sum(fi - f[k] for fi in f[:k + 1]) > 0:
        k += 1
    level = (1 + sum(f[:k])) / k if k else Fraction(0)
    return k, [level - fi for fi in f[:k]]


class TestWaterfillingExact:
    @PROPERTY
    @given(lam=eigenvalue_sets, snr=log_uniform(1e-300, 1e3))
    @example(lam=[1.0], snr=1e-17)
    @example(lam=[2.0, 1.0, 1.0], snr=1e-20)
    # floors 2^54 and 2^54 + 4, above the level 2^54 + 2.5
    @example(lam=[1.0, 2.0**54 / (2.0**54 + 4.0)], snr=2.0**-54)
    def test_matches_exact_arithmetic(self, lam, snr):
        # the same float floors, filled exactly: the stream count agrees, and
        # each power is within a few eps in absolute terms, however far the
        # floors lie above 1/eps
        res = capacity_waterfilling(lam, snr)
        order = np.argsort(lam)[::-1]
        with np.errstate(divide="ignore", over="ignore"):
            floors = 1.0 / (snr * np.asarray(lam)[order])
        k, powers = exact_waterfilling(floors)
        assert res.k_used == k
        assert res.capacity > 0 or k == 0
        n, eps = len(lam), np.finfo(float).eps
        np.testing.assert_allclose(res.powers[order[:k]],
                                   [float(p) for p in powers], rtol=0,
                                   atol=4 * n * eps)
        assert np.all(res.powers[order[k:]] == 0)


# ---------------------------------------------------------------------------
# 80 % bandwidth

class TestBandwidth80:
    @PROPERTY
    @given(s=log_uniform(1e-300, 1e300))
    def test_reaches_80_percent(self, s):
        sweep = capacity_bandwidth_sweep(s, 1.0, [1.0])
        b80 = sweep.bandwidth_80pct
        assert b80 * math.log2(1.0 + s / b80) \
            == pytest.approx(0.8 * sweep.rate_limit, rel=1e-11)

    def test_fig1_golden_is_the_bracketed_root(self):
        # fig1: 110 dB and the Friis gain at 10 m and 3 GHz. The closed form
        # gives P beta / y80 = 117422.38863309955 Hz (y80 to 40 digits with
        # mpmath); the golden's 117422.388637 is the old root, solved only
        # to 1e-9 P beta
        radio = RadioParams(carrier_frequency=3e9, power_over_noise_db=110)
        s = radio.power_over_noise * free_space_gain(radio.wavelength(), 10.0)
        assert f"{reference_bandwidth_80pct(s):.12g}" == "117422.388637"

    @PROPERTY
    @given(s=log_uniform(1e-150, 1e300))
    def test_matches_bracketed_root(self, s):
        # the old root was solved to 1e-9 s < 1e-9 b80 on the bracket
        # [1e-3 s, 1e3 s]; below about s = 1e-161 it did not converge
        b80 = capacity_bandwidth_sweep(s, 1.0, [1.0]).bandwidth_80pct
        assert b80 == pytest.approx(reference_bandwidth_80pct(s), rel=1e-9)


# ---------------------------------------------------------------------------
# half-gain parameter a3dB

class TestHalfGain:
    @PROPERTY
    @given(rows=st.integers(1, 4000), cols=st.integers(1, 4000))
    @example(rows=1, cols=1)
    @example(rows=5, cols=4000)
    def test_matches_bracket_search(self, rows, cols):
        # each root is within Brent's tolerance 1e-18 + 4 eps |x| of the
        # true one, the absolute part ruling for all but the smallest arrays
        scale = 2.0 / (rows**2 + cols**2)
        a3db = solve_a3db(rows, cols)
        reference = reference_solve_a3db(rows, cols)
        eps = np.finfo(float).eps
        assert abs(a3db - reference) <= 2.0 * (1e-18 + 4.0 * eps * reference)
        assert 0.5 * scale <= a3db <= 2.0 * scale


# ---------------------------------------------------------------------------
# LOS mode spectrum

class TestModeSpectrum:
    @PROPERTY
    @given(k=st.integers(1, 24), distance=log_uniform(1.0, 1e3),
           wavelength=log_uniform(1e-3, 0.1), stretch=st.floats(0.2, 3.0))
    def test_fractions_are_gram_eigenvalues(self, k, distance, wavelength,
                                            stretch):
        # the eigenvalues of H^H H, from a second decomposition
        spacing = stretch * math.sqrt(wavelength * distance / k)
        link = build_los_mimo(k, spacing, distance, wavelength)
        fractions = mode_analysis(link, num_angles=8).eigenvalue_fractions
        h = link.h_exact
        eigenvalues = np.linalg.eigvalsh(h.conj().T @ h)[::-1]
        np.testing.assert_allclose(fractions,
                                   eigenvalues / np.sum(eigenvalues),
                                   rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# zero-forcing

@st.composite
def user_sets(draw):
    """An array of at most 40 x 40 elements and 2-8 users within `spread`
    of an on-axis point at 0.01-1 d_FA. The spread runs from the point's
    distance (well spread users) down to 1e-8 of it (nearly coincident)."""
    geom = draw(arrays.filter(lambda g: g.num_elements > 1))
    k = draw(st.integers(2, min(8, geom.num_elements)))
    z = boundary_distances(geom).d_fa * draw(log_uniform(0.01, 1.0))
    spread = z * draw(log_uniform(1e-8, 1.0))
    steps = draw(st.lists(st.integers(-64, 64), min_size=3 * k,
                          max_size=3 * k))
    offsets = np.reshape(steps, (k, 3)) / 64.0
    users = [(spread * dx, spread * dy, z + 0.5 * spread * dz)
             for dx, dy, dz in offsets]
    return geom, users


def depth_pair(step):
    """Two on-axis users a relative depth `step` apart in front of an 8 x 8
    array. Their Gram condition number is about 7.7 / step^2."""
    geom = build_upa(8, 8, 0.05, 0.1)
    z = 0.1 * boundary_distances(geom).d_fa
    return geom, [(0.0, 0.0, z), (0.0, 0.0, z * (1.0 + step))]


# `zf_precoder` rejects a user set exactly when cond(H^H H) is not finite or
# over GRAM_CONDITION_LIMIT. Otherwise its leakage
# max_{i != k} |h_k^H w_i| / min_k |h_k^H w_k| is at most 10 cond(H^H H) eps.
# Run with 400 examples, the property below drew 395 distinct sets (312
# accepted, 83 rejected), and the worst leakage was 1.19 cond eps: the
# bound of 10 leaves a margin of 8.4.

class TestZeroForcing:
    @PROPERTY
    @given(case=user_sets())
    # condition numbers 4.8e11 and 1.9e12, either side of the limit
    @example(case=depth_pair(4e-6))
    @example(case=depth_pair(2e-6))
    def test_rank_rule_and_leakage(self, case):
        geom, users = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # duplicate user positions
            h = build_mu_channel(geom, users).matrix
        cond = np.linalg.cond(h.conj().T @ h)
        if not cond <= GRAM_CONDITION_LIMIT:
            with pytest.raises(RankError):
                zf_precoder(h)
            return
        cross = np.abs(h.conj().T @ zf_precoder(h))  # (k, i): |h_k^H w_i|
        signal = np.diag(cross)
        leakage = (cross - np.diag(signal)).max()
        assert leakage <= 10.0 * cond * np.finfo(float).eps * signal.min()


# ---------------------------------------------------------------------------
# precoders and multi-user channels on every memory layout

LAYOUT = settings(derandomize=True, database=None, deadline=None,
                  max_examples=25)


@st.composite
def channels(draw):
    """An N x K complex Gaussian matrix with N >= 4K, times a magnitude from
    1e-100 to 1e100: cond(H^H H) stays of order 10."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(4 * k, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return draw(log_uniform(1e-100, 1e100)) * (
        rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))


def layouts(h):
    """H in C order, in Fortran order, and as a strided slice of a larger
    array."""
    n, k = h.shape
    wide = np.zeros((2 * n, 3 * k), dtype=complex)
    wide[1::2, ::3] = h
    return [np.ascontiguousarray(h), np.asfortranarray(h), wide[1::2, ::3]]


class TestPrecoderLayouts:
    @LAYOUT
    @given(h=channels(), power=log_uniform(1e-3, 1e3))
    def test_zero_forcing(self, h, power):
        ref = h @ np.linalg.inv(h.conj().T @ h)
        ref *= math.sqrt(power / np.sum(np.abs(ref) ** 2))
        for hl in layouts(h):
            before = hl.copy()
            w = zf_precoder(hl, power)
            np.testing.assert_array_equal(hl, before)
            assert not np.shares_memory(w, hl)
            assert np.abs(w - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.sum(np.abs(w) ** 2) == pytest.approx(power, rel=1e-13,
                                                           abs=0)

    @LAYOUT
    @given(h=channels(), power=log_uniform(1e-3, 1e3))
    def test_matched_filter(self, h, power):
        k = h.shape[1]
        for hl in layouts(h):
            before = hl.copy()
            w = matched_filter_precoder(hl, power)
            np.testing.assert_array_equal(hl, before)
            np.testing.assert_allclose(np.linalg.norm(w, axis=0),
                                       math.sqrt(power / k), rtol=1e-13,
                                       atol=0)
            np.testing.assert_allclose(
                w, h * (math.sqrt(power / k) / np.linalg.norm(h, axis=0)),
                rtol=1e-13, atol=0)


@st.composite
def user_points(draw):
    """An array of at most 8 x 8 elements, 1-5 points in front of it, and a
    scale per point from 1e-30 to 1e30."""
    geom = draw(st.builds(lambda rows, cols, side: build_upa(rows, cols,
                                                             side, 0.1),
                          st.integers(1, 8), st.integers(1, 8),
                          log_uniform(0.01, 0.2)))
    k = draw(st.integers(1, 5))
    coords = st.floats(-5.0, 5.0)
    points = [(draw(coords), draw(coords), draw(log_uniform(0.01, 50.0)))
              for _ in range(k)]
    scale = np.array([draw(log_uniform(1e-30, 1e30)) for _ in range(k)])
    return geom, points, scale


class TestPhasorRowScale:
    # the scale is the numerator of the phasor amplitude, s / (1 + t^2),
    # where the reference multiplies s into the unit phasor: a few roundings
    # apart. With the per-element amplitude lambda / (4 pi ||e_k - p||) the
    # numerator takes one more, lambda / (4 pi) times s.
    @LAYOUT
    @given(case=user_points())
    def test_scale_is_a_product(self, case):
        geom, points, scale = case
        for per_element, ulps in ((False, 2), (True, 3)):
            scaled = phasor_rows(geom, points, per_element, scale)
            ref = scale[:, None] * phasor_rows(geom, points, per_element)
            np.testing.assert_array_max_ulp(scaled.real, ref.real, ulps)
            np.testing.assert_array_max_ulp(scaled.imag, ref.imag, ulps)


# ---------------------------------------------------------------------------
# golden comparison

cells = (st.floats(allow_nan=False, width=32)
         | st.sampled_from(["0", "-0", "inf", "-inf", "nan", "1e-300", "x",
                            "True"]))


def cells_match(a_txt, b_txt, rel_tol):
    """Whether two CSV cells match: equal text if either is no number; else
    equal floats or the same infinity, or finite and within `rel_tol`. A
    nan matches nothing."""
    try:
        a, b = float(a_txt), float(b_txt)
    except ValueError:
        return a_txt == b_txt
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return a == b or abs(a - b) / max(abs(a), abs(b)) <= rel_tol


def write_csv(directory, name, header, rows):
    path = Path(directory) / name
    path.write_text("\n".join([",".join(header)]
                              + [",".join(map(str, row)) for row in rows])
                    + "\n")
    return str(path)


class TestCompareGolden:
    @PROPERTY
    @given(data=st.data(), columns=st.integers(1, 4),
           rows=st.integers(0, 6), tol=st.sampled_from([0.0, 1e-6, 0.5]))
    def test_symmetric(self, data, columns, rows, tol):
        table = st.lists(st.lists(cells, min_size=columns,
                                  max_size=columns),
                         min_size=rows, max_size=rows)
        a, b = data.draw(table), data.draw(table)
        header = [f"c{j}" for j in range(columns)]
        with tempfile.TemporaryDirectory() as tmp:
            path_a = write_csv(tmp, "a.csv", header, a)
            path_b = write_csv(tmp, "b.csv", header, b)
            passed_ab, report_ab = compare_golden(path_a, path_b, tol)
            passed_ba, report_ba = compare_golden(path_b, path_a, tol)
        assert passed_ab == passed_ba
        deviations = [line for line in report_ab if "max rel" in line]
        assert deviations == [line for line in report_ba if "max rel" in line]

    @PROPERTY
    @given(a=cells, b=cells, nudge=st.none() | st.floats(-2e-6, 2e-6),
           tol=st.sampled_from([0.0, 1e-6, 0.5]))
    def test_passes_exactly_on_matching_cells(self, a, b, nudge, tol):
        # a nudge makes a nearby finite pair, on either side of 1e-6
        if nudge is not None and isinstance(a, float):
            b = a * (1.0 + nudge)
        with tempfile.TemporaryDirectory() as tmp:
            path_a = write_csv(tmp, "a.csv", ["c"], [[a]])
            path_b = write_csv(tmp, "b.csv", ["c"], [[b]])
            passed = compare_golden(path_a, path_b, tol)[0]
        assert passed == cells_match(str(a), str(b), tol)


# ---------------------------------------------------------------------------
# numpy-free closed forms of the figure subcommands, bit for bit

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped(name, subcommand):
    """A shipped config and its experiment block, parsed."""
    cfg = load_config(str(CONFIGS / f"{name}.yaml"))
    exp = SCHEMAS[subcommand][1].validate(cfg.experiment, "experiment",
                                          cfg.units)
    return cfg, exp


def assert_same_bits(got, expected):
    """`got`, a list, holds exactly the floats of the array `expected`."""
    assert isinstance(got, list)
    assert got == expected.tolist()


class TestNumpyFreeClosedForms:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(x_max=st.floats(1e-300, 1e300), points=st.integers(1, 50))
    @example(x_max=5e-324, points=50)  # the step underflows to 0
    def test_symmetric_grid_is_linspace(self, x_max, points):
        assert _symmetric_grid(x_max, points, "k") \
            == np.linspace(-x_max, x_max, points).tolist()

    def test_focal_plane_gain(self):  # fig5
        cfg, exp = shipped("fig5_beam_width", "beam-width")
        x = _symmetric_grid(exp["x_max"], exp["points"], "k")
        geom = cfg.geometry
        for f in exp["focal_distances"]:
            expected = reference_gain_focal_plane(geom, f, x, 0.0)
            assert_same_bits(beam.gain_focal_plane(geom, f, x, 0.0), expected)
            # along y, with the float for x broadcast over the array
            np.testing.assert_array_equal(
                beam.gain_focal_plane(geom, f, 0.0, np.asarray(x)),
                reference_gain_focal_plane(geom, f, 0.0, x))

    def test_g_of_x(self):  # fig9
        _, exp = shipped("fig9_g_of_x", "g-of-x")
        x = _symmetric_grid(exp["x_max"], exp["points"], "k")
        for m, n in exp["shapes"]:
            expected = reference_g_of_x(m, n, x)
            assert_same_bits(g_of_x(m, n, x), expected)
            np.testing.assert_array_equal(g_of_x(m, n, np.asarray(x)),
                                          expected)

    def test_axial_gain(self):  # fig7
        cfg, exp = shipped("fig7_depth_plan_gains", "depth-plan")
        grid = exp["gain_grid"]
        z = _log_grid(grid["z_min"], grid["z_max"], grid["points"], "k")
        for f in _plan(cfg, exp).focal_points:
            expected = reference_gain_axial(cfg.geometry, f, z)
            assert_same_bits(beam.gain_axial(cfg.geometry, f, z), expected)
            np.testing.assert_array_equal(
                beam.gain_axial(cfg.geometry, f, np.asarray(z)), expected)

    def test_bandwidth_rates(self):  # fig1
        cfg, exp = shipped("fig1_capacity_vs_bandwidth",
                           "capacity-vs-bandwidth")
        b = _log_grid(exp["b_min_hz"], exp["b_max_hz"], exp["points"], "k")
        beta = free_space_gain(cfg.radio.wavelength(), exp["distance_m"])
        p = cfg.radio.power_over_noise
        rates = capacity_bandwidth_sweep(p, beta, b).rates
        assert isinstance(rates, tuple)
        # the same arithmetic, in the same order, with libm's log1p
        libm = np.frompyfunc(math.log1p, 1, 1)
        assert list(rates) == reference_rates(p * beta, b, libm).tolist()
        # numpy's SIMD log1p differs from libm's in the last bit at some
        # points, so against numpy's expression the rates agree to 1 ulp
        np.testing.assert_array_max_ulp(
            np.asarray(rates), reference_rates(p * beta, b, np.log1p), 1)
