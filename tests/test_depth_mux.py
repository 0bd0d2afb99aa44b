import math
import warnings

import numpy as np
import pytest

from nearfield import boundary_distances, build_upa
from nearfield.beam import gain_axial, solve_a3db
from nearfield.depth_mux import (
    SINR_CAP,
    build_mu_channel,
    evaluate_sinr,
    matched_filter_precoder,
    plan_depth_focal_points,
    plan_user_positions,
    planning_depth_parameter,
    zf_precoder,
)
from nearfield.field import fresnel_channel_vector
from nearfield.numerics import RankError


def make_desk_array(rows=30, cols=40, freq=3e9):
    lam = 299792458.0 / freq
    return build_upa(rows, cols, lam / 4.0, lam)


def half_wave_square(m=200, freq=3e9):
    """Square array whose element *diagonal* is half a wavelength."""
    lam = 299792458.0 / freq
    return build_upa(m, m, lam / (2.0 * math.sqrt(2.0)), lam)


class TestPlanningParameter:
    def test_canonical_value(self):
        g = make_desk_array(30, 40)
        assert planning_depth_parameter(g) == pytest.approx(2.5 / 2500)
        g = half_wave_square(200)
        assert planning_depth_parameter(g) == pytest.approx(2.5 / 80000)

    @pytest.mark.parametrize("rows,cols", [(30, 40), (200, 200), (1, 1),
                                           (7, 1000)])
    def test_canonical_bits(self, rows, cols):
        # 10 / (4 s) and 2.5 / s round the same real number: 4 s is exact
        g = build_upa(rows, cols, 0.025, 0.1)
        assert planning_depth_parameter(g) == 2.5 / (rows**2 + cols**2)

    def test_exact_differs_slightly_for_squares(self):
        g = half_wave_square(50)
        canonical = planning_depth_parameter(g)
        exact = planning_depth_parameter(g, exact=True)
        assert exact == pytest.approx(solve_a3db(50, 50))
        assert abs(exact - canonical) / canonical < 0.01


class TestFocalPlan:
    def test_square_canonical_sequence(self):
        # 200 x 200 half-wavelength elements: focal points must follow
        # inf, d_FA/20, d_FA/40, ... down to d_B, with interval boundaries
        # at d_FA/10, d_FA/30, d_FA/50, ...
        g = half_wave_square(200)
        b = boundary_distances(g)
        plan = plan_depth_focal_points(g)
        assert plan.focal_points[0] == math.inf
        expected = [b.d_fa / (20 * k) for k in range(1, len(plan.focal_points))]
        np.testing.assert_allclose(plan.focal_points[1:], expected, rtol=1e-9)
        assert len(plan.focal_points) == 6
        boundaries = [iv[0] for iv in plan.intervals]
        expected_b = [b.d_fa / (10 * (2 * k + 1)) for k in range(6)]
        np.testing.assert_allclose(boundaries, expected_b, rtol=1e-9)

    def test_contiguous_disjoint(self):
        g = make_desk_array(80, 500)
        plan = plan_depth_focal_points(g)
        for prev, cur in zip(plan.intervals, plan.intervals[1:]):
            assert cur[1] == pytest.approx(prev[0], rel=1e-12)
            assert cur[0] < cur[1]

    def test_focal_point_inside_interval(self):
        g = half_wave_square(120)
        plan = plan_depth_focal_points(g)
        for f, (lo, hi) in zip(plan.focal_points[1:], plan.intervals[1:]):
            assert lo < f < hi

    def test_respects_d_min(self):
        g = half_wave_square(200)
        b = boundary_distances(g)
        plan = plan_depth_focal_points(g)
        assert all(f >= b.d_b * (1 - 1e-9) for f in plan.focal_points[1:])
        assert plan.d_min == pytest.approx(b.d_b)
        with pytest.warns(UserWarning):
            longer = plan_depth_focal_points(g, d_min=b.d_b / 4)
        assert len(longer.focal_points) > len(plan.focal_points)

    def test_warns_below_d_b(self):
        g = half_wave_square(100)
        b = boundary_distances(g)
        with pytest.warns(UserWarning):
            plan_depth_focal_points(g, d_min=b.d_b / 10)

    def test_interval_endpoints_are_half_gain_with_exact_parameter(self):
        g = half_wave_square(100)
        a = planning_depth_parameter(g, exact=True)
        plan = plan_depth_focal_points(g, a3db=a)
        f = plan.focal_points[1]
        lo, hi = plan.intervals[1]
        assert gain_axial(g, f, lo) == pytest.approx(0.5, abs=1e-6)
        assert gain_axial(g, f, hi) == pytest.approx(0.5, abs=1e-6)

    def test_invalid_d_min(self):
        with pytest.raises(ValueError):
            plan_depth_focal_points(half_wave_square(50), d_min=0.0)

    @pytest.mark.parametrize("d_min", [math.nan, math.inf, -1.0])
    def test_non_finite_d_min(self, d_min):
        # NaN fails every comparison, so the packing loop would never stop
        with pytest.raises(ValueError, match="finite and positive"):
            plan_depth_focal_points(half_wave_square(50), d_min=d_min)

    def test_more_focal_points_than_elements(self):
        # no precoder resolves more users than antennas: a d_min whose plan
        # outgrows the 100 elements is refused before any point is built
        g = half_wave_square(10)
        inv_tau = boundary_distances(g).d_f / (8 * planning_depth_parameter(g))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # d_min below d_B
            full = plan_depth_focal_points(g, d_min=inv_tau / 198)
            assert len(full.focal_points) == 100
            for d_min in (inv_tau / 200, 1e-300, 5e-324):
                with pytest.raises(ValueError, match="more focal points"):
                    plan_depth_focal_points(g, d_min=d_min)


class TestUserPositions:
    def test_positions_on_axis_inside_intervals(self):
        g = half_wave_square(200)
        b = boundary_distances(g)
        plan = plan_depth_focal_points(g)
        users = plan_user_positions(plan, g)
        assert len(users) == len(plan.focal_points)
        assert users[0] == (0.0, 0.0, b.d_fa)
        for (x, y, z), (lo, hi) in zip(users, plan.intervals):
            assert x == y == 0.0
            assert lo <= z <= hi


class TestChannelAndPrecoders:
    def setup_method(self):
        self.geom = half_wave_square(100)
        self.plan = plan_depth_focal_points(self.geom)
        self.users = plan_user_positions(self.plan, self.geom)
        self.channel = build_mu_channel(self.geom, self.users)

    def test_channel_columns(self):
        h = self.channel.matrix
        lam = self.geom.wavelength
        assert h.shape == (self.geom.num_elements, len(self.users))
        for k, (x, y, z) in enumerate(self.users):
            d = math.sqrt(x * x + y * y + z * z)
            beta = (lam / (4 * math.pi * d)) ** 2
            assert np.linalg.norm(h[:, k]) ** 2 == pytest.approx(
                beta * self.geom.num_elements, rel=1e-12)

    def test_per_element_amplitude_columns(self):
        # off-axis users too: column k is lambda / (4 pi ||e - p_k||) * h_k
        users = self.users + [(0.4, -0.3, 2.0), (-1.1, 0.2, 7.5)]
        h = build_mu_channel(self.geom, users,
                             per_element_amplitude=True).matrix
        lam = self.geom.wavelength
        c = self.geom.element_centers()
        for k, (x, y, z) in enumerate(users):
            dist = np.sqrt((c[:, 0] - x) ** 2 + (c[:, 1] - y) ** 2 + z * z)
            expected = (lam / (4 * math.pi * dist)
                        * fresnel_channel_vector(self.geom, (x, y, z)))
            np.testing.assert_allclose(h[:, k], expected, rtol=1e-14, atol=0)

    def test_per_element_amplitude_modulus(self):
        users = [(0.0, 0.0, 0.5), (0.4, -0.3, 2.0), (-1.1, 0.2, 7.5)]
        h = build_mu_channel(self.geom, users,
                             per_element_amplitude=True).matrix
        c = self.geom.element_centers()
        for k, (x, y, z) in enumerate(users):
            dist = np.sqrt((c[:, 0] - x) ** 2 + (c[:, 1] - y) ** 2 + z * z)
            np.testing.assert_allclose(
                np.abs(h[:, k]), self.geom.wavelength / (4 * math.pi * dist),
                rtol=1e-14, atol=0)

    def test_no_users_raise(self):
        with pytest.raises(ValueError, match="need at least one user"):
            build_mu_channel(self.geom, [])

    def test_duplicate_users_warn(self):
        with pytest.warns(UserWarning):
            build_mu_channel(self.geom, [(0, 0, 1.0), (0, 0, 1.0)])

    def test_zf_inverts_channel(self):
        h = self.channel.matrix
        w = zf_precoder(h, total_power=2.0)
        cross = h.conj().T @ w
        diag = np.abs(np.diag(cross))
        off = np.abs(cross - np.diag(np.diag(cross))).max()
        # H^H W = alpha I: all diagonal entries equal, off-diagonals zero
        np.testing.assert_allclose(diag, diag[0], rtol=1e-9)
        assert off < 1e-9 * diag[0]
        assert np.sum(np.abs(w) ** 2) == pytest.approx(2.0, rel=1e-12)

    def test_mf_power(self):
        w = matched_filter_precoder(self.channel.matrix, total_power=3.0)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(3.0, rel=1e-12)
        norms = np.linalg.norm(w, axis=0)
        np.testing.assert_allclose(norms, norms[0], rtol=1e-12)

    def test_zf_rank_error_for_coincident_users(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ch = build_mu_channel(self.geom, [(0, 0, 1.0), (0, 0, 1.0)])
        with pytest.raises(RankError):
            zf_precoder(ch.matrix)

    def test_zf_rank_error_far_field_coangular(self):
        # two co-angular users deep in the far field are unresolvable
        d_fa = boundary_distances(self.geom).d_fa
        ch = build_mu_channel(self.geom,
                              [(0, 0, 1e5 * d_fa), (0, 0, 2e5 * d_fa)])
        with pytest.raises(RankError):
            zf_precoder(ch.matrix)

    def test_near_field_depth_separation(self):
        # the same two users moved into the near field are resolvable
        d_fa = boundary_distances(self.geom).d_fa
        ch = build_mu_channel(self.geom,
                              [(0, 0, d_fa / 20), (0, 0, d_fa / 60)])
        w = zf_precoder(ch.matrix)
        cross = ch.matrix.conj().T @ w
        off = np.abs(cross - np.diag(np.diag(cross))).max()
        assert off < 1e-9 * np.abs(np.diag(cross)).min()

    def test_plan_channel_correlation_low(self):
        # normalized correlation between adjacent planned users is small
        h = self.channel.matrix
        hn = h / np.linalg.norm(h, axis=0, keepdims=True)
        gram = np.abs(hn.conj().T @ hn)
        off = gram - np.eye(gram.shape[0])
        assert off.max() < 0.5

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            zf_precoder(self.channel.matrix, total_power=0.0)


class TestSinr:
    def setup_method(self):
        geom = half_wave_square(100)
        plan = plan_depth_focal_points(geom)
        users = plan_user_positions(plan, geom)
        self.h = build_mu_channel(geom, users).matrix

    def test_zf_interference_free(self):
        w = zf_precoder(self.h)
        noise = 1e-12
        sinr, rate = evaluate_sinr(self.h, w, noise)
        signal = np.abs(np.diag(self.h.conj().T @ w)) ** 2
        np.testing.assert_allclose(sinr, signal / noise, rtol=1e-9)
        assert rate == pytest.approx(np.sum(np.log2(1 + sinr)))

    def test_zero_noise_cap(self):
        w = zf_precoder(self.h)
        sinr, _ = evaluate_sinr(self.h, w, 0.0)
        np.testing.assert_array_equal(sinr, SINR_CAP)

    def test_mf_has_residual_interference(self):
        w_mf = matched_filter_precoder(self.h)
        cross = self.h.conj().T @ w_mf
        signal = np.abs(np.diag(cross)) ** 2
        interf = np.sum(np.abs(cross) ** 2, axis=1) - signal
        ratio_db = 10 * np.log10(interf / signal)
        # planned depth users leak between -15 and -5 dB under conjugate
        # beamforming: separable but not interference-free
        assert np.all(ratio_db > -15) and np.all(ratio_db < -5)
        # with noise well below the interference floor, ZF beats MF
        noise = 1e-4 * signal.min()
        _, rate_zf = evaluate_sinr(self.h, zf_precoder(self.h), noise)
        _, rate_mf = evaluate_sinr(self.h, w_mf, noise)
        assert rate_zf > rate_mf

    def test_bandwidth_scales_rate(self):
        w = zf_precoder(self.h)
        _, r1 = evaluate_sinr(self.h, w, 1e-10, bandwidth=1.0)
        _, r2 = evaluate_sinr(self.h, w, 1e-10, bandwidth=20e6)
        assert r2 == pytest.approx(20e6 * r1)

    def test_negative_noise(self):
        with pytest.raises(ValueError):
            evaluate_sinr(self.h, self.h, -1.0)
