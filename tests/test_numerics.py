import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import fresnel

import nearfield
from nearfield import beam, depth_mux, field, mimo_los
from nearfield.config import RadioParams
from nearfield.geometry import (
    FAR_FIELD,
    SPEED_OF_LIGHT,
    ArrayGeometry,
    boundary_distances,
    classify,
    wavelength_of,
)
from nearfield.numerics import (
    MAX_COUNT,
    AccuracyError,
    BracketError,
    check_count,
    check_non_negative,
    check_positive,
    elementwise,
    fresnel_cs,
    hermitian_eig,
    solve_scalar_root,
)
from patch_quadrature import Rect, efield_exact, integrate_patch


def fresnel_quad(x):
    """Independent oracle: adaptive quadrature of the defining integrals."""
    c, _ = quad(lambda t: math.cos(math.pi * t * t / 2.0), 0.0, x, limit=400)
    s, _ = quad(lambda t: math.sin(math.pi * t * t / 2.0), 0.0, x, limit=400)
    return c, s


class TestFresnel:
    def test_zero(self):
        assert fresnel_cs(0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 1.7, 2.3, 4.0, 5.9])
    def test_against_quadrature_oracle(self, x):
        c, s = fresnel_cs(x)
        c_ref, s_ref = fresnel_quad(x)
        assert abs(c - c_ref) < 1e-10
        assert abs(s - s_ref) < 1e-10

    def test_value_at_one(self):
        # frozen from the quadrature oracle
        c, s = fresnel_cs(1.0)
        assert c == pytest.approx(0.7798934003768228, abs=1e-10)
        assert s == pytest.approx(0.4382591473903548, abs=1e-10)

    def test_asymptotic_limit(self):
        c, s = fresnel_cs(50.0)
        assert c == pytest.approx(0.5, abs=1e-2)
        assert s == pytest.approx(0.5, abs=1e-2)

    def test_oddness(self):
        x = np.linspace(0.1, 8.0, 40)
        c_pos, s_pos = fresnel_cs(x)
        c_neg, s_neg = fresnel_cs(-x)
        np.testing.assert_allclose(c_neg, -c_pos, atol=1e-14)
        np.testing.assert_allclose(s_neg, -s_pos, atol=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            fresnel_cs(float("nan"))

    @pytest.mark.parametrize("x", [
        np.linspace(-60.0, 60.0, 24001),
        np.logspace(-8, 4, 20001),
        1.5 + np.array([-1e-12, 0.0, 1e-12]),
        np.array([1e16, 1e100, -1e150]),
    ], ids=["dense", "logspace", "series-cf-switch", "huge"])
    def test_matches_scipy(self, x):
        c, s = fresnel_cs(x)
        s_ref, c_ref = fresnel(x)
        np.testing.assert_allclose(c, c_ref, rtol=0, atol=2e-12)
        np.testing.assert_allclose(s, s_ref, rtol=0, atol=2e-12)

    def test_pi_x_squared_overflow(self):
        # pi x^2 overflows here (scipy gives nan); C and S are 0.5 to an ulp
        assert fresnel_cs(1e300) == (0.5, 0.5)
        assert fresnel_cs(-1e200) == (-0.5, -0.5)

    def test_infinite_limits(self):
        # C and S tend to 1/2 as x -> inf, and are odd
        assert fresnel_cs(math.inf) == (0.5, 0.5)
        assert fresnel_cs(-math.inf) == (-0.5, -0.5)
        c, s = fresnel_cs(np.array([-math.inf, 0.0, math.inf]))
        np.testing.assert_array_equal(c, [-0.5, 0.0, 0.5])
        np.testing.assert_array_equal(s, [-0.5, 0.0, 0.5])

    def test_scalar_gives_python_floats(self):
        for x in (0.3, np.float64(2.5), np.array(-7.0)):
            c, s = fresnel_cs(x)
            assert type(c) is float and type(s) is float
        c, s = fresnel_cs(np.full((2, 3), 0.3))
        assert c.shape == s.shape == (2, 3)
        (c0, s0), (c1, s1) = fresnel_cs(0.3), fresnel_cs(-7.0)
        assert fresnel_cs([0.3, -7.0]) == ([c0, c1], [s0, s1])


class TestElementwise:
    def test_result_takes_the_argument_type(self):
        def double(v):
            assert type(v) is float
            return 2.0 * v

        assert elementwise(double, 1) == 2.0
        assert elementwise(double, np.array(1.5)) == 3.0
        assert elementwise(double, [1, np.float64(2.0)]) == [2.0, 4.0]
        out = elementwise(double, np.arange(6.0).reshape(2, 3))
        assert isinstance(out, np.ndarray) and out.shape == (2, 3)
        np.testing.assert_array_equal(out, 2.0 * np.arange(6.0).reshape(2, 3))
        assert elementwise(double, []) == []

    def test_floats_stand_for_every_element(self):
        assert elementwise(lambda a, b: a - b, [1.0, 2.0], 1.0) == [0.0, 1.0]
        out = elementwise(lambda a, b: a - b, np.array([[1.0], [2.0]]),
                          np.array([0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(out, [[1, 0, -1], [2, 1, 0]])
        with pytest.raises(ValueError, match="different lengths"):
            elementwise(lambda a, b: a - b, [1.0, 2.0], [1.0])

    def test_several_outputs(self):
        def pair(v):
            return v, -v

        assert elementwise(pair, 2.0, outputs=2) == (2.0, -2.0)
        assert elementwise(pair, [1.0, 2.0], outputs=2) \
            == ([1.0, 2.0], [-1.0, -2.0])
        assert elementwise(pair, [], outputs=2) == ([], [])
        a, b = elementwise(pair, np.ones((2, 0)), outputs=2)
        assert a.shape == b.shape == (2, 0)


class TestIntegratePatch:
    def test_constant(self):
        r = Rect(0, 1, 0, 1)
        assert integrate_patch(lambda x, y: np.ones_like(x) * (1 + 0j), r) \
            == pytest.approx(1 + 0j)

    def test_oscillatory_closed_form(self):
        r = Rect(0, 1, 0, 1)
        k = 2j * np.pi / 3.0
        val = integrate_patch(lambda x, y: np.exp(-k * x) + 0 * y, r,
                              tol=1e-10)
        expected = (np.exp(-k) - 1) / (-k)
        assert abs(val - expected) < 1e-10

    def test_linearity(self):
        r = Rect(-0.3, 0.4, 0.1, 0.9)
        tol = 1e-8
        f = lambda x, y: np.exp(-1j * (x * x + 2 * y))
        g = lambda x, y: np.cos(3 * x) * np.sin(y) + 0j
        a, b = 2.3, -1.7 + 0.4j
        lhs = integrate_patch(lambda x, y: a * f(x, y) + b * g(x, y), r, tol)
        rhs = a * integrate_patch(f, r, tol) + b * integrate_patch(g, r, tol)
        assert abs(lhs - rhs) <= 10 * tol * max(abs(lhs), 1.0)

    def test_grid_refinement_oracle(self):
        # field over a quarter-wavelength patch vs a fine fixed midpoint grid
        lam = 1.0
        z = 100.0
        r = Rect(-0.125, 0.125, -0.125, 0.125)
        val = integrate_patch(lambda x, y: efield_exact(x, y, z, lam), r,
                              tol=1e-9)
        n = 400
        xs = np.linspace(r.x_lo, r.x_hi, n, endpoint=False) + 0.25 / (2 * n)
        ref = efield_exact(xs[:, None], xs[None, :], z, lam).sum() * (0.25 / n) ** 2
        assert abs(val - ref) / abs(ref) < 1e-6

    def test_accuracy_error_carries_best_estimate(self):
        # an exactly-zero integral can never satisfy a relative tolerance
        with pytest.raises(AccuracyError) as exc:
            integrate_patch(lambda x, y: np.exp(-2j * np.pi * x) + 0 * y,
                            Rect(0, 1, 0, 1), tol=1e-12)
        assert abs(exc.value.best_estimate) < 1e-10

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_patch(lambda x, y: x + y, Rect(0, 1, 0, 1), tol=0.0)


class TestRootFinding:
    def test_linear(self):
        assert solve_scalar_root(lambda x: x - 1.0, (0.0, 2.0)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_sinc_half_power(self):
        root = solve_scalar_root(lambda x: np.sinc(x) ** 2 - 0.5, (0.0 + 1e-9, 1.0))
        assert root == pytest.approx(0.443, abs=1e-3)

    def test_cosine(self):
        assert solve_scalar_root(math.cos, (1.0, 2.0)) \
            == pytest.approx(math.pi / 2, abs=1e-12)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            solve_scalar_root(lambda x: x * x + 1.0, (-1.0, 1.0))

    @pytest.mark.parametrize("g,where", [
        (lambda x: math.nan if x == 0.0 else x - 0.5,
         r"an end of \[0.0, 1.0\]"),
        (lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan, "0.5"),
    ], ids=["at-an-end", "inside"])
    def test_nan_raises(self, g, where):
        with pytest.raises(ValueError, match=f"^g is NaN at {where}$"):
            solve_scalar_root(g, (0.0, 1.0))

    def test_iteration_cap_raises(self):
        # a step function over a 1e300-wide bracket needs ~2000 bisections
        with pytest.raises(AccuracyError):
            solve_scalar_root(lambda x: 1.0 if x > 1e-300 else -1.0,
                              (-1e300, 1e300), tol=1e-310)

    @pytest.mark.parametrize("g,bracket,tol", [
        (math.cos, (1.0, 2.0), 1e-12),
        (lambda x: x**3 - 2.0, (0.0, 3.0), 1e-15),
        (lambda x: x - 2.0, (1.0, 2.0), 1e-12),
        (lambda x: x - 1.0, (1.0, 2.0), 1e-12),
    ], ids=["cos", "cube-root", "root-at-hi", "root-at-lo"])
    def test_matches_scipy_brentq(self, g, bracket, tol):
        ref = brentq(g, *bracket, xtol=tol, rtol=4 * np.finfo(float).eps)
        assert abs(solve_scalar_root(g, bracket, tol) - ref) <= tol

    @pytest.mark.parametrize("shape", [(10, 10), (30, 40), (200, 200)],
                             ids=["a3db-10x10", "a3db-30x40", "a3db-200x200"])
    def test_library_roots_match_scipy_brentq(self, monkeypatch, shape):
        calls = []

        def spy(g, bracket, tol=1e-12):
            calls.append((g, bracket, tol))
            return solve_scalar_root(g, bracket, tol)

        monkeypatch.setattr(beam, "solve_scalar_root", spy)
        beam.solve_a3db(*shape)
        (g, (lo, hi), tol), = calls
        ref = brentq(g, lo, hi, xtol=tol, rtol=4 * np.finfo(float).eps)
        assert abs(solve_scalar_root(g, (lo, hi), tol) - ref) <= tol


GEOM = ArrayGeometry(4, 4, 0.05, 0.1)
H = np.array([[1.0, 0.5j], [0.2, 1.0], [0.1j, 0.3]])  # 3 elements, 2 users
#: bad values of a finite positive argument, and of one where inf is a point
#: at infinity
FINITE = (math.nan, 0.0, -1.0, math.inf)
AT_INFINITY = (math.nan, 0.0, -1.0)
#: bad values of a count
COUNT = (0, -1, 2.5, True, math.nan, MAX_COUNT + 1)
LINK = mimo_los.build_los_mimo(4, 0.5, 10.0, 0.1)
RADIO = RadioParams(3e9, 90.0)

#: (routine, argument, call with the argument set to v, values it refuses)
GUARDED = [
    ("ArrayGeometry", "rows", lambda v: ArrayGeometry(v, 4, 0.05, 0.1), COUNT),
    ("ArrayGeometry", "cols", lambda v: ArrayGeometry(4, v, 0.05, 0.1), COUNT),
    ("ArrayGeometry", "element_side",
     lambda v: ArrayGeometry(4, 4, v, 0.1), FINITE),
    ("ArrayGeometry", "wavelength",
     lambda v: ArrayGeometry(4, 4, 0.05, v), FINITE),
    ("classify", "d",
     lambda v: classify(v, boundary_distances(GEOM)), AT_INFINITY),
    ("gain_focal_plane", "focal_distance",
     lambda v: beam.gain_focal_plane(GEOM, v, 0.0, 0.0), FINITE),
    ("beam_width_3db", "focal_distance",
     lambda v: beam.beam_width_3db(GEOM, v), FINITE),
    ("gain_axial", "focal_distance",
     lambda v: beam.gain_axial(GEOM, v, 5.0), AT_INFINITY),
    ("gain_axial", "z_r", lambda v: beam.gain_axial(GEOM, 1.0, v),
     AT_INFINITY),
    ("g_of_x", "rows", lambda v: beam.g_of_x(v, 4, 0.1), COUNT),
    ("g_of_x", "cols", lambda v: beam.g_of_x(4, v, 0.1), COUNT),
    ("solve_a3db", "rows", lambda v: beam.solve_a3db(v, 4), COUNT),
    ("solve_a3db", "cols", lambda v: beam.solve_a3db(4, v), COUNT),
    ("beam_depth_3db", "focal_distance",
     lambda v: beam.beam_depth_3db(GEOM, v), AT_INFINITY),
    ("beam_depth_3db", "a3db",
     lambda v: beam.beam_depth_3db(GEOM, 1.0, a3db=v), FINITE),
    ("beam_depth_square", "focal_distance",
     lambda v: beam.beam_depth_square(GEOM, v), AT_INFINITY),
    ("array_gain_exact", "z", lambda v: beam.array_gain_exact(GEOM, v),
     FINITE),
    ("array_gain_exact", "tol",
     lambda v: beam.array_gain_exact(GEOM, 1.0, tol=v), FINITE),
    ("element_field_integrals", "z",
     lambda v: field.element_field_integrals(GEOM, v), FINITE),
    ("element_field_integrals", "tol",
     lambda v: field.element_field_integrals(GEOM, 1.0, tol=v), FINITE),
    ("plan_depth_focal_points", "d_min",
     lambda v: depth_mux.plan_depth_focal_points(GEOM, d_min=v), FINITE),
    ("plan_depth_focal_points", "a3db",
     lambda v: depth_mux.plan_depth_focal_points(GEOM, a3db=v), FINITE),
    ("zf_precoder", "total_power",
     lambda v: depth_mux.zf_precoder(H, v), FINITE),
    ("matched_filter_precoder", "total_power",
     lambda v: depth_mux.matched_filter_precoder(H, v), FINITE),
    # noise_power may be 0: a noise-free link
    ("evaluate_sinr", "noise_power",
     lambda v: depth_mux.evaluate_sinr(H, H, v), (math.nan, -1.0, math.inf)),
    ("evaluate_sinr", "bandwidth",
     lambda v: depth_mux.evaluate_sinr(H, H, 0.1, bandwidth=v), FINITE),
    ("free_space_gain", "wavelength",
     lambda v: mimo_los.free_space_gain(v, 10.0), FINITE),
    ("free_space_gain", "distance",
     lambda v: mimo_los.free_space_gain(0.1, v), FINITE),
    ("build_los_mimo", "num_antennas",
     lambda v: mimo_los.build_los_mimo(v, 0.5, 10.0, 0.1), COUNT),
    ("build_los_mimo", "spacing",
     lambda v: mimo_los.build_los_mimo(4, v, 10.0, 0.1), FINITE),
    ("build_los_mimo", "distance",
     lambda v: mimo_los.build_los_mimo(4, 0.5, v, 0.1), FINITE),
    ("build_los_mimo", "wavelength",
     lambda v: mimo_los.build_los_mimo(4, 0.5, 10.0, v), FINITE),
    ("optimal_spacing", "num_antennas",
     lambda v: mimo_los.optimal_spacing(v, 10.0, 0.1), COUNT),
    ("optimal_spacing", "distance",
     lambda v: mimo_los.optimal_spacing(4, v, 0.1), FINITE),
    ("optimal_spacing", "wavelength",
     lambda v: mimo_los.optimal_spacing(4, 10.0, v), FINITE),
    ("offdiag_magnitude", "num_antennas",
     lambda v: mimo_los.offdiag_magnitude(v, 0.5, 10.0, 0.1, 1, 2), COUNT),
    ("offdiag_magnitude", "spacing",
     lambda v: mimo_los.offdiag_magnitude(4, v, 10.0, 0.1, 1, 2), FINITE),
    # a negative distance or wavelength flips the sign of q, which leaves
    # |entry| as it is
    ("offdiag_magnitude", "distance",
     lambda v: mimo_los.offdiag_magnitude(4, 0.5, v, 0.1, 1, 2), FINITE),
    ("offdiag_magnitude", "wavelength",
     lambda v: mimo_los.offdiag_magnitude(4, 0.5, 10.0, v, 1, 2), FINITE),
    # antenna indices run from 1 to num_antennas = 4
    ("offdiag_magnitude", "k",
     lambda v: mimo_los.offdiag_magnitude(4, 0.5, 10.0, 0.1, v, 2),
     COUNT + (5,)),
    ("offdiag_magnitude", "l",
     lambda v: mimo_los.offdiag_magnitude(4, 0.5, 10.0, 0.1, 1, v),
     COUNT + (5,)),
    ("equal_eigenvalue_capacity", "num_streams",
     lambda v: mimo_los.equal_eigenvalue_capacity(v, 10.0), COUNT),
    # snr may be 0: a signal below the float range
    ("equal_eigenvalue_capacity", "snr",
     lambda v: mimo_los.equal_eigenvalue_capacity(2, v),
     (math.nan, -1.0, math.inf)),
    ("equal_eigenvalue_capacity", "bandwidth",
     lambda v: mimo_los.equal_eigenvalue_capacity(2, 10.0, v), FINITE),
    ("mode_analysis", "num_angles",
     lambda v: mimo_los.mode_analysis(LINK, num_angles=v), COUNT),
    ("capacity_waterfilling", "snr",
     lambda v: mimo_los.capacity_waterfilling([1.0, 0.5], v), FINITE),
    ("capacity_waterfilling", "bandwidth",
     lambda v: mimo_los.capacity_waterfilling([1.0, 0.5], 10.0, v), FINITE),
    ("capacity_bandwidth_sweep", "power_over_noise",
     lambda v: mimo_los.capacity_bandwidth_sweep(v, 1e-6, [1e6, 1e7]),
     FINITE),
    ("capacity_bandwidth_sweep", "beta",
     lambda v: mimo_los.capacity_bandwidth_sweep(1e10, v, [1e6, 1e7]),
     FINITE),
    ("capacity_bandwidth_sweep", "bandwidths",
     lambda v: mimo_los.capacity_bandwidth_sweep(1e10, 1e-6, [1e6, v]),
     FINITE),
    ("num_streams_for_area", "area",
     lambda v: mimo_los.num_streams_for_area(v, 10.0, 0.1, 0.05), FINITE),
    ("num_streams_for_area", "distance",
     lambda v: mimo_los.num_streams_for_area(1.0, v, 0.1, 0.05), FINITE),
    ("num_streams_for_area", "wavelength",
     lambda v: mimo_los.num_streams_for_area(1.0, 10.0, v, 0.05), FINITE),
    # antenna_width may be 0: point antennas
    ("num_streams_for_area", "antenna_width",
     lambda v: mimo_los.num_streams_for_area(1.0, 10.0, 0.1, v),
     (math.nan, -1.0, math.inf)),
    ("capacity_frequency_sweep", "frequency",
     lambda v: mimo_los.capacity_frequency_sweep(0.01, 10.0, [3e9, v], RADIO),
     FINITE),
    ("spatial_dof", "area", lambda v: mimo_los.spatial_dof(v, 0.1), FINITE),
    ("spatial_dof", "wavelength",
     lambda v: mimo_los.spatial_dof(1.0, v), FINITE),
    ("RadioParams", "carrier_frequency",
     lambda v: RadioParams(carrier_frequency=v, power_over_noise_db=90.0),
     FINITE),
    ("RadioParams", "bandwidth_fraction",
     lambda v: RadioParams(3e9, 90.0, bandwidth_fraction=v), FINITE),
    ("RadioParams", "bandwidth_hz",
     lambda v: RadioParams(3e9, 90.0, bandwidth_fraction=None,
                           bandwidth_hz=v), FINITE),
    ("solve_scalar_root", "tol",
     lambda v: solve_scalar_root(lambda x: x - 0.5, (0.0, 1.0), tol=v),
     AT_INFINITY),
]


class TestScalarGuard:
    @pytest.mark.parametrize("call,name,bad", [
        pytest.param(call, name, bad, id=f"{routine}-{name}-{bad}")
        for routine, name, call, refused in GUARDED for bad in refused])
    def test_refused_value_names_its_argument(self, call, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(bad)

    def test_infinity_is_a_point_at_infinity(self):
        assert classify(math.inf, boundary_distances(GEOM)) == FAR_FIELD
        # F = inf: the unfocused beam, finite gain and a finite near end
        assert 0.0 < beam.gain_axial(GEOM, math.inf, 5.0) <= 1.0
        assert 0.0 < beam.gain_axial(GEOM, 1.0, math.inf) <= 1.0
        metrics = beam.beam_depth_3db(GEOM, math.inf)
        assert 0.0 < metrics.bd_interval[0] < math.inf
        assert metrics.bd_interval[1] == metrics.bd_3db == math.inf
        assert beam.beam_depth_square(GEOM, math.inf) == math.inf
        assert 0.0 <= solve_scalar_root(lambda x: x - 0.5, (0.0, 1.0),
                                        tol=math.inf) <= 1.0

    def test_check_positive(self):
        assert check_positive("x", 2.5) == 2.5
        assert check_positive("x", math.inf, finite=False) == math.inf
        with pytest.raises(ValueError,
                           match="^x must be finite and positive, got inf$"):
            check_positive("x", math.inf)
        with pytest.raises(ValueError, match="^x must be positive, got nan$"):
            check_positive("x", math.nan, finite=False)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0.0) == 0.0
        assert check_non_negative("x", 2.5) == 2.5
        with pytest.raises(ValueError, match="^x must be finite and "
                                             "non-negative, got -1.0$"):
            check_non_negative("x", -1.0)

    def test_wavelength_of(self):
        assert wavelength_of(3e9) == SPEED_OF_LIGHT / 3e9
        # c / f leaves the float range below c / (largest float) Hz
        assert wavelength_of(1.668e-300) < math.inf
        with pytest.raises(ValueError, match=r"^frequency 1\.667e-300 Hz "
                           r"puts the wavelength c / f beyond the float "
                           r"range$"):
            wavelength_of(1.667e-300)
        # the largest float gives a normal wavelength, not a subnormal one
        assert wavelength_of(sys.float_info.max) >= sys.float_info.min
        with pytest.raises(ValueError, match="^frequency must be finite and "
                                             "positive, got 0.0$"):
            wavelength_of(0.0)

    def test_check_count(self):
        assert check_count("n", MAX_COUNT) == MAX_COUNT
        count = check_count("n", np.int64(3))  # numpy integers pass
        assert count == 3 and type(count) is int
        with pytest.raises(ValueError, match=f"^n must be an integer from 1 "
                                             f"to {MAX_COUNT}, got 2.5$"):
            check_count("n", 2.5)


class TestDenseLinalg:
    def test_identity(self):
        w, _ = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(w, [1, 1, 1])

    def test_diagonal(self):
        w, v = hermitian_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(w, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("n", [6, 17, 64])
    def test_reconstruction_and_trace(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = a + a.conj().T
        w, q = hermitian_eig(m)
        recon = (q * w) @ q.conj().T
        assert np.linalg.norm(recon - m) / np.linalg.norm(m) < 1e-9
        assert abs(w.sum() - np.trace(m).real) < 1e-9 * abs(np.trace(m).real)
        assert np.all(np.diff(w) <= 1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def run_fresh_python(code):
    """Stdout of `code` run in a fresh interpreter that imports this
    checkout's nearfield."""
    src = str(Path(nearfield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120, check=True,
                            env=dict(os.environ, PYTHONPATH=path))
    return result.stdout


def test_import_loads_no_scipy():
    # scipy is a test-only oracle: the package and its CLI must not import
    # it. The CLI imports the library modules in its runners, so each is
    # imported here by name.
    code = ("import sys, nearfield, nearfield.cli, nearfield.beam, "
            "nearfield.field, nearfield.depth_mux, nearfield.mimo_los; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run_fresh_python(code).strip() == "[]"


#: The closed-form subcommands and a shipped config of each.
SCALAR_RUNS = [("regions", "regions"), ("dof", "dof"),
               ("capacity-vs-frequency", "fig13_capacity_vs_frequency"),
               ("depth-plan", "fig10_depth_plan"),
               ("beam-width", "fig5_beam_width"), ("g-of-x", "fig9_g_of_x"),
               ("depth-plan", "fig7_depth_plan_gains"),
               ("capacity-vs-bandwidth", "fig1_capacity_vs_bandwidth")]


@pytest.mark.parametrize("module", ["numerics", "geometry", "field", "beam",
                                    "depth_mux", "mimo_los"])
def test_library_loads_no_config_layer(module):
    # the YAML config layer sits above the library: no library module
    # imports it, or PyYAML with it
    code = (f"import sys, nearfield.{module}; "
            "print([m for m in ('nearfield.config', 'yaml') "
            "if m in sys.modules])")
    assert run_fresh_python(code).strip() == "[]"


def test_scalar_subcommands_load_no_numpy(tmp_path):
    # numpy's import is most of a cold start; the closed-form subcommands
    # must run to exit 0 without it, each in turn in one interpreter.
    # beam-depth has no shipped config, so it gets one here.
    configs = Path(__file__).resolve().parents[1] / "configs"
    beam_depth = tmp_path / "beam_depth.yaml"
    beam_depth.write_text((configs / "fig5_beam_width.yaml").read_text()
                          .split("experiment:")[0]
                          + "experiment:\n  focal_distances: [1.0, 5.0]\n")
    runs = [(sub, str(configs / f"{name}.yaml")) for sub, name in SCALAR_RUNS]
    runs.append(("beam-depth", str(beam_depth)))
    code = ("import contextlib, io, sys\n"
            "from nearfield.cli import main\n"
            f"for sub, cfg in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = main([sub, '--config', cfg, '--out', '-'])\n"
            "    print(sub, rc, 'numpy' in sys.modules)\n")
    assert run_fresh_python(code).splitlines() == [
        f"{sub} 0 False" for sub, _ in runs]
