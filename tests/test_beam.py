import math

import numpy as np
import pytest

from nearfield import boundary_distances, build_upa
from nearfield import beam, field
from nearfield.beam import (
    BeamMetrics,
    array_gain_exact,
    beam_depth_3db,
    beam_depth_square,
    beam_pattern_map,
    beam_width_3db,
    g_of_x,
    gain_axial,
    gain_focal_plane,
    solve_a3db,
)
from nearfield.numerics import AccuracyError


def make_desk_array(rows=30, cols=40, freq=3e9):
    lam = 299792458.0 / freq
    return build_upa(rows, cols, lam / 4.0, lam)


def direct_map(geom, focus, x, z):
    """abs(h(F)^H h(p))^2 / N^2 for p = (x, 0, z) over the (z, x) grid, with
    the spherical phase written out from raw distances."""
    c = geom.element_centers()
    k = 2 * np.pi / geom.wavelength
    h_f = np.exp(-1j * k * np.sqrt((c[:, 0] - focus[0]) ** 2
                                   + (c[:, 1] - focus[1]) ** 2 + focus[2] ** 2))
    dist = np.sqrt((c[:, 0, None, None] - x) ** 2
                   + c[:, 1, None, None] ** 2 + z[:, None] ** 2)
    dots = np.einsum("e,ezx->zx", np.conj(h_f), np.exp(-1j * k * dist))
    return np.abs(dots) ** 2 / geom.num_elements**2


class TestExactGain:
    def test_far_field_limit(self):
        g = make_desk_array(6, 8)
        d_fa = boundary_distances(g).d_fa
        assert array_gain_exact(g, 50 * d_fa) == pytest.approx(1.0, abs=1e-3)

    def test_monotone_beyond_db(self):
        g = make_desk_array(6, 8)
        b = boundary_distances(g)
        zs = np.geomspace(b.d_b, b.d_fa, 6)
        gains = [array_gain_exact(g, z) for z in zs]
        assert all(np.diff(gains) > 0)

    def test_value_at_db(self):
        # about 96% of the far-field gain is reached at d_B = 2W
        g = make_desk_array(30, 40)
        b = boundary_distances(g)
        assert array_gain_exact(g, b.d_b) == pytest.approx(0.9589, abs=2e-3)
        g = make_desk_array(20, 20)
        b = boundary_distances(g)
        assert array_gain_exact(g, b.d_b) == pytest.approx(0.96, abs=0.01)

    def test_bounded(self):
        g = make_desk_array(4, 4)
        b = boundary_distances(g)
        for z in np.geomspace(b.d_n * 2, b.d_fa, 5):
            assert 0 < array_gain_exact(g, z) <= 1.0


#: fig4's 30x40 quarter-wave array and scaled-down versions of the
#: 1024-element benchmark arrays, with 1 and 2 wavelength elements
GAIN_SHAPES = [(30, 40, 0.25), (8, 8, 1.0), (8, 8, 2.0), (4, 16, 1.0),
               (4, 16, 2.0)]


def gain_points():
    """(geometry, z) at d_N, d_B, d_F, 10 d_F and 1000 d_F of each shape."""
    lam = 299792458.0 / 3e9
    for rows, cols, side in GAIN_SHAPES:
        g = build_upa(rows, cols, side * lam, lam)
        b = boundary_distances(g)
        for z in (b.d_n, b.d_b, b.d_f, 10 * b.d_f, 1e3 * b.d_f):
            yield g, z


def gain_bound(g, z):
    """The Cauchy-Schwarz bound on the exact gain: the aperture's |E|^2
    integral over that of N reference elements."""
    half = 0.5 * g.element_side / z
    ref = beam._power_integral(half, half)
    return (beam._power_integral(g.cols * half, g.rows * half)
            / (g.num_elements * ref))


class TestExactGainAccuracy:
    def test_early_acceptance_matches_tight_tolerance(self):
        # an order accepted at tol 1e-6 is already accurate well past it
        for g, z in gain_points():
            tight = array_gain_exact(g, z, tol=1e-13)
            assert array_gain_exact(g, z, tol=1e-6) \
                == pytest.approx(tight, rel=1e-8, abs=0)

    def test_gain_within_cauchy_schwarz_bound(self):
        for g, z in gain_points():
            bound = gain_bound(g, z)
            assert 0 < array_gain_exact(g, z) <= bound <= 1

    @pytest.mark.parametrize("rows,cols,side,factor", [
        (30, 40, 0.25, 1e12), (30, 40, 0.25, 1e20), (8, 8, 1.0, 1e12),
        (1, 1, 0.5, 1e20)])
    def test_far_gain_at_tight_tolerance(self, rows, cols, side, factor):
        # far out the gain and its bound both round to about 1, a few ulps
        # apart in either order; a tolerance below that rounding must not
        # read as a broken bound
        lam = 0.1
        g = build_upa(rows, cols, side * lam, lam)
        z = factor * boundary_distances(g).d_f
        assert array_gain_exact(g, z, tol=1e-15) == pytest.approx(1.0,
                                                                 abs=1e-14)

    def test_inflated_integrals_raise(self, monkeypatch):
        # integrals 1 % too large put the gain 2 % above a bound that far
        # points approach
        exact = field.element_field_integrals

        def inflated(geom, z, tol=1e-8):
            return 1.01 * exact(geom, z, tol=tol)

        monkeypatch.setattr(field, "element_field_integrals", inflated)
        g = make_desk_array()
        with pytest.raises(AccuracyError, match="Cauchy-Schwarz") as exc:
            array_gain_exact(g, 1e3 * boundary_distances(g).d_f)
        assert exc.value.best_estimate > 1


class TestFocalPlaneGain:
    @pytest.mark.parametrize("f", [5e-324, 1e-308])
    def test_lambda_f_below_normal_floats_raises(self, f):
        # lambda F would divide every sinc argument as 0 or a subnormal
        with pytest.raises(ValueError, match="below the normal floats"):
            gain_focal_plane(make_desk_array(), f, [0.0, 0.1], 0.0)

    def test_peak_and_nulls(self):
        g = make_desk_array()
        f = 5.0
        assert gain_focal_plane(g, f, 0.0, 0.0) == pytest.approx(1.0)
        # first null along x at x = sqrt(2) lam F / (N D)
        x_null = math.sqrt(2) * g.wavelength * f / (g.cols * g.element_diagonal)
        assert gain_focal_plane(g, f, x_null, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_separability(self):
        g = make_desk_array()
        f = 4.0
        x, y = 0.013, -0.021
        assert gain_focal_plane(g, f, x, y) == pytest.approx(
            gain_focal_plane(g, f, x, 0.0) * gain_focal_plane(g, f, 0.0, y))

    def test_half_power_at_beam_width(self):
        g = make_desk_array()
        f = 6.0
        bw = beam_width_3db(g, f)
        assert gain_focal_plane(g, f, bw / 2, 0.0) == pytest.approx(0.5, abs=2e-3)

    def test_beam_width_scaling(self):
        g = make_desk_array()
        assert beam_width_3db(g, 8.0) == pytest.approx(2 * beam_width_3db(g, 4.0))
        g2 = make_desk_array(30, 80)
        assert beam_width_3db(g2, 4.0) == pytest.approx(
            beam_width_3db(g, 4.0) / 2)

    def test_desk_scale_value(self):
        # 30 x 40 quarter-wave elements at 3 GHz focused at 5 m:
        # BW = 0.886 sqrt(2) lam F / (N D) -> about 0.443 m
        g = make_desk_array()
        assert beam_width_3db(g, 5.0) == pytest.approx(0.443, abs=5e-4)

    def test_invalid_focal(self):
        g = make_desk_array()
        with pytest.raises(ValueError):
            beam_width_3db(g, math.inf)
        with pytest.raises(ValueError):
            gain_focal_plane(g, -1.0, 0.0, 0.0)
        # nan is no point of the focal plane, not even a null
        with pytest.raises(ValueError, match="^x_r must not be nan$"):
            gain_focal_plane(g, 1.0, math.nan, 0.0)
        with pytest.raises(ValueError, match="^y_r must not be nan$"):
            gain_focal_plane(g, 1.0, [0.0, 0.1], [0.0, math.nan])


class TestAxialGain:
    def test_limit_at_zero(self):
        assert g_of_x(10, 10, 0.0) == pytest.approx(1.0)
        assert g_of_x(3, 7, 1e-12) == pytest.approx(1.0, abs=1e-6)
        # only x = 0 is the peak: nan is refused, not read as 0
        with pytest.raises(ValueError, match="^x must not be nan$"):
            g_of_x(10, 10, math.nan)

    def test_even(self):
        vals = np.array([0.003, 0.01, 0.02])
        np.testing.assert_allclose(g_of_x(10, 20, vals), g_of_x(10, 20, -vals))

    def test_against_direct_fresnel_formula(self):
        from scipy.special import fresnel
        for (m, n, x) in [(10, 10, 0.01), (30, 40, 0.001), (8, 24, 0.004)]:
            sm, cm = fresnel(m * math.sqrt(x))
            sn, cn = fresnel(n * math.sqrt(x))
            expected = (cm**2 + sm**2) * (cn**2 + sn**2) / (m * n * x) ** 2
            assert g_of_x(m, n, x) == pytest.approx(expected, rel=1e-12)

    def test_focal_point_is_unity(self):
        g = make_desk_array()
        assert gain_axial(g, 4.0, 4.0) == 1.0

    def test_infinite_focus(self):
        g = make_desk_array()
        d_f = boundary_distances(g).d_f
        z = d_f / (8 * 0.001)
        assert gain_axial(g, math.inf, z) == pytest.approx(
            g_of_x(30, 40, 0.001))

    def test_array_matches_scalar_calls(self):
        g = make_desk_array()
        f = boundary_distances(g).d_fa / 25.0
        z = np.geomspace(0.2 * f, 20 * f, 31)
        for focus in (f, math.inf):
            gains = gain_axial(g, focus, z)
            assert gains.shape == z.shape
            np.testing.assert_array_equal(
                gains, [gain_axial(g, focus, zz) for zz in z])

    def test_farthest_float_distance(self):
        # x_z = d_F/(8z) is a subnormal beside x_F, so g is that of
        # z = inf, far from 1
        g = make_desk_array()
        d_f = boundary_distances(g).d_f
        f = boundary_distances(g).d_fa / 25.0
        assert gain_axial(g, f, 1.7e308) == pytest.approx(
            g_of_x(g.rows, g.cols, d_f / (8 * f)), rel=1e-13, abs=0)

    def test_nearest_float_distance(self, recwarn):
        # x_z = d_F/(8z) overflows, so x = inf and g = 0, without a warning
        g = make_desk_array()
        assert gain_axial(g, 1.0, 5e-324) == 0.0
        assert gain_axial(g, math.inf, np.array([5e-324]))[0] == 0.0
        # x_F overflows too: g takes its limit, 0 off the focus, 1 on it
        assert gain_axial(g, 1e-320, 1e-319) == 0.0
        assert gain_axial(g, 1e-320, [1e-320, 1.0]) == [1.0, 0.0]
        assert len(recwarn) == 0

    def test_non_positive_distance_rejected(self):
        g = make_desk_array()
        for z in (0.0, -1.0, np.array([1.0, 0.0]), math.nan):
            with pytest.raises(ValueError, match="positive"):
                gain_axial(g, 1.0, z)

    def test_against_quadrature_oracle(self):
        # Fresnel-field matched-filter gain computed by brute-force
        # quadrature of the paraxial aperture integral
        g = make_desk_array(10, 10)
        d_f = boundary_distances(g).d_f
        f = boundary_distances(g).d_fa / 25.0
        z = 0.75 * f
        lam, s = g.wavelength, g.element_side
        half_m = g.rows * s / 2
        n_pts = 2001
        xs = np.linspace(-half_m, half_m, n_pts)
        # separable 1-D aperture integral with residual quadratic phase
        resid = (1 / z - 1 / f) / (2 * lam)
        col = np.trapezoid(np.exp(-2j * np.pi * resid * xs**2), xs)
        gain = abs(col) ** 4 / (2 * half_m) ** 4
        assert gain_axial(g, f, z) == pytest.approx(gain, rel=1e-3)


class TestBeamDepth:
    def test_a3db_square_value(self):
        # M^2 a3dB = 1.2422 for square arrays (commonly rounded to 1.25)
        for m in (10, 50, 200):
            assert m * m * solve_a3db(m, m) == pytest.approx(1.2421576, rel=1e-5)

    def test_a3db_is_half_gain(self):
        a = solve_a3db(30, 40)
        assert g_of_x(30, 40, a) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("rows,cols", [(10, 10), (10**6, 10**6),
                                           (10**9, 10**9), (10**12, 10**12),
                                           (1, 10**12)])
    def test_a3db_converges_at_every_scale(self, rows, cols):
        # the root scales as 2/(rows^2 + cols^2), so a fixed absolute
        # tolerance stops short of it on large arrays
        a = solve_a3db(rows, cols)
        assert g_of_x(rows, cols, a) == pytest.approx(0.5, abs=1e-12)
        if rows == cols:
            assert rows * rows * a == pytest.approx(1.2421576124333, rel=1e-9)

    def test_interval_endpoints_are_half_gain(self):
        g = make_desk_array()
        f = boundary_distances(g).d_fa / 25.0
        metrics = beam_depth_3db(g, f)
        assert isinstance(metrics, BeamMetrics)
        lo, hi = metrics.bd_interval
        assert lo < f < hi
        assert gain_axial(g, f, lo) == pytest.approx(0.5, abs=1e-6)
        assert gain_axial(g, f, hi) == pytest.approx(0.5, abs=1e-6)
        assert metrics.bd_3db == pytest.approx(hi - lo, rel=1e-12)

    def test_infinite_depth_beyond_threshold(self):
        g = make_desk_array()
        a = solve_a3db(30, 40)
        d_f = boundary_distances(g).d_f
        threshold = d_f / (8 * a)
        assert math.isinf(beam_depth_3db(g, threshold * 1.01).bd_3db)
        assert math.isfinite(beam_depth_3db(g, threshold * 0.99).bd_3db)

    def test_infinite_focus_interval(self):
        g = make_desk_array()
        m = beam_depth_3db(g, math.inf)
        assert math.isinf(m.bd_3db)
        assert m.bd_interval[1] == math.inf
        assert gain_axial(g, math.inf, m.bd_interval[0]) \
            == pytest.approx(0.5, abs=1e-6)

    def test_tiny_focus(self):
        # a focus far inside d_F / (8 a3dB) has an interval of about [F, F]
        g = make_desk_array()
        lo, hi = beam_depth_3db(g, 1e-300).bd_interval
        assert lo == pytest.approx(1e-300, rel=1e-12, abs=0)
        assert hi == pytest.approx(1e-300, rel=1e-12, abs=0)
        with pytest.raises(ValueError, match="float range"):
            beam_depth_3db(g, 5e-324)  # d_F / (8F) overflows

    def test_square_closed_form(self):
        g = make_desk_array(30, 30)
        d_fa = boundary_distances(g).d_fa
        # BD = 20 d_FA F^2 / (d_FA^2 - 100 F^2) with the rounded constant
        for frac in (0.02, 0.05, 0.08):
            f = frac * d_fa
            expected = 20 * d_fa * f**2 / (d_fa**2 - 100 * f**2)
            assert beam_depth_square(g, f) == pytest.approx(expected, rel=1e-12)
        assert math.isinf(beam_depth_square(g, d_fa / 10))
        # rounded form within ~2% of the numerically exact depth
        exact = beam_depth_3db(g, 0.02 * d_fa).bd_3db
        assert beam_depth_square(g, 0.02 * d_fa) == pytest.approx(exact, rel=0.02)

    def test_square_form_rejects_rectangles(self):
        with pytest.raises(ValueError):
            beam_depth_square(make_desk_array(30, 40), 1.0)


class TestBeamPatternMap:
    def test_shape_and_peak(self):
        g = make_desk_array(10, 10)
        f = boundary_distances(g).d_fa / 25.0
        x = np.linspace(-0.2, 0.2, 21)
        z = np.linspace(0.5 * f, 2 * f, 15)
        pattern = beam_pattern_map(g, (0.0, 0.0, f), x, z)
        assert pattern.shape == (15, 21)
        assert np.all((pattern >= 0) & (pattern <= 1 + 1e-12))
        # global maximum sits at the focal point grid node
        zi, xi = np.unravel_index(np.argmax(pattern), pattern.shape)
        assert x[xi] == pytest.approx(0.0)
        assert abs(z[zi] - f) <= (z[1] - z[0])

    def test_axial_slice_matches_closed_form(self):
        # needs F comfortably beyond d_B, so use a larger square array
        g = make_desk_array(200, 200)
        b = boundary_distances(g)
        f = b.d_fa / 25.0
        assert f > 2 * b.d_b
        z = np.linspace(0.7 * f, 1.8 * f, 12)
        pattern = beam_pattern_map(g, (0.0, 0.0, f), np.array([0.0]), z)
        closed = np.array([gain_axial(g, f, zz) for zz in z])
        np.testing.assert_allclose(pattern[:, 0], closed, rtol=0.02)

    def test_transverse_slice_matches_sinc(self):
        g = make_desk_array(200, 200)
        f = boundary_distances(g).d_fa / 25.0
        bw = beam_width_3db(g, f)
        x = np.linspace(-bw, bw, 17)
        pattern = beam_pattern_map(g, (0.0, 0.0, f), x, np.array([f]))
        closed = gain_focal_plane(g, f, x, 0.0)
        np.testing.assert_allclose(pattern[0], closed, atol=0.02)

    def test_matches_direct_evaluation(self):
        # odd and single element rows, on- and off-axis foci (also y != 0)
        x = np.linspace(-0.3, 0.3, 11)
        z = np.array([0.4, 0.9, 2.5])
        for rows, cols in ((5, 7), (1, 9), (4, 6)):
            g = make_desk_array(rows, cols)
            for focus in ((0.0, 0.0, 0.8), (0.13, -0.07, 1.1), (0.0, 0.05, 0.6)):
                np.testing.assert_allclose(beam_pattern_map(g, focus, x, z),
                                           direct_map(g, focus, x, z),
                                           rtol=0, atol=1e-12)

    # grids and foci of the x-mirror cases, and the x columns each evaluates;
    # the two linspace grids are asymmetric by one ulp, within the 4 ulps
    # allowed, and the last grid moves its end point 8 ulps out
    MIRROR_CASES = (
        (np.linspace(-0.3, 0.3, 21), (0.0, 0.0, 0.8), 11),
        (np.linspace(-0.3, 0.3, 20), (0.0, 0.0, 0.8), 10),
        (np.linspace(-0.3, 0.3, 21), (0.0, 0.05, 0.6), 11),
        (np.linspace(-0.3, 0.3, 20), (0.0, -0.05, 0.6), 10),
        (np.linspace(-0.3, 0.3, 21), (0.13, -0.07, 1.1), 21),
        (np.linspace(-0.3, 0.5, 11), (0.0, 0.0, 0.8), 11),
        (np.append(np.linspace(-0.3, 0.3, 21)[:-1],
                   0.3 + 8 * np.spacing(0.3)), (0.0, 0.0, 0.8), 21),
    )

    @pytest.mark.parametrize("x, focus, evaluated", MIRROR_CASES)
    def test_x_mirror(self, monkeypatch, x, focus, evaluated):
        # an on-axis focus on a symmetric grid evaluates ceil(n / 2) x
        # columns, in one kernel call; any other case evaluates all n
        calls = []

        def counting(*args):
            calls.append(len(args[4]))
            return row(*args)

        row = beam._pattern_row
        monkeypatch.setattr(beam, "_pattern_row", counting)
        z = np.array([0.4, 0.9, 2.5])
        for rows, cols in ((5, 7), (4, 6)):
            g = make_desk_array(rows, cols)
            pattern = beam_pattern_map(g, focus, x, z)
            np.testing.assert_allclose(pattern, direct_map(g, focus, x, z),
                                       rtol=0, atol=1e-12)
            if evaluated < len(x):
                assert np.array_equal(pattern, pattern[:, ::-1])
        assert calls == [evaluated, evaluated]

    def test_empty_grid(self):
        g = make_desk_array(4, 4)
        for focus in ((0.0, 0.0, 1.0), (0.1, 0.0, 1.0)):
            assert beam_pattern_map(g, focus, [], [1.0, 2.0]).shape == (2, 0)
            assert beam_pattern_map(g, focus, [0.0, 0.1], []).shape == (0, 2)
            assert beam_pattern_map(g, focus, [], []).shape == (0, 0)

    def test_invalid_grid(self):
        g = make_desk_array(4, 4)
        for z in ([0.0, 1.0], [1.0, -2.0], [1.0, math.nan]):
            with pytest.raises(ValueError):
                beam_pattern_map(g, (0.0, 0.0, 1.0), [0.0], z)
