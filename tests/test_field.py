import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from nearfield import beam, boundary_distances, build_upa, field
from nearfield.depth_mux import build_mu_channel
from nearfield.field import (
    _quadrant_integrals,
    _tangent_phasor,
    element_field_integrals,
    fresnel_channel_vector,
)
from nearfield.numerics import AccuracyError
from patch_quadrature import Rect, channel_vector, efield_exact, integrate_patch


def make_desk_array(rows=30, cols=40, freq=3e9):
    lam = 299792458.0 / freq
    return build_upa(rows, cols, lam / 4.0, lam)


class TestScalarFields:
    def test_on_axis_amplitude(self):
        # on axis the exact amplitude is exactly 1/(sqrt(4 pi) z)
        for z in (0.5, 3.0, 100.0):
            val = efield_exact(0.0, 0.0, z, 0.1)
            assert abs(val) == pytest.approx(1.0 / (math.sqrt(4 * math.pi) * z))

    def test_power_decay(self):
        # |E|^2 follows 1/(4 pi z^2) on axis
        lam = 0.1
        p1 = abs(efield_exact(0.0, 0.0, 10.0, lam)) ** 2
        p2 = abs(efield_exact(0.0, 0.0, 20.0, lam)) ** 2
        assert p1 / p2 == pytest.approx(4.0)

    def test_invalid_z(self):
        with pytest.raises(ValueError):
            efield_exact(0.0, 0.0, -1.0, 0.1)


class TestChannelCoefficient:
    """The exact channel of a single element is its patch-integrated field
    scaled by sqrt(1/A)."""

    def single_element(self):
        lam = 0.1
        return build_upa(1, 1, lam / 4, lam)

    def test_matches_field_times_sqrt_area_far_away(self):
        # far away the patch integral is field * area, so the coefficient
        # tends to sqrt(A) * E(center)
        g = self.single_element()
        z = 200.0
        coeff = channel_vector(g, z)[0]
        expected = math.sqrt(g.element_area) * efield_exact(0.0, 0.0, z,
                                                            g.wavelength)
        assert abs(coeff - expected) / abs(expected) < 1e-4

    def test_power_bounded_by_unity(self):
        # |h|^2 <= 1 for any lossless patch (physical passivity)
        g = self.single_element()
        for z in (0.05, 0.2, 1.0, 10.0):
            assert abs(channel_vector(g, z)[0]) ** 2 < 1.0

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            channel_vector(self.single_element(), -2.0)


class TestElementIntegrals:
    def test_matches_per_patch_quadrature(self):
        g = make_desk_array(3, 4)
        z = 2.0
        integrals = element_field_integrals(g, z, tol=1e-9)
        assert integrals.shape == (12,)
        # spot-check two patches against the generic adaptive integrator
        centers = g.element_centers()
        for idx in (0, 7):
            cx, cy = centers[idx]
            h = g.element_side / 2
            r = Rect(cx - h, cx + h, cy - h, cy + h)
            ref_val = integrate_patch(
                lambda x, y: efield_exact(x, y, z, g.wavelength), r, tol=1e-10)
            assert abs(integrals[idx] - ref_val) / abs(ref_val) < 1e-8
        # reference integral: |E|^2 over the central patch
        h = g.element_side / 2
        n = 600
        xs = np.linspace(-h, h, n, endpoint=False) + h / n
        vals = np.abs(efield_exact(xs[:, None], xs[None, :], z,
                                   g.wavelength)) ** 2
        approx = vals.sum() * (2 * h / n) ** 2
        ref = beam._power_integral(h / z, h / z)
        assert ref == pytest.approx(approx, rel=1e-6)

    def test_symmetry(self):
        g = make_desk_array(4, 4)
        integrals = element_field_integrals(g, 1.5)
        grid = integrals.reshape(4, 4)
        np.testing.assert_allclose(grid, grid[::-1, :], rtol=1e-10)
        np.testing.assert_allclose(grid, grid[:, ::-1], rtol=1e-10)

    @staticmethod
    def direct_rule(g, z):
        """Each element's integral by an order-48 Gauss rule applied to that
        element directly, with no quadrant folding."""
        nodes, weights = leggauss(48)
        h = g.element_side / 2
        return np.array([
            h * h * weights @ efield_exact(cx + h * nodes[None, :],
                                           cy + h * nodes[:, None], z,
                                           g.wavelength) @ weights
            for cx, cy in g.element_centers()])

    @staticmethod
    def record_orders(monkeypatch):
        """The list of Gauss orders that `_quadrant_integrals` is called
        with, filled as `element_field_integrals` runs."""
        orders = []

        def recording(geom, z, order):
            orders.append(order)
            return _quadrant_integrals(geom, z, order)

        monkeypatch.setattr(field, "_quadrant_integrals", recording)
        return orders

    @pytest.mark.parametrize("rows,cols", [(3, 4), (5, 5), (1, 7), (6, 1),
                                           (4, 6)])
    def test_matches_unfolded_evaluation(self, rows, cols):
        # only the x >= 0, y >= 0 quadrant is integrated; every element must
        # match an order-48 Gauss rule applied to each element directly
        lam = 0.1
        g = build_upa(rows, cols, lam / 2, lam)
        integrals = element_field_integrals(g, 0.6, tol=1e-13)
        np.testing.assert_allclose(integrals, self.direct_rule(g, 0.6),
                                   rtol=1e-12, atol=0)

    def test_gauss_orders_rise_by_at_most_one_and_a_half(self):
        # the orders tried run from 2 to 64, strictly rising, each at most
        # 1.5 times the last
        orders = field._GAUSS_ORDERS
        assert orders[0] == 2 and orders[-1] == field._MAX_GAUSS_ORDER == 64
        for low, high in zip(orders, orders[1:]):
            assert low < high <= 1.5 * low

    @pytest.mark.parametrize("rows,cols", [(3, 4), (1, 7), (6, 1)])
    def test_second_order_matches_unfolded_evaluation(self, monkeypatch, rows,
                                                      cols):
        # far out, the first two orders agree to 1e-6 and the second is
        # accepted; it must still match the direct order-48 rule to 1e-6 of
        # the largest element
        lam = 0.1
        g = build_upa(rows, cols, lam / 2, lam)
        orders = self.record_orders(monkeypatch)
        integrals = element_field_integrals(g, 20.0, tol=1e-6)
        assert orders == list(field._GAUSS_ORDERS[:2])
        expected = self.direct_rule(g, 20.0)
        assert np.abs(integrals - expected).max() \
            <= 1e-6 * np.abs(expected).max()

    @pytest.mark.parametrize("bound,factor,orders",
                             [("d_f", 1e3, field._GAUSS_ORDERS[:2]),
                              ("d_b", 1.0, field._GAUSS_ORDERS[:3])])
    def test_gauss_order_schedule(self, monkeypatch, bound, factor, orders):
        # the orders of `_GAUSS_ORDERS` are tried from 2 until two levels
        # agree: fig4's array at its tolerance stops at the second order at
        # 1000 d_F and at the third at d_B
        g = make_desk_array()
        z = factor * getattr(boundary_distances(g), bound)
        called = self.record_orders(monkeypatch)
        element_field_integrals(g, z, tol=1e-6)
        assert called == list(orders)

    @pytest.mark.parametrize("side_over_z", [0.2, 1.0, 4.0])
    def test_reference_power_closed_form(self, side_over_z):
        # the closed-form |E|^2 integral over the centred element
        lam = 0.1
        g = build_upa(1, 1, lam, lam)
        z = g.element_side / side_over_z
        h = g.element_side / 2
        ref = beam._power_integral(h / z, h / z)
        expected = integrate_patch(
            lambda x, y: np.abs(efield_exact(x, y, z, lam)) ** 2,
            Rect(-h, h, -h, h), tol=1e-13)
        assert ref == pytest.approx(expected.real, rel=1e-13)

    @pytest.mark.parametrize("u,v", [(0.3, 1.7), (2.5, 0.4)])
    def test_power_integral_argument_order(self, u, v):
        # the |E|^2 integral over |x| <= u z, |y| <= v z in closed form; the
        # amplitude's x^2 + z^2 makes a non-square patch tell u from v
        lam, z = 0.1, 1.5
        expected = integrate_patch(
            lambda x, y: np.abs(efield_exact(x, y, z, lam)) ** 2,
            Rect(-u * z, u * z, -v * z, v * z), tol=1e-13).real
        assert beam._power_integral(u, v) == pytest.approx(expected,
                                                            rel=1e-13)
        assert abs(beam._power_integral(v, u) - expected) > 1e-3 * expected

    def test_not_converged_raises(self):
        # a 20 lambda element one wavelength away needs more than order 64
        lam = 0.1
        g = build_upa(1, 1, 20 * lam, lam)
        with pytest.raises(AccuracyError) as exc:
            element_field_integrals(g, lam, tol=1e-6)
        estimate = exc.value.best_estimate
        assert estimate.shape == (1,) and np.all(np.isfinite(estimate))

    def test_amplitude_overflow_raises(self, monkeypatch):
        # z (x^2 + z^2) overflows beyond z = 5.6e102 m; just inside, the
        # gain is 1 with no floating-point warning, and beyond it no level
        # is computed
        g = make_desk_array(3, 4)
        orders = self.record_orders(monkeypatch)
        with np.errstate(all="raise"):
            assert beam.array_gain_exact(g, 5.6e102) == pytest.approx(1.0)
            with pytest.raises(ValueError, match="float range"):
                element_field_integrals(g, 5.7e102)
        assert orders == list(field._GAUSS_ORDERS[:2])

    def test_blocks_do_not_change_result(self, monkeypatch):
        # 40-sample blocks split the 4x5 quadrant of a 7x9 array into
        # partial row and column blocks at every order
        g = make_desk_array(7, 9)
        whole = element_field_integrals(g, 0.5, tol=1e-12)
        monkeypatch.setattr(field, "_BLOCK_SAMPLES", 40)
        blocked = element_field_integrals(g, 0.5, tol=1e-12)
        np.testing.assert_allclose(blocked, whole, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("size", [1, 7, 8, 23100, 32768])
    def test_scratch_rows_aligned(self, size):
        # every scratch row starts on a 64-byte line, wherever the heap
        # puts the buffer
        for _ in range(3):
            work = field._scratch(size)
            assert work.shape[0] == 4 and work.shape[1] >= size
            assert [row.ctypes.data % 64 for row in work] == [0] * 4

    def test_level_memory_bounded(self):
        # one order-32 level of a 300x400 array; an unblocked field tensor
        # would need about 2 GB
        g = make_desk_array(300, 400)
        tracemalloc.start()
        try:
            _quadrant_integrals(g, 1.0, 32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestChannelVectors:
    def test_exact_vector_norm(self):
        g = make_desk_array(6, 8)
        cv = channel_vector(g, 3.0)
        assert cv.shape == (48,)
        assert 0 < np.vdot(cv, cv).real < g.num_elements

    def test_fresnel_phases_match_direct(self):
        g = make_desk_array(5, 7)
        point = (0.11, -0.04, 2.2)
        cv = fresnel_channel_vector(g, point)
        np.testing.assert_allclose(np.abs(cv), 1.0, atol=1e-14)
        centers = g.element_centers()
        dist = np.sqrt((centers[:, 0] - point[0]) ** 2
                       + (centers[:, 1] - point[1]) ** 2 + point[2] ** 2)
        direct = np.exp(-2j * np.pi / g.wavelength * dist)
        # compare phase differences (global phase is immaterial)
        rel = cv * np.conj(cv[0])
        rel_direct = direct * np.conj(direct[0])
        np.testing.assert_allclose(rel, rel_direct, atol=1e-9)
        # the phase itself is exact up to whole cycles
        np.testing.assert_allclose(cv, direct, atol=1e-9)

    def test_far_point_tends_to_plane_wave(self):
        g = make_desk_array(8, 8)
        d_fa = boundary_distances(g).d_fa
        cv_far = fresnel_channel_vector(g, (0.0, 0.0, 1e6 * d_fa))
        cv_inf = fresnel_channel_vector(g, (0.0, 0.0, math.inf))
        corr = abs(np.vdot(cv_far, cv_inf)) / g.num_elements
        assert corr > 1 - 1e-6

    def test_phase_stability_at_huge_distance(self):
        # the same geometry at z and z + half wavelength must give almost
        # identical phase *differences* across the aperture
        g = make_desk_array(8, 8)
        z = 1e9
        a = fresnel_channel_vector(g, (0.0, 0.0, z))
        b = fresnel_channel_vector(g, (0.0, 0.0, z * (1 + 1e-9)))
        corr = abs(np.vdot(a, b)) / g.num_elements
        assert corr > 1 - 1e-9

    def test_infinite_distance_is_plane_wave(self):
        g = make_desk_array(5, 7)
        cv = fresnel_channel_vector(g, (0.3, -0.2, math.inf))
        np.testing.assert_array_equal(cv, np.ones(35))

    @pytest.mark.parametrize("z", [1e-9, 1e-12, 1e-15, 1e-18, 5e-324])
    def test_phase_above_an_element_near_the_centre(self, z):
        # a point within a wavelength of the centre, almost on the corner
        # element (on it once z^2 underflows): every phase within 1e-15 rad
        # of -k ||e_k - p|| formed in 50-digit arithmetic, with no warning
        mpmath = pytest.importorskip("mpmath")
        lam = 0.1
        g = build_upa(3, 3, 0.025, lam)
        point = (0.025, 0.025, z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cv = fresnel_channel_vector(g, point)
        with mpmath.workdps(50):
            k = 2 * mpmath.pi / mpmath.mpf(lam)
            for h, (cx, cy) in zip(cv, g.element_centers()):
                d = mpmath.sqrt(sum((mpmath.mpf(float(a)) - mpmath.mpf(b)) ** 2
                                    for a, b in zip((cx, cy, 0.0), point)))
                exact = complex(mpmath.expj(-k * d))
                assert abs(h) == pytest.approx(1.0, abs=1e-15)
                assert abs(np.angle(h * exact.conjugate())) <= 1e-15

    def test_invalid_point(self):
        g = make_desk_array(2, 2)
        for point in ((0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 0.0, math.nan),
                      (math.nan, 0.0, 1.0), (0.0, math.inf, 1.0),
                      (1e200, 0.0, 1.0)):
            with pytest.raises(ValueError):
                fresnel_channel_vector(g, point)

    def test_fresnel_agrees_with_exact_channel_beyond_dfa(self):
        # beyond d_FA both models agree up to a global complex scale
        g = make_desk_array(6, 6)
        d_fa = boundary_distances(g).d_fa
        z = 2.0 * d_fa
        exact = channel_vector(g, z)
        phase = fresnel_channel_vector(g, (0.0, 0.0, z))
        corr = abs(np.vdot(exact, phase)) / (
            np.linalg.norm(exact) * np.linalg.norm(phase))
        assert corr > 0.9999


class TestSphericalPhasors:
    def test_tangent_phasor_accuracy(self):
        # cos and sin rebuilt from a 1-ulp tangent, over |phi| <= 1e4 and at
        # the half-phases 0 and +-pi/2, where t = tan(pi/2) is about 1.6e16
        rng = np.random.default_rng(7)
        special = np.array([np.pi / 2, -np.pi / 2, 0.0])
        half = np.concatenate([special, np.linspace(-5e3, 5e3, 200001),
                               rng.uniform(-4.0, 4.0, 100000)])
        t = np.tan(half)
        re, im = _tangent_phasor(t, np.empty_like(t), np.empty_like(t))
        np.testing.assert_allclose(re, np.cos(2 * half), rtol=0, atol=4e-16)
        np.testing.assert_allclose(im, np.sin(2 * half), rtol=0, atol=4e-16)
        np.testing.assert_array_equal(re[:3], np.cos(2 * special))
        np.testing.assert_array_equal(im[:3], np.sin(2 * special))

    def test_tangent_phasor_amplitude(self):
        half = np.linspace(-3.0, 3.0, 7)[:, None]
        numerator = np.array([[0.5, 2.0, 1e-3]])
        denominator = np.array([[4.0], [0.1], [1.0], [3.0], [7.0], [2.0],
                                [1e3]])
        t = np.tan(half) + np.zeros((1, 3))
        re, im = _tangent_phasor(t, np.empty_like(t), np.empty_like(t),
                                 numerator, denominator)
        np.testing.assert_allclose(
            re + 1j * im, numerator / denominator * np.exp(2j * half),
            rtol=1e-15, atol=0)

    @pytest.mark.parametrize("block", [5, 40])
    def test_blocks_do_not_change_result(self, monkeypatch, block):
        # 5-sample blocks split the element columns and take one point
        # and one element row at a time; 40-sample blocks split the 22 map
        # points (and 7 users) and take one element row at a time
        g = make_desk_array(5, 7)
        x = np.linspace(-0.3, 0.3, 11)
        z = np.array([0.4, 0.9])
        users = [(0.1 * i, -0.05 * i, 0.3 + 0.2 * i) for i in range(7)]

        def run():
            out = [beam.beam_pattern_map(g, (0.13, -0.07, 1.1), x, z),
                   field.phasor_rows(g, users)]
            for per_element in (False, True):
                out.append(build_mu_channel(g, users, per_element).matrix)
            return out

        whole = run()
        monkeypatch.setattr(field, "_BLOCK_SAMPLES", block)
        blocked = run()
        for *_, re, im in field.spherical_phasors(*g.element_axes(),
                                                  g.wavelength, users):
            assert re.size <= block
        # the map's sums run in block order; stored phasors are exact
        np.testing.assert_allclose(blocked[0], whole[0], rtol=0, atol=1e-14)
        for b, w in zip(blocked[1:], whole[1:]):
            np.testing.assert_array_equal(b, w)

    def test_map_row_memory_bounded(self):
        # one pass over a 3x3 (z, x) grid and the 500k folded elements of a
        # 1000x1000 array; an unblocked (points, elements) phasor array
        # would take 36 MB per real copy
        g = make_desk_array(1000, 1000)
        x_cols, y_rows = g.element_axes()
        y_rows = y_rows[500:]
        weights = np.ones((len(y_rows), len(x_cols), 2))
        x = np.array([-0.1, 0.0, 0.2])
        z = np.array([2.0, 5.0, 9.0])
        tracemalloc.start()
        try:
            gains = beam._pattern_row(x_cols, y_rows, g.wavelength, weights,
                                      x, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gains.shape == (3, 3) and np.all(np.isfinite(gains))
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("amplitude", ["point", "element"])
    def test_amplitude_power_beyond_float_range(self, amplitude):
        # the power N (lambda / (4 pi z))^2 of 10,000 phasors overflows below
        # z = 6e-155 m; z = 5e-324 would square to 0 in ||p||
        g = make_desk_array(100, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (1e-155, 1e-170, 5e-324):
                with pytest.raises(ValueError, match="power beyond the float"):
                    field.phasor_rows(g, [(0.0, 0.0, 5.0), (0.0, 0.0, z)],
                                      amplitude)
            rows = field.phasor_rows(g, [(0.0, 0.0, 1e-154)], amplitude)
        assert math.isfinite(np.sum(np.abs(rows) ** 2))

    def test_unknown_amplitude(self):
        g = make_desk_array(3, 4)
        with pytest.raises(KeyError):
            field.phasor_rows(g, [(0.0, 0.0, 1.0)], "elements")

    def test_no_points(self):
        g = make_desk_array(3, 4)
        assert list(field.spherical_phasors(*g.element_axes(), g.wavelength,
                                            np.empty((0, 3)))) == []
        for amplitude in (None, "point", "element"):
            rows = field.phasor_rows(g, np.empty((0, 3)), amplitude)
            assert rows.shape == (0, 12) and rows.dtype == complex
