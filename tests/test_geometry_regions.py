import math

import numpy as np
import pytest

from nearfield import (
    ArrayGeometry,
    boundary_distances,
    build_upa,
    classify,
)


def make_desk_array(rows=30, cols=40, freq=3e9):
    lam = 299792458.0 / freq
    return build_upa(rows, cols, lam / 4.0, lam)


class TestArrayGeometry:
    def test_basic_properties(self):
        g = build_upa(3, 5, 0.01, 0.1)
        assert g.num_elements == 15
        assert g.element_area == pytest.approx(1e-4)
        assert g.element_diagonal == pytest.approx(0.01 * math.sqrt(2))
        # W = D sqrt((M^2+N^2)/2)
        assert g.aperture_diagonal == pytest.approx(
            g.element_diagonal * math.sqrt((9 + 25) / 2))

    def test_aperture_diagonal_is_corner_to_corner(self):
        g = build_upa(4, 7, 0.013, 0.1)
        width = g.cols * g.element_side
        height = g.rows * g.element_side
        assert g.aperture_diagonal == pytest.approx(math.hypot(width, height))

    def test_centers_layout(self):
        g = build_upa(2, 3, 1.0, 0.5)
        c = g.element_centers()
        assert c.shape == (6, 2)
        # centered grid, spacing = element side, row-major order
        np.testing.assert_allclose(c[:, 0], [-1, 0, 1, -1, 0, 1])
        np.testing.assert_allclose(c[:, 1], [-0.5, -0.5, -0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(c.mean(axis=0), [0.0, 0.0], atol=1e-15)

    def test_single_element(self):
        g = build_upa(1, 1, 0.02, 0.1)
        np.testing.assert_allclose(g.element_centers(), [[0.0, 0.0]])
        assert g.aperture_diagonal == pytest.approx(g.element_diagonal)

    @pytest.mark.parametrize("kwargs", [
        dict(rows=0, cols=3, element_side=0.1, wavelength=0.1),
        dict(rows=3, cols=3, element_side=-0.1, wavelength=0.1),
        dict(rows=3, cols=3, element_side=0.1, wavelength=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ArrayGeometry(**kwargs)

    @pytest.mark.parametrize("side", [1e200, 1e-160, 1e-170])
    def test_region_bound_outside_normal_floats(self, side):
        # d_N overflows at 1e200 m; d_F and d_FA are subnormal at 1e-160 m
        # and round to 0 at 1e-170 m
        with pytest.raises(ValueError, match="^element_side .* region bound"):
            build_upa(4, 4, side, 0.1)


class TestBoundaries:
    def test_desk_array_anchor_values(self):
        # 30 x 40 quarter-wavelength elements at 3 GHz: frozen from the
        # defining formulas evaluated by hand.
        g = make_desk_array()
        b = boundary_distances(g)
        lam = g.wavelength
        d = lam / 4.0 * math.sqrt(2.0)
        assert b.d_f == pytest.approx(2 * d * d / lam, rel=1e-12)
        assert b.d_f == pytest.approx(lam / 4.0, rel=1e-12)  # = 2*(lam^2/8)/lam
        w = d * math.sqrt((30**2 + 40**2) / 2)
        assert b.d_fa == pytest.approx(2 * w * w / lam, rel=1e-12)
        # d_FA = ((M^2+N^2)/2) d_F
        assert b.d_fa == pytest.approx((30**2 + 40**2) / 2 * b.d_f, rel=1e-12)
        assert b.d_fa == pytest.approx(31.235, rel=1e-3)
        assert b.d_b == pytest.approx(2 * w, rel=1e-12)
        assert b.d_b == pytest.approx(2.497, rel=1e-3)
        # electrically small element: reactive bound is one wavelength
        assert b.d_n == pytest.approx(lam)

    def test_large_element_reactive_bound(self):
        g = build_upa(2, 2, 1.0, 0.1)
        b = boundary_distances(g)
        d = g.element_diagonal
        assert d > g.wavelength
        assert b.d_n == pytest.approx(0.62 * math.sqrt(d**3 / 0.1), rel=1e-12)

    def test_ordering(self):
        g = make_desk_array()
        b = boundary_distances(g)
        assert 0 < b.d_n < b.d_b < b.d_fa

    def test_scaling_with_elements(self):
        # d_FA scales with (M^2 + N^2); d_F does not depend on M, N
        g1 = make_desk_array(10, 10)
        g2 = make_desk_array(20, 20)
        b1, b2 = boundary_distances(g1), boundary_distances(g2)
        assert b1.d_f == pytest.approx(b2.d_f)
        assert b2.d_fa == pytest.approx(4 * b1.d_fa)
        assert b2.d_b == pytest.approx(2 * b1.d_b)


class TestClassify:
    def test_labels(self):
        b = boundary_distances(make_desk_array())
        assert classify(b.d_n / 2, b) == "reactive"
        assert classify(b.d_n, b) == "reactive"
        assert classify(1.0, b) == "radiative-near-field"
        assert classify(b.d_fa * 0.999, b) == "radiative-near-field"
        assert classify(b.d_fa, b) == "far-field"
        assert classify(1e9, b) == "far-field"

    def test_invalid_distance(self):
        b = boundary_distances(make_desk_array())
        with pytest.raises(ValueError):
            classify(0.0, b)
