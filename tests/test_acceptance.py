"""End-to-end acceptance checks: one test per published behavior the package
must reproduce, each asserting at its stated tolerance."""

import contextlib
import io
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from nearfield import boundary_distances, build_upa
from nearfield.beam import (
    beam_depth_3db,
    beam_depth_square,
    beam_width_3db,
    array_gain_exact,
    gain_focal_plane,
    solve_a3db,
)
from nearfield.cli import compare_golden, main
from nearfield.config import RadioParams
from nearfield.depth_mux import (
    build_mu_channel,
    evaluate_sinr,
    plan_depth_focal_points,
    plan_user_positions,
    zf_precoder,
)
from nearfield.mimo_los import (
    build_los_mimo,
    capacity_bandwidth_sweep,
    capacity_frequency_sweep,
    capacity_waterfilling,
    equal_eigenvalue_capacity,
    offdiag_magnitude,
    optimal_spacing,
)
from nearfield.numerics import RankError, solve_scalar_root

C_EXACT = 299792458.0
C_ROUNDED = 3e8

REPO = Path(__file__).resolve().parents[1]


def quarter_wave_array(rows, cols, freq=3e9):
    lam = C_EXACT / freq
    return build_upa(rows, cols, lam / 4.0, lam)


def half_wave_diag_square(m, lam):
    """Square array whose element diagonal is lambda/2."""
    return build_upa(m, m, lam / (2.0 * math.sqrt(2.0)), lam)


def test_criterion_01_region_boundaries():
    # an aperture with diagonal D = 2 lambda at 3 GHz (rounded c) has
    # d_F = 0.8 m; an aperture with diagonal W = 2 m has d_FA = 80 m at
    # 3 GHz and 800 m at 30 GHz
    lam = C_ROUNDED / 3e9  # 0.1 m exactly
    side = 2.0 * lam / math.sqrt(2.0)  # single element, diagonal 2 lambda
    g = build_upa(1, 1, side, lam)
    assert boundary_distances(g).d_f == pytest.approx(0.8, rel=1e-12)

    for freq, expected in ((3e9, 80.0), (30e9, 800.0)):
        lam = C_ROUNDED / freq
        m = 100
        side = 2.0 / (math.sqrt(2.0) * m)  # aperture diagonal W = 2 m
        g = build_upa(m, m, side, lam)
        assert g.aperture_diagonal == pytest.approx(2.0, rel=1e-12)
        assert boundary_distances(g).d_fa == pytest.approx(expected, rel=1e-12)


def test_criterion_02_exact_array_gain():
    # G(d_B) = 0.96 +/- 0.01 and G >= 0.995 beyond 10 d_B for both the
    # 30x40 and 300x400 quarter-wavelength arrays; the full 40-point
    # log sweep of the large array finishes within 2 minutes at tol 1e-6
    for shape in ((30, 40), (300, 400)):
        g = quarter_wave_array(*shape)
        b = boundary_distances(g)
        assert array_gain_exact(g, b.d_b, tol=1e-6) \
            == pytest.approx(0.96, abs=0.01)
        assert array_gain_exact(g, 10 * b.d_b, tol=1e-6) >= 0.995

    g = quarter_wave_array(300, 400)
    b = boundary_distances(g)
    zs = np.logspace(math.log10(10 * b.d_f), math.log10(1e5 * b.d_f), 40)
    start = time.monotonic()
    gains = [array_gain_exact(g, z, tol=1e-6) for z in zs]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    assert gains[-1] >= 0.995
    assert all(0 < v <= 1.0 + 1e-12 for v in gains)


def test_criterion_03_beam_width():
    # closed-form 3 dB widths for the 300x400 array, in units of d_F, and
    # agreement with numerically located half-gain points
    g = quarter_wave_array(300, 400)
    b = boundary_distances(g)
    cases = [
        (1e3 * b.d_f, 8.86),
        (b.d_fa / 25.0, 44.3),
        (b.d_fa / 10.0, 110.75),
    ]
    for focal, expected_df in cases:
        bw = beam_width_3db(g, focal)
        assert bw / b.d_f == pytest.approx(expected_df, rel=5e-3)
        # numeric half-gain crossing of the focal-plane profile
        x_half = solve_scalar_root(
            lambda x: gain_focal_plane(g, focal, x, 0.0) - 0.5,
            (1e-9 * bw, bw), tol=1e-15 * bw)
        assert 2 * x_half == pytest.approx(bw, rel=5e-3)


def test_criterion_04_beam_depth():
    # square-array half-gain parameter and closed-form depth identity
    for m in (50, 100, 200):
        assert m * m * solve_a3db(m, m) == pytest.approx(1.25, rel=0.02)

    lam = C_EXACT / 3e9
    g = half_wave_diag_square(100, lam)
    d_fa = boundary_distances(g).d_fa
    # with the rounded parameter a = 1.25/M^2 the general interval form
    # reduces exactly to the square closed form
    a_round = 1.25 / 100**2
    for frac in (0.02, 0.05, 0.08, 0.099):
        f = frac * d_fa
        general = beam_depth_3db(g, f, a3db=a_round).bd_3db
        square = beam_depth_square(g, f)
        assert general == pytest.approx(square, rel=1e-6)
    assert math.isinf(beam_depth_square(g, d_fa / 10.0))
    assert math.isinf(beam_depth_3db(g, d_fa / 10.0, a3db=a_round).bd_3db)


def test_criterion_05_depth_plan():
    lam = C_EXACT / 3e9
    # canonical square sequence with 1e-9 relative accuracy
    g = half_wave_diag_square(200, lam)
    b = boundary_distances(g)
    plan = plan_depth_focal_points(g, d_min=b.d_b)
    assert plan.focal_points[0] == math.inf
    expected = [b.d_fa / 20, b.d_fa / 40, b.d_fa / 60, b.d_fa / 80]
    np.testing.assert_allclose(plan.focal_points[1:5], expected, rtol=1e-9)
    boundaries = [iv[0] for iv in plan.intervals[:5]]
    np.testing.assert_allclose(
        boundaries,
        [b.d_fa / 10, b.d_fa / 30, b.d_fa / 50, b.d_fa / 70, b.d_fa / 90],
        rtol=1e-9)
    for prev, cur in zip(plan.intervals, plan.intervals[1:]):
        assert cur[1] == pytest.approx(prev[0], rel=1e-12)
    assert len(plan.focal_points) == 6

    g2 = build_upa(80, 500, lam / (2.0 * math.sqrt(2.0)), lam)
    plan2 = plan_depth_focal_points(g2, d_min=boundary_distances(g2).d_b)
    assert len(plan.focal_points) < len(plan2.focal_points)
    assert 7 <= len(plan2.focal_points) <= 9


def test_criterion_06_zero_forcing():
    # five-user depth-multiplexed scene: perfect inversion, then rank
    # failure for co-angular far-field users
    lam = C_EXACT / 3e9
    g = half_wave_diag_square(160, lam)
    plan = plan_depth_focal_points(g)
    users = plan_user_positions(plan, g)
    assert len(users) == 5
    h = build_mu_channel(g, users).matrix
    w = zf_precoder(h)
    cross = h.conj().T @ w
    alpha = np.mean(np.diag(cross)).real
    assert np.linalg.norm(cross - alpha * np.eye(5)) / abs(alpha) <= 1e-9
    signal = np.abs(np.diag(cross)) ** 2
    interference = np.sum(np.abs(cross) ** 2, axis=1) - signal
    assert np.all(interference / signal <= 1e-18)

    d_fa = boundary_distances(g).d_fa
    far = build_mu_channel(g, [(0, 0, 1e5 * d_fa), (0, 0, 2e5 * d_fa)])
    with pytest.raises(RankError):
        zf_precoder(far.matrix)


def test_criterion_07_los_orthogonality():
    lam = C_EXACT / 3e9
    d = 10.0
    for k in (2, 4, 8, 16):
        spacing = optimal_spacing(k, d, lam)
        link = build_los_mimo(k, spacing, d, lam)
        gram = link.h_fresnel.conj().T @ link.h_fresnel
        eigenvalues = np.sort(np.linalg.eigvalsh(gram))[::-1]
        np.testing.assert_allclose(eigenvalues, link.beta * k, rtol=1e-9)

    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        spacing = float(rng.uniform(0.05, 1.0))
        dist = float(rng.uniform(2.0, 50.0))
        link = build_los_mimo(k, spacing, dist, lam)
        gram = link.h_fresnel.conj().T @ link.h_fresnel
        i, j = sorted(rng.choice(k, size=2, replace=False))
        brute = abs(gram[i, j])
        closed = offdiag_magnitude(k, spacing, dist, lam,
                                   int(i) + 1, int(j) + 1)
        assert abs(closed - brute) <= 1e-10 * max(brute, link.beta)


def test_criterion_08_waterfilling():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 10001)
    for _ in range(5):
        lam_pair = rng.uniform(0.05, 5.0, size=2)
        snr = float(rng.uniform(0.5, 20.0))
        res = capacity_waterfilling(lam_pair, snr)
        rates = (np.log2(1 + snr * lam_pair[0] * grid)
                 + np.log2(1 + snr * lam_pair[1] * (1 - grid)))
        best = float(rates.max())
        assert res.capacity == pytest.approx(best, rel=1e-6)

    # equal eigenvalues: closed form B K log2(1 + snr)
    beta, k, p_n0, b = 3.1e-9, 4, 1e10, 90e6
    res = capacity_waterfilling(np.full(k, beta * k), snr=p_n0 / b, bandwidth=b)
    closed = equal_eigenvalue_capacity(k, p_n0 * beta / b, b)
    assert res.capacity == pytest.approx(closed, rel=1e-9)


def test_criterion_09_capacity_vs_frequency():
    # fixed area 0.01 m^2 at 10 m, P/N0 = 189.03 dB, B = 0.03 f:
    # isotropic capacity peaks inside (30, 50) GHz, and the directive
    # variant at 70 GHz is at least 8x the isotropic one
    area, dist = 0.01, 10.0
    iso = RadioParams(carrier_frequency=3e9, power_over_noise_db=189.03)
    freqs = np.linspace(1e9, 100e9, 1000)
    caps = np.array([p.capacity for p in
                     capacity_frequency_sweep(area, dist, freqs, iso)])
    i_peak = int(np.argmax(caps))
    assert 0 < i_peak < len(freqs) - 1  # interior maximum
    assert 30e9 < freqs[i_peak] < 50e9
    # unique interior maximum: increasing before the peak, decreasing after
    assert np.all(np.diff(caps[: i_peak + 1]) > 0)
    assert np.all(np.diff(caps[i_peak:]) < 0)

    [c_iso] = capacity_frequency_sweep(area, dist, [70e9], iso)
    [c_dir] = capacity_frequency_sweep(area, dist, [70e9], iso, directive=True)
    assert c_dir.capacity >= 8.0 * c_iso.capacity


def test_criterion_10_rate_vs_bandwidth():
    p_over_n0 = 10.0 ** (110.0 / 10.0)
    lam = C_EXACT / 3e9
    beta = (lam / (4 * math.pi * 10.0)) ** 2
    grid = np.geomspace(1e6, 1e11, 200)
    sweep = capacity_bandwidth_sweep(p_over_n0, beta, grid)
    rates = np.asarray(sweep.rates)
    assert np.all(np.diff(rates) > 0)  # strictly increasing
    # concavity on the grid (second difference test on the log-spaced grid
    # mapped through linear interpolation): check chord-below-curve
    mid_rates = np.interp((grid[:-2] + grid[2:]) / 2, grid, rates)
    chord = (rates[:-2] + rates[2:]) / 2
    assert np.all(chord <= mid_rates * (1 + 1e-12))
    limit = math.log2(math.e) * p_over_n0 * beta
    assert sweep.rate_limit == pytest.approx(limit, rel=1e-9)
    b80 = sweep.bandwidth_80pct
    assert b80 * math.log2(1 + p_over_n0 * beta / b80) \
        == pytest.approx(0.8 * limit, rel=1e-6)


def test_criterion_11_determinism_and_goldens(tmp_path):
    cases = {
        "regions.yaml": ("regions", "regions.csv"),
        "fig4_gain_sweep.yaml": ("gain-sweep", "fig4_gain_sweep.csv"),
        "fig5_beam_width.yaml": ("beam-width", "fig5_beam_width.csv"),
        "fig6_heatmap.yaml": ("heatmap", "fig6_heatmap.csv"),
        "fig7_depth_plan_gains.yaml":
            ("depth-plan", "fig7_depth_plan_gains.csv"),
        "fig9_g_of_x.yaml": ("g-of-x", "fig9_g_of_x.csv"),
        "fig10_depth_plan.yaml": ("depth-plan", "fig10_depth_plan.csv"),
        "fig11_mode_patterns.yaml": ("mode-patterns", "fig11_mode_patterns.csv"),
        "fig1_capacity_vs_bandwidth.yaml":
            ("capacity-vs-bandwidth", "fig1_capacity_vs_bandwidth.csv"),
        "fig13_capacity_vs_frequency.yaml":
            ("capacity-vs-frequency", "fig13_capacity_vs_frequency.csv"),
        "zf_sinr.yaml": ("zf-sinr", "zf_sinr.csv"),
        "dof.yaml": ("dof", "dof.csv"),
        "los_capacity.yaml": ("los-capacity", "los_capacity.csv"),
    }
    for config_name, (sub, golden) in cases.items():
        config = REPO / "configs" / config_name
        out_a = tmp_path / ("a_" + golden)
        out_b = tmp_path / ("b_" + golden)
        assert main([sub, "--config", str(config), "--out", str(out_a)]) == 0
        assert main([sub, "--config", str(config), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), config_name
        passed, report = compare_golden(
            str(out_a), str(REPO / "goldens" / golden), 1e-6)
        assert passed, f"{config_name}: " + "\n".join(report)


def test_readme_library_example():
    # the fenced block runs as written, and the plan it prints is
    # inf, d_FA/20, d_FA/40, ... as its comment says
    readme = (REPO / "README.md").read_text()
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme,
                     re.S)[1]
    names = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(code, names)
    assert len(out.getvalue().splitlines()) == 3
    d_fa = boundary_distances(names["geom"]).d_fa
    points = plan_depth_focal_points(names["geom"]).focal_points
    assert points[0] == math.inf
    assert points[1:3] == pytest.approx([d_fa / 20, d_fa / 40], rel=1e-12)
