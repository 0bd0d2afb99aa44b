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
from nearfield import beam, mimo_los
from nearfield.numerics import (
    AccuracyError,
    BracketError,
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

    @pytest.mark.parametrize("module,problem", [
        (beam, lambda: beam.solve_a3db(10, 10)),
        (beam, lambda: beam.solve_a3db(30, 40)),
        (beam, lambda: beam.solve_a3db(200, 200)),
        (mimo_los, lambda: mimo_los.capacity_bandwidth_sweep(
            1e11, 5.6e-6, [1e6, 1e9])),
    ], ids=["a3db-10x10", "a3db-30x40", "a3db-200x200", "bandwidth-80pct"])
    def test_library_roots_match_scipy_brentq(self, monkeypatch, module,
                                              problem):
        calls = []

        def spy(g, bracket, tol=1e-12):
            calls.append((g, bracket, tol))
            return solve_scalar_root(g, bracket, tol)

        monkeypatch.setattr(module, "solve_scalar_root", spy)
        problem()
        (g, (lo, hi), tol), = calls
        ref = brentq(g, lo, hi, xtol=tol, rtol=4 * np.finfo(float).eps)
        assert abs(solve_scalar_root(g, (lo, hi), tol) - ref) <= tol


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
               ("depth-plan", "fig10_depth_plan")]


def test_scalar_subcommands_load_no_numpy():
    # numpy's import is most of a cold start; the closed-form subcommands
    # must run to exit 0 without it, each in turn in one interpreter
    configs = Path(__file__).resolve().parents[1] / "configs"
    runs = [(sub, str(configs / f"{name}.yaml")) for sub, name in SCALAR_RUNS]
    code = ("import contextlib, io, sys\n"
            "from nearfield.cli import main\n"
            f"for sub, cfg in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = main([sub, '--config', cfg, '--out', '-'])\n"
            "    print(sub, rc, 'numpy' in sys.modules)\n")
    assert run_fresh_python(code).splitlines() == [
        f"{sub} 0 False" for sub, _ in SCALAR_RUNS]
