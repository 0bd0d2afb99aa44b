"""The four benchmark workloads: seeded inputs, the timed op, and its checks.

Each workload builds one *pass*, a fixed list of op inputs drawn from the
seed, and the benchmark repeats whole passes. A pass is stratified, so every
seed gives the same mix of op kinds and sizes and only the positions within
each stratum change.

A workload has:
- `warm_up()`: one small call of each kernel, part of set-up;
- `pass_items(index)`: the inputs of pass `index`;
- `run(item)`: the timed op;
- `check(item, output)`: an untimed check, returning a failure reason or None;
- `final_checks()`: untimed checks after the loop, as failure reasons;
- `work_counts()`: work per pass, computed from the inputs.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import numpy as np
from numpy.polynomial.legendre import leggauss

SPEED_OF_LIGHT = 299792458.0
WAVELENGTH = SPEED_OF_LIGHT / 3e9  # every workload runs at 3 GHz
HALF_WAVE_DIAGONAL = 0.3535533905932738  # element side, in wavelengths

#: Shipped config -> CLI subcommand; each golden is goldens/<config>.csv.
CONFIG_SUBCOMMANDS = {
    "regions": "regions",
    "fig4_gain_sweep": "gain-sweep",
    "fig5_beam_width": "beam-width",
    "fig6_heatmap": "heatmap",
    "fig7_depth_plan_gains": "depth-plan",
    "fig9_g_of_x": "g-of-x",
    "fig10_depth_plan": "depth-plan",
    "fig11_mode_patterns": "mode-patterns",
    "fig1_capacity_vs_bandwidth": "capacity-vs-bandwidth",
    "fig13_capacity_vs_frequency": "capacity-vs-frequency",
    "zf_sinr": "zf-sinr",
    "dof": "dof",
    "los_capacity": "los-capacity",
}


def _strata(rng, count, lo, hi):
    """One log-uniform draw in each of `count` equal log-strata of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / count)
            for i in range(count)]


def _upa(rows, cols, side_in_wavelengths):
    from nearfield import build_upa

    return build_upa(rows, cols, side_in_wavelengths * WAVELENGTH, WAVELENGTH)


# ---------------------------------------------------------------------------
# cli_figures

class CliFigures:
    """One op is one cold `python -m nearfield.cli` run of a shipped config."""

    def __init__(self, root, seed, scratch):
        from nearfield.cli import compare_golden

        self.compare_golden = compare_golden
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.trace_spans = None  # set to a callback to run the traced CLI
        self.peak_child_rss_kb = 0
        configs = sorted(p[:-5] for p in os.listdir(os.path.join(root, "configs"))
                         if p.endswith(".yaml"))
        if configs != sorted(CONFIG_SUBCOMMANDS):
            raise RuntimeError(f"configs/ holds {configs}, expected "
                               f"{sorted(CONFIG_SUBCOMMANDS)}")

    def warm_up(self):
        pass

    def pass_items(self, index):
        order = sorted(CONFIG_SUBCOMMANDS)
        random.Random(f"{self.seed}:{index}").shuffle(order)
        return order

    def run(self, config):
        out = os.path.join(self.scratch, f"{config}.csv")
        if os.path.exists(out):
            os.remove(out)
        cli_args = [CONFIG_SUBCOMMANDS[config], "--config",
                    os.path.join("configs", f"{config}.yaml"), "--out", out]
        spans_path = os.path.join(self.scratch, "spans.json")
        if self.trace_spans is not None:
            cmd = [sys.executable, os.path.join("perfbench", "tracing.py"),
                   "--spans", spans_path, "--"] + cli_args
        else:
            cmd = [sys.executable, "-m", "nearfield.cli"] + cli_args
        with open(os.path.join(self.scratch, "stderr.txt"), "w+") as err:
            proc = subprocess.Popen(cmd, cwd=self.root,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        if self.trace_spans is not None:
            self.trace_spans(spans_path)
        return proc.returncode, out, stderr

    def check(self, config, output):
        code, out, stderr = output
        if code != 0:
            return f"{config}: exit code {code}: {stderr.strip()[-300:]}"
        golden = os.path.join(self.root, "goldens", f"{config}.csv")
        passed, report = self.compare_golden(out, golden, 1e-6)
        if not passed:
            return f"{config}: golden mismatch: {'; '.join(report)[-300:]}"
        return None

    def final_checks(self):
        return []

    def work_counts(self):
        return {"cli_runs": len(CONFIG_SUBCOMMANDS)}


# ---------------------------------------------------------------------------
# exact_gain

#: Large array: 300x400 quarter-wave elements, z in [10 d_F, 1e5 d_F].
LARGE_ARRAY = (300, 400, 0.25)
#: Near-range arrays: (rows, cols, element side in wavelengths), z in
#: [d_N, 10 d_F]. All have 1024 elements, so an op's cost is set by the
#: quadrature order it needs (8 far out, 16 over most of the range, 32 near
#: d_N for 2-wavelength elements) and `op_p50_s` sits on the order-16 plateau
#: instead of between array sizes.
NEAR_ARRAYS = ((32, 32, 1.0), (32, 32, 1.5), (32, 32, 2.0), (16, 64, 1.0),
               (16, 64, 1.5), (16, 64, 2.0))
GAIN_TOL = 1e-6
#: Relative agreement required between the kernel and the reference gain.
GAIN_REFERENCE_RTOL = 1e-5


def reference_gain(geom, z, panels, order):
    """Exact normalized gain by composite Gauss-Legendre quadrature.

    Independent of `nearfield.field`: each element is split into
    panels x panels sub-squares with an order x order rule on each, the
    on-axis field is written out here, and the sum runs one element row at a
    time to bound memory.
    """
    s, lam = geom.element_side, geom.wavelength
    nodes, weights = leggauss(order)
    h = s / panels
    mid = (np.arange(panels) + 0.5) * h - 0.5 * s
    u = (mid[:, None] + 0.5 * h * nodes[None, :]).ravel()
    w = np.tile(0.5 * h * weights, panels)
    k = 2.0 * np.pi / lam

    def field(x, y):
        r2 = x * x + y * y + z * z
        return np.sqrt(z * (x * x + z * z)) / r2**1.25 * np.exp(-1j * k * np.sqrt(r2))

    xs = (np.arange(geom.cols) - 0.5 * (geom.cols - 1)) * s
    ys = (np.arange(geom.rows) - 0.5 * (geom.rows - 1)) * s
    gx = xs[:, None] + u[None, :]
    total = 0.0
    for y0 in ys:
        vals = field(gx[:, :, None], (y0 + u)[None, None, :])
        integrals = np.einsum("cij,i,j->c", vals, w, w)
        total += float(np.sum(np.abs(integrals) ** 2))
    ref = float(np.einsum("ij,i,j->", np.abs(field(u[:, None], u[None, :])) ** 2, w, w))
    return total / (geom.num_elements * s * s * ref)


class ExactGain:
    """One op is one `beam.array_gain_exact(geom, z, tol=1e-6)` point.

    A pass has 4 large-array points and 12 near-range points (each near
    array twice), interleaved one large to three near.
    """

    def __init__(self, root, seed, scratch):
        from nearfield import beam, boundary_distances

        self.beam = beam
        self.geoms = {shape: _upa(*shape) for shape in (LARGE_ARRAY,) + NEAR_ARRAYS}
        rng = random.Random(seed)
        large_geom = self.geoms[LARGE_ARRAY]
        d_f = boundary_distances(large_geom).d_f
        large = [(LARGE_ARRAY, z) for z in _strata(rng, 4, 10 * d_f, 1e5 * d_f)]
        near = []
        for shape in NEAR_ARRAYS:
            b = boundary_distances(self.geoms[shape])
            near += [(shape, z) for z in _strata(rng, 2, b.d_n, 10 * b.d_f)]
        rng.shuffle(large)
        rng.shuffle(near)
        self.items = []
        for i, item in enumerate(large):
            self.items += [item] + near[3 * i:3 * i + 3]
        self.reference_items = [rng.choice(large)] + rng.sample(near, 2)
        self.reference_gains = {}

    def warm_up(self):
        self.beam.array_gain_exact(_upa(4, 4, 1.0), 10 * WAVELENGTH, tol=GAIN_TOL)

    def pass_items(self, index):
        return self.items

    def run(self, item):
        shape, z = item
        return self.beam.array_gain_exact(self.geoms[shape], z, tol=GAIN_TOL)

    def check(self, item, gain):
        if not 0.0 < gain <= 1.0:
            return f"gain {gain!r} outside (0, 1] for {item}"
        if item in self.reference_items:
            self.reference_gains[item] = gain
        return None

    def final_checks(self):
        """Compare the last gain of each sampled point with the reference."""
        failures = []
        for (shape, z), gain in self.reference_gains.items():
            panels, order = (2, 8) if shape == LARGE_ARRAY else (4, 16)
            ref = reference_gain(self.geoms[shape], z, panels, order)
            if abs(gain - ref) > GAIN_REFERENCE_RTOL * ref:
                failures.append(f"gain {gain!r} vs reference {ref!r} at "
                                f"{shape}, z={z!r}")
        return failures

    def work_counts(self):
        return {"field.element_points": sum(self.geoms[s].num_elements
                                            for s, _ in self.items),
                "gain_points": len(self.items)}


# ---------------------------------------------------------------------------
# beam_map

#: fig6 map window: x in [-1 m, 1 m], z in [0.01, 0.12] d_FA.
MAP_X_POINTS = 21
MAP_Z_POINTS = 21
#: Allowed deviation of a map value from its direct evaluation or mirror.
MAP_ATOL = 1e-9


class BeamMap:
    """One op is one `beam.beam_pattern_map` on the fig6 geometry.

    A pass has 8 focal points, 4 on axis and 4 off axis, with focal depth
    stratified in [0.02, 0.1] d_FA and off-axis offsets of 0.2-0.8 m.
    """

    def __init__(self, root, seed, scratch):
        from nearfield import beam, boundary_distances

        self.beam = beam
        self.geom = _upa(100, 100, HALF_WAVE_DIAGONAL)
        d_fa = boundary_distances(self.geom).d_fa
        self.x_grid = np.linspace(-1.0, 1.0, MAP_X_POINTS)
        self.z_grid = np.linspace(0.01 * d_fa, 0.12 * d_fa, MAP_Z_POINTS)
        rng = random.Random(seed)
        on_axis = [(0.0, 0.0, z) for z in _strata(rng, 4, 0.02 * d_fa, 0.1 * d_fa)]
        off_axis = [(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.8), 0.0, z)
                    for z in _strata(rng, 4, 0.02 * d_fa, 0.1 * d_fa)]
        self.items = []
        for pair in zip(on_axis, off_axis):
            self.items += pair
        rng.shuffle(self.items)
        self.rows = {focus: rng.randrange(MAP_Z_POINTS) for focus in self.items}
        centers = self.geom.element_centers()
        self.cx, self.cy = centers[:, 0], centers[:, 1]

    def warm_up(self):
        self.beam.beam_pattern_map(self.geom, self.items[0], self.x_grid[:3],
                                   self.z_grid[:2])

    def pass_items(self, index):
        return self.items

    def run(self, focus):
        return self.beam.beam_pattern_map(self.geom, focus, self.x_grid, self.z_grid)

    def direct_row(self, focus, z):
        """|h(F)^H h(p)|^2 / N^2 for p = (x, 0, z) over the x grid, with the
        spherical phase written out from raw distances."""
        k = 2.0 * np.pi / self.geom.wavelength
        fx, fy, fz = focus
        h_f = np.exp(-1j * k * np.sqrt((self.cx - fx) ** 2 + (self.cy - fy) ** 2 + fz * fz))
        dist = np.sqrt((self.cx[:, None] - self.x_grid[None, :]) ** 2
                       + self.cy[:, None] ** 2 + z * z)
        dots = np.conj(h_f) @ np.exp(-1j * k * dist)
        return np.abs(dots) ** 2 / self.geom.num_elements**2

    def check(self, focus, gains):
        if gains.shape != (MAP_Z_POINTS, MAP_X_POINTS):
            return f"map shape {gains.shape} for focus {focus}"
        if not (np.all(gains >= 0.0) and np.all(gains <= 1.0)):
            return f"map values outside [0, 1] for focus {focus}"
        if focus[0] == 0.0:
            mirror = np.abs(gains - gains[:, ::-1]).max()
            if mirror > MAP_ATOL:
                return f"x-mirror asymmetry {mirror:.3e} for on-axis focus {focus}"
        row = self.rows[focus]
        dev = np.abs(gains[row] - self.direct_row(focus, self.z_grid[row])).max()
        if dev > MAP_ATOL:
            return f"row {row} deviates {dev:.3e} from direct evaluation, focus {focus}"
        return None

    def final_checks(self):
        return []

    def work_counts(self):
        points = MAP_X_POINTS * MAP_Z_POINTS * len(self.items)
        return {"beam.map_points": points,
                "beam.element_map_points": self.geom.num_elements * points}


# ---------------------------------------------------------------------------
# depth_mux

USER_COUNTS = (4, 8, 12, 16, 20, 24, 28, 32)
NOISE_POWER = 1e-12
TOTAL_POWER = 1.0
#: Largest allowed ZF leakage |h_k^H w_i| / min_k |h_k^H w_k|, i != k.
ZF_LEAKAGE = 1e-8
#: Relative tolerance of the power budget and SINR identities.
IDENTITY_RTOL = 1e-9


class DepthMux:
    """One op is one user set on the fig10 200x200 geometry.

    A pass has one set for each K in USER_COUNTS, half precoded with ZF and
    half with MF. A set takes min(6, K // 2) on-axis users of the canonical
    depth plan and places the rest off axis, at depths log-uniform in
    [d_B, 0.1 d_FA] and angles within 45 degrees in x and 22.5 in y.
    """

    def __init__(self, root, seed, scratch):
        from nearfield import boundary_distances, depth_mux
        from nearfield.numerics import RankError

        self.mux = depth_mux
        self.rank_error = RankError
        self.geom = _upa(200, 200, HALF_WAVE_DIAGONAL)
        b = boundary_distances(self.geom)
        plan_users = depth_mux.plan_user_positions(
            depth_mux.plan_depth_focal_points(self.geom), self.geom)
        rng = random.Random(seed)
        kinds = ["zf", "mf"] * (len(USER_COUNTS) // 2)
        rng.shuffle(kinds)
        # K ascending in every pass: peak memory depends on the order in
        # which the allocator sees the channel sizes, so a fixed order keeps
        # `peak_rss_mb` independent of the seed.
        self.items = []
        for k, kind in zip(USER_COUNTS, kinds):
            users = rng.sample(plan_users, min(len(plan_users), k // 2))
            while len(users) < k:
                z = math.exp(rng.uniform(math.log(b.d_b), math.log(0.1 * b.d_fa)))
                users.append((z * math.tan(rng.uniform(-math.pi / 4, math.pi / 4)),
                              z * math.tan(rng.uniform(-math.pi / 8, math.pi / 8)),
                              z))
            self.items.append((kind, tuple(users)))
        self.rank_rejected = set()

    def warm_up(self):
        self.run(("zf", ((0.0, 0.0, 50.0), (5.0, 0.0, 50.0))))

    def pass_items(self, index):
        return self.items

    def run(self, item):
        kind, users = item
        precoder = (self.mux.zf_precoder if kind == "zf"
                    else self.mux.matched_filter_precoder)
        results = []
        for per_element in (False, True):
            h = self.mux.build_mu_channel(self.geom, users,
                                          per_element_amplitude=per_element).matrix
            try:
                w = precoder(h, TOTAL_POWER)
            except self.rank_error:
                self.rank_rejected.add(item)
                return None
            sinr, _ = self.mux.evaluate_sinr(h, w, NOISE_POWER)
            results.append((h, w, sinr))
        return results

    def check(self, item, results):
        if results is None:  # documented RankError: users not resolvable
            return None
        kind, users = item
        for h, w, sinr in results:
            if h.shape != (self.geom.num_elements, len(users)) or w.shape != h.shape:
                return f"shape {h.shape}/{w.shape} for K={len(users)}"
            power = float(np.sum(np.abs(w) ** 2))
            if abs(power - TOTAL_POWER) > IDENTITY_RTOL * TOTAL_POWER:
                return f"{kind}: tr(W^H W) = {power!r}, budget {TOTAL_POWER}"
            cross = h.conj().T @ w
            signal = np.abs(np.diag(cross)) ** 2
            interference = np.sum(np.abs(cross) ** 2, axis=1) - signal
            expected = signal / (interference + NOISE_POWER)
            if kind == "zf":
                leak = np.abs(cross - np.diag(np.diag(cross))).max()
                if leak > ZF_LEAKAGE * np.sqrt(signal.min()):
                    return f"zf: leakage {leak:.3e} for K={len(users)}"
                expected = signal / NOISE_POWER
            if not np.allclose(sinr, expected, rtol=IDENTITY_RTOL, atol=0.0):
                return f"{kind}: SINR differs from its definition for K={len(users)}"
        return None

    def final_checks(self):
        return []

    def work_counts(self):
        users = sum(len(u) for _, u in self.items)
        return {"depth_mux.users": 2 * users,
                "depth_mux.rank_rejected": len(self.rank_rejected)}


WORKLOADS = {
    "cli_figures": CliFigures,
    "exact_gain": ExactGain,
    "beam_map": BeamMap,
    "depth_mux": DepthMux,
}
