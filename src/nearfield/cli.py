"""Command-line front end: figure-reproduction subcommands emitting CSV."""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config, parse_frequency
from . import beam, depth_mux, mimo_los, regions
from .numerics import AccuracyError, BracketError, RankError, hermitian_eig

EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


# ---------------------------------------------------------------------------
# CSV emission and golden comparison

@dataclass
class CsvSeries:
    """Rectangular CSV payload with deterministic `#` metadata comments."""

    header: List[str]
    rows: List[Sequence[Any]]
    comments: List[str] = field(default_factory=list)

    def write(self, fh) -> None:
        for line in self.comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(self.header) + "\n")
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError("ragged CSV row")
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".12g")


def _standard_comments(subcommand: str, cfg: Optional[RunConfig]) -> List[str]:
    comments = [f"nearfield {__version__}", f"subcommand: {subcommand}"]
    if cfg is not None:
        comments.append(f"config-sha256: {cfg.config_hash()}")
    return comments


def _read_csv(path: str):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
            else:
                rows.append(cells)
    if header is None:
        raise ValueError(f"{path}: no CSV header found")
    return header, rows


def compare_golden(csv_path: str, golden_path: str, rel_tol: float):
    """Compare a CSV against a golden fixture column by column.

    Numeric cells are compared by relative deviation, everything else by
    string equality. Returns (passed, report_lines).
    """
    header_a, rows_a = _read_csv(csv_path)
    header_b, rows_b = _read_csv(golden_path)
    report = []
    if header_a != header_b:
        return False, [f"FAIL: header mismatch: {header_a} vs {header_b}"]
    if len(rows_a) != len(rows_b):
        return False, [f"FAIL: row count {len(rows_a)} vs {len(rows_b)}"]
    passed = True
    for j, name in enumerate(header_a):
        worst = 0.0
        worst_row = -1
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            a_txt, b_txt = ra[j], rb[j]
            try:
                a, b = float(a_txt), float(b_txt)
            except ValueError:
                if a_txt != b_txt:
                    passed = False
                    report.append(f"column {name}: text mismatch at row {i}: "
                                  f"{a_txt!r} vs {b_txt!r}")
                continue
            if a == b or (math.isinf(a) and math.isinf(b) and a * b > 0):
                dev = 0.0
            else:
                dev = abs(a - b) / max(abs(a), abs(b))
            if dev > worst:
                worst, worst_row = dev, i
        report.append(f"column {name}: max rel deviation {worst:.3e}"
                      + (f" at row {worst_row}" if worst_row >= 0 else ""))
        if worst > rel_tol:
            passed = False
    report.append("PASS" if passed else "FAIL")
    return passed, report


# ---------------------------------------------------------------------------
# experiment-block helpers

def _experiment(cfg: RunConfig, required: set, optional: set) -> Mapping[str, Any]:
    exp = cfg.experiment
    unknown = set(exp) - required - optional
    if unknown:
        raise ConfigError(f"experiment: unknown keys {sorted(unknown)}")
    missing = required - set(exp)
    if missing:
        raise ConfigError(f"experiment: missing keys {sorted(missing)}")
    return exp


def _need_geometry(cfg: RunConfig):
    if cfg.geometry is None:
        raise ConfigError("this subcommand requires a geometry block")
    return cfg.geometry


def _need_radio(cfg: RunConfig):
    if cfg.radio is None:
        raise ConfigError("this subcommand requires a radio block")
    return cfg.radio


def _need_isotropic(radio) -> None:
    """Reject a directive gain model where the subcommand defines no
    aperture area for `RadioParams.gain_product`."""
    for key in ("tx_gain_model", "rx_gain_model"):
        if getattr(radio, key) != "isotropic":
            raise ConfigError(f"radio.{key}: a directive gain needs an "
                              "aperture area, which this subcommand does not "
                              "define; use isotropic")


def _integer(value: Any, where: str) -> int:
    """A count from the config, at least 1."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected an integer, got {value!r}") from None
    if number < 1:
        raise ConfigError(f"{where} must be at least 1, got {number}")
    return number


def _number(value: Any, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def _positive(value: Any, where: str) -> float:
    """A finite, positive number from the config."""
    number = _number(value, where)
    if not 0 < number < math.inf:
        raise ConfigError(f"{where} must be finite and positive")
    return number


def _non_negative(value: Any, where: str) -> float:
    """A finite number >= 0 from the config."""
    number = _number(value, where)
    if not 0 <= number < math.inf:
        raise ConfigError(f"{where} must be finite and non-negative")
    return number


def _positive_length(cfg: RunConfig, block: Mapping[str, Any], key: str,
                     prefix: str = "experiment") -> float:
    """The finite, positive length `<prefix>.<key>` of `block`, in meters."""
    where = f"{prefix}.{key}"
    return _positive(cfg.length(block[key], where), where)


def _log_grid(lo: float, hi: float, points: int) -> np.ndarray:
    if not (0 < lo < hi < math.inf) or points < 2:
        raise ConfigError("need 0 < min < max < inf and at least 2 points")
    return np.logspace(math.log10(lo), math.log10(hi), points)


# ---------------------------------------------------------------------------
# subcommand runners

def run_regions(cfg: RunConfig) -> CsvSeries:
    geom = _need_geometry(cfg)
    exp = _experiment(cfg, set(), {"classify"})
    bounds = cfg.bounds
    rows: List[Sequence[Any]] = []
    for name in ("d_n", "d_f", "d_b", "d_fa"):
        value = getattr(bounds, name)
        rows.append([name, value, value / bounds.d_f, ""])
    for raw in exp.get("classify", []):
        d = cfg.length(raw, "experiment.classify")
        rows.append([f"classify({raw})", d, d / bounds.d_f,
                     regions.classify(d, bounds)])
    return CsvSeries(["quantity", "meters", "in_dF", "label"], rows,
                     _standard_comments("regions", cfg))


def run_gain_sweep(cfg: RunConfig) -> CsvSeries:
    geom = _need_geometry(cfg)
    exp = _experiment(cfg, {"z_min", "z_max"}, {"points", "tol"})
    z_lo = _positive_length(cfg, exp, "z_min")
    z_hi = _positive_length(cfg, exp, "z_max")
    points = _integer(exp.get("points", 40), "experiment.points")
    tol = _positive(exp.get("tol", 1e-6), "experiment.tol")
    d_f = cfg.bounds.d_f
    rows = []
    for z in _log_grid(z_lo, z_hi, points):
        gain = beam.array_gain_exact(geom, z, tol=tol)
        rows.append([z, z / d_f, gain])
    return CsvSeries(["z_m", "z_over_dF", "gain"], rows,
                     _standard_comments("gain-sweep", cfg))


def run_beam_width(cfg: RunConfig) -> CsvSeries:
    geom = _need_geometry(cfg)
    exp = _experiment(cfg, {"focal_distances", "x_max"}, {"points"})
    focals = [cfg.length(v, "experiment.focal_distances")
              for v in exp["focal_distances"]]
    x_max = cfg.length(exp["x_max"], "experiment.x_max")
    points = _integer(exp.get("points", 201), "experiment.points")
    x = np.linspace(-x_max, x_max, points)
    comments = _standard_comments("beam-width", cfg)
    columns = [x]
    header = ["x_m"]
    for i, f in enumerate(focals, start=1):
        columns.append(beam.gain_focal_plane(geom, f, x, 0.0))
        header.append(f"gain_f{i}")
        comments.append(f"f{i}: F={_fmt(f)} m, bw_3db={_fmt(beam.beam_width_3db(geom, f))} m")
    rows = [[col[i] for col in columns] for i in range(points)]
    return CsvSeries(header, rows, comments)


def run_beam_depth(cfg: RunConfig) -> CsvSeries:
    geom = _need_geometry(cfg)
    exp = _experiment(cfg, {"focal_distances"}, set())
    rows = []
    a3db = beam.solve_a3db(geom.rows, geom.cols)
    for raw in exp["focal_distances"]:
        f = cfg.length(raw, "experiment.focal_distances")
        metrics = beam.beam_depth_3db(geom, f, a3db=a3db)
        rows.append([f, metrics.bd_interval[0], metrics.bd_interval[1],
                     metrics.bd_3db, metrics.bw_3db, metrics.a_3db])
    return CsvSeries(
        ["focal_m", "z_lo_m", "z_hi_m", "bd_3db_m", "bw_3db_m", "a_3db"],
        rows, _standard_comments("beam-depth", cfg))


def run_heatmap(cfg: RunConfig) -> CsvSeries:
    geom = _need_geometry(cfg)
    exp = _experiment(cfg, {"focal_distance", "x_max", "z_min", "z_max"},
                      {"x_points", "z_points"})
    f = _positive_length(cfg, exp, "focal_distance")
    z_lo = _positive_length(cfg, exp, "z_min")
    z_hi = _positive_length(cfg, exp, "z_max")
    x_max = cfg.length(exp["x_max"], "experiment.x_max")
    if not math.isfinite(x_max):
        raise ConfigError("experiment.x_max must be finite")
    x_grid = np.linspace(-x_max, x_max,
                         _integer(exp.get("x_points", 81), "experiment.x_points"))
    z_grid = np.linspace(z_lo, z_hi,
                         _integer(exp.get("z_points", 81), "experiment.z_points"))
    gains = beam.beam_pattern_map(geom, (0.0, 0.0, f), x_grid, z_grid)
    rows = []
    for i, z in enumerate(z_grid):
        for j, x in enumerate(x_grid):
            rows.append([x, z, gains[i, j]])
    return CsvSeries(["x_m", "z_m", "gain"], rows,
                     _standard_comments("heatmap", cfg))


def run_g_of_x(cfg: RunConfig) -> CsvSeries:
    exp = _experiment(cfg, {"shapes", "x_max"}, {"points"})
    shapes = exp["shapes"]
    if not (isinstance(shapes, list)
            and all(isinstance(mn, list) and len(mn) == 2 for mn in shapes)):
        raise ConfigError("experiment.shapes: expected a list of [rows, cols]")
    shapes = [(_integer(m, "experiment.shapes"), _integer(n, "experiment.shapes"))
              for m, n in shapes]
    x_max = _positive(exp["x_max"], "experiment.x_max")
    points = _integer(exp.get("points", 401), "experiment.points")
    x = np.linspace(-x_max, x_max, points)
    header = ["x"]
    columns = [x]
    comments = _standard_comments("g-of-x", cfg)
    for m, n in shapes:
        header.append(f"g_{m}x{n}")
        columns.append(beam.g_of_x(m, n, x))
        comments.append(f"a3db_{m}x{n}: {_fmt(beam.solve_a3db(m, n))}")
    rows = [[col[i] for col in columns] for i in range(points)]
    return CsvSeries(header, rows, comments)


def _plan_from_config(cfg: RunConfig, exp: Mapping[str, Any]):
    geom = _need_geometry(cfg)
    d_min = None
    if "d_min" in exp:
        d_min = cfg.length(exp["d_min"], "experiment.d_min")
    mode = str(exp.get("depth_parameter", "canonical"))
    if mode not in ("canonical", "exact"):
        raise ConfigError("experiment.depth_parameter must be canonical|exact")
    a3db = depth_mux.planning_depth_parameter(geom, exact=(mode == "exact"))
    return depth_mux.plan_depth_focal_points(geom, d_min=d_min, a3db=a3db)


def run_depth_plan(cfg: RunConfig) -> CsvSeries:
    geom = _need_geometry(cfg)
    exp = _experiment(cfg, set(), {"d_min", "depth_parameter", "gain_grid"})
    plan = _plan_from_config(cfg, exp)
    comments = _standard_comments("depth-plan", cfg)
    comments.append(f"d_min: {_fmt(plan.d_min)} m, focal points: "
                    f"{len(plan.focal_points)}")
    if "gain_grid" in exp:
        grid = exp["gain_grid"]
        if not isinstance(grid, Mapping):
            raise ConfigError("experiment.gain_grid: expected a mapping")
        unknown = set(grid) - {"z_min", "z_max", "points"}
        if unknown:
            raise ConfigError(f"experiment.gain_grid: unknown keys {sorted(unknown)}")
        missing = {"z_min", "z_max"} - set(grid)
        if missing:
            raise ConfigError(f"experiment.gain_grid: missing keys {sorted(missing)}")
        prefix = "experiment.gain_grid"
        z = _log_grid(_positive_length(cfg, grid, "z_min", prefix),
                      _positive_length(cfg, grid, "z_max", prefix),
                      _integer(grid.get("points", 200), f"{prefix}.points"))
        header = ["z_m"] + [f"gain_f{i}" for i in range(1, len(plan.focal_points) + 1)]
        rows = []
        for zi in z:
            rows.append([zi] + [beam.gain_axial(geom, f, zi)
                                for f in plan.focal_points])
        return CsvSeries(header, rows, comments)
    rows = []
    for i, (f, (lo, hi)) in enumerate(zip(plan.focal_points, plan.intervals),
                                      start=1):
        rows.append([i, f, lo, hi])
    return CsvSeries(["index", "focal_m", "z_lo_m", "z_hi_m"], rows, comments)


def run_zf_sinr(cfg: RunConfig) -> CsvSeries:
    geom = _need_geometry(cfg)
    exp = _experiment(cfg, {"noise_power"},
                      {"users", "d_min", "depth_parameter", "total_power",
                       "precoder", "bandwidth"})
    users_spec = exp.get("users", "from_plan")
    if users_spec == "from_plan":
        plan = _plan_from_config(cfg, {k: v for k, v in exp.items()
                                       if k in ("d_min", "depth_parameter")})
        users = depth_mux.plan_user_positions(plan, geom)
    else:
        if not (isinstance(users_spec, list) and all(
                isinstance(u, list) and len(u) == 3 for u in users_spec)):
            raise ConfigError("experiment.users: expected from_plan or a list "
                              "of [x, y, z]")
        users = [tuple(cfg.length(v, "experiment.users") for v in u)
                 for u in users_spec]
    total_power = _positive(exp.get("total_power", 1.0), "experiment.total_power")
    noise_power = _non_negative(exp["noise_power"], "experiment.noise_power")
    bandwidth = _positive(exp.get("bandwidth", 1.0), "experiment.bandwidth")
    channel = depth_mux.build_mu_channel(geom, users)
    kind = str(exp.get("precoder", "zf"))
    if kind == "zf":
        w = depth_mux.zf_precoder(channel.matrix, total_power)
    elif kind == "mf":
        w = depth_mux.matched_filter_precoder(channel.matrix, total_power)
    else:
        raise ConfigError("experiment.precoder must be zf|mf")
    sinr, sum_rate = depth_mux.evaluate_sinr(channel.matrix, w, noise_power,
                                             bandwidth=bandwidth)
    rows = []
    for i, (user, s) in enumerate(zip(users, sinr), start=1):
        rows.append([i, user[0], user[1], user[2], s,
                     10.0 * math.log10(s) if s > 0 else -math.inf, sum_rate])
    return CsvSeries(
        ["user", "x_m", "y_m", "z_m", "sinr", "sinr_db", "sum_rate"],
        rows, _standard_comments("zf-sinr", cfg))


def _los_link(exp: Mapping[str, Any], k: int, d: float, lam: float):
    spacing = exp.get("spacing", "optimal")
    if spacing == "optimal":
        spacing = mimo_los.optimal_spacing(k, d, lam)
    else:
        spacing = _positive(spacing, "experiment.spacing")
    return mimo_los.build_los_mimo(k, spacing, d, lam)


def run_los_capacity(cfg: RunConfig) -> CsvSeries:
    radio = _need_radio(cfg)
    _need_isotropic(radio)
    exp = _experiment(cfg, {"num_antennas", "distance_m"},
                      {"spacing", "model"})
    k = _integer(exp["num_antennas"], "experiment.num_antennas")
    d = _positive(exp["distance_m"], "experiment.distance_m")
    link = _los_link(exp, k, d, radio.wavelength())
    model = str(exp.get("model", "fresnel"))
    if model not in ("fresnel", "exact"):
        raise ConfigError("experiment.model must be fresnel|exact")
    h = link.h_fresnel if model == "fresnel" else link.h_exact
    eigenvalues, _ = hermitian_eig(h.conj().T @ h)
    eigenvalues = np.maximum(eigenvalues, 0.0)
    b = radio.bandwidth()
    snr = radio.power_over_noise / b
    result = mimo_los.capacity_waterfilling(eigenvalues, snr, bandwidth=b)
    rows = []
    for i in range(k):
        rows.append([i + 1, result.eigenvalues[i], result.powers[i],
                     result.capacity])
    return CsvSeries(
        ["stream", "eigenvalue", "power_fraction", "capacity_bit_per_s"],
        rows, _standard_comments("los-capacity", cfg))


def run_mode_patterns(cfg: RunConfig) -> CsvSeries:
    radio = _need_radio(cfg)
    exp = _experiment(cfg, {"num_antennas", "distance_m"},
                      {"spacing", "num_angles", "num_modes"})
    k = _integer(exp["num_antennas"], "experiment.num_antennas")
    d = _positive(exp["distance_m"], "experiment.distance_m")
    link = _los_link(exp, k, d, radio.wavelength())
    analysis = mimo_los.mode_analysis(link, num_angles=_integer(
        exp.get("num_angles", 361), "experiment.num_angles"))
    n_modes = min(_integer(exp.get("num_modes", 2), "experiment.num_modes"), k)
    header = ["theta_rad"] + [f"mode_{i}" for i in range(1, n_modes + 1)]
    comments = _standard_comments("mode-patterns", cfg)
    comments.append("eigenvalue fractions: "
                    + ", ".join(_fmt(v) for v in analysis.eigenvalue_fractions))
    rows = []
    for i, theta in enumerate(analysis.angles):
        rows.append([theta] + [analysis.patterns[m, i] for m in range(n_modes)])
    return CsvSeries(header, rows, comments)


def run_capacity_vs_bandwidth(cfg: RunConfig) -> CsvSeries:
    radio = _need_radio(cfg)
    _need_isotropic(radio)
    exp = _experiment(cfg, {"b_min_hz", "b_max_hz"},
                      {"points", "beta", "distance_m"})
    if ("beta" in exp) == ("distance_m" in exp):
        raise ConfigError("experiment: set exactly one of beta/distance_m")
    if "beta" in exp:
        beta = _positive(exp["beta"], "experiment.beta")
    else:
        d = _positive(exp["distance_m"], "experiment.distance_m")
        beta = (radio.wavelength() / (4.0 * np.pi * d)) ** 2
    grid = _log_grid(parse_frequency(exp["b_min_hz"], "experiment.b_min_hz"),
                     parse_frequency(exp["b_max_hz"], "experiment.b_max_hz"),
                     _integer(exp.get("points", 200), "experiment.points"))
    sweep = mimo_los.capacity_bandwidth_sweep(radio.power_over_noise, beta, grid)
    rows = [[b, r, sweep.rate_limit, sweep.bandwidth_80pct]
            for b, r in zip(sweep.bandwidths, sweep.rates)]
    return CsvSeries(
        ["bandwidth_hz", "rate_bit_per_s", "rate_limit_bit_per_s",
         "bandwidth_80pct_hz"],
        rows, _standard_comments("capacity-vs-bandwidth", cfg))


def run_capacity_vs_frequency(cfg: RunConfig) -> CsvSeries:
    radio = _need_radio(cfg)
    exp = _experiment(cfg, {"area_m2", "distance_m", "f_min", "f_max"},
                      {"points", "gain_model"})
    area = _positive(exp["area_m2"], "experiment.area_m2")
    d = _positive(exp["distance_m"], "experiment.distance_m")
    freqs = _log_grid(parse_frequency(exp["f_min"], "experiment.f_min"),
                      parse_frequency(exp["f_max"], "experiment.f_max"),
                      _integer(exp.get("points", 100), "experiment.points"))
    model = str(exp.get("gain_model", "both"))
    if model not in ("both", "isotropic", "directive"):
        raise ConfigError("experiment.gain_model must be both|isotropic|directive")
    variants = ["isotropic", "directive"] if model == "both" else [model]
    sweeps = {}
    for variant in variants:
        r = dataclasses.replace(radio, tx_gain_model=variant,
                                rx_gain_model=variant)
        sweeps[variant] = mimo_los.capacity_frequency_sweep(area, d, freqs, r)
    header = ["frequency_hz", "streams"] + [f"capacity_{v}_bit_per_s"
                                            for v in variants]
    rows = []
    for i, f in enumerate(freqs):
        row = [f, sweeps[variants[0]][i].num_streams]
        row += [sweeps[v][i].capacity for v in variants]
        rows.append(row)
    return CsvSeries(header, rows,
                     _standard_comments("capacity-vs-frequency", cfg))


def run_dof(cfg: RunConfig) -> CsvSeries:
    exp = _experiment(cfg, {"area_m2"}, {"wavelengths_m", "frequencies"})
    area = _positive(exp["area_m2"], "experiment.area_m2")
    wavelengths: List[float] = [_positive(v, "experiment.wavelengths_m")
                                for v in exp.get("wavelengths_m", [])]
    for f in exp.get("frequencies", []):
        wavelengths.append(mimo_los.SPEED_OF_LIGHT
                           / parse_frequency(f, "experiment.frequencies"))
    if not wavelengths:
        raise ConfigError("experiment: need wavelengths_m or frequencies")
    rows = [[lam, area, mimo_los.spatial_dof(area, lam)] for lam in wavelengths]
    return CsvSeries(["wavelength_m", "area_m2", "dof"], rows,
                     _standard_comments("dof", cfg))


RUNNERS = {
    "regions": run_regions,
    "gain-sweep": run_gain_sweep,
    "beam-width": run_beam_width,
    "beam-depth": run_beam_depth,
    "heatmap": run_heatmap,
    "g-of-x": run_g_of_x,
    "depth-plan": run_depth_plan,
    "zf-sinr": run_zf_sinr,
    "los-capacity": run_los_capacity,
    "mode-patterns": run_mode_patterns,
    "capacity-vs-bandwidth": run_capacity_vs_bandwidth,
    "capacity-vs-frequency": run_capacity_vs_frequency,
    "dof": run_dof,
}


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearfield",
        description="Radiative near-field array analysis; emits CSV series.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run config")
        p.add_argument("--out", default=None,
                       help="output path, or - for stdout (default: config "
                            "output field, else stdout)")
    p = sub.add_parser("compare-golden")
    p.add_argument("csv")
    p.add_argument("golden")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="max allowed per-column relative deviation")
    return parser


def _emit(series: CsvSeries, out: Optional[str], cfg: RunConfig) -> None:
    target = out if out is not None else cfg.output
    if target in (None, "-"):
        series.write(sys.stdout)
    else:
        with open(target, "w") as fh:
            series.write(fh)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.subcommand == "compare-golden":
        try:
            passed, report = compare_golden(args.csv, args.golden, args.tol)
        except (OSError, ValueError) as exc:
            print(f"compare-golden: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        print("\n".join(report))
        return 0 if passed else 1
    try:
        cfg = load_config(args.config)
        series = RUNNERS[args.subcommand](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (AccuracyError, BracketError, RankError, np.linalg.LinAlgError) as exc:
        print(f"numeric error in {args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    _emit(series, args.out, cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
