"""Command-line front end: figure-reproduction subcommands emitting CSV.

Importing this module does not load numpy. Each runner imports the library
module it runs (`beam`, `depth_mux`, `mimo_los`), so the closed-form
subcommands start without numpy. A library call that can reject a value its
key's kind accepted runs in `blame(key)`, so the config error names the key.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .config import (REQUIRED, ConfigError, RunConfig, Schema, blame, carrier,
                     count, either, enum, frequency, length, list_of,
                     load_config, non_negative, position, positive)
from .geometry import classify, wavelength_of
from .numerics import NumericError, check_non_negative

EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


# ---------------------------------------------------------------------------
# CSV emission and golden comparison

class NanCellError(NumericError):
    """A CSV cell that would be written as `nan`."""


@dataclass
class CsvSeries:
    """Rectangular CSV payload with deterministic `#` metadata comments."""

    header: List[str]
    rows: List[Sequence[Any]]
    comments: List[str] = field(default_factory=list)

    def write(self, fh) -> None:
        """Write the comments, header and rows. A ragged row or a `nan`
        cell raises before any byte is written."""
        lines = [f"# {line}" for line in self.comments]
        lines.append(",".join(self.header))
        for i, row in enumerate(self.rows):
            if len(row) != len(self.header):
                raise ValueError("ragged CSV row")
            cells = [_fmt(v) for v in row]
            if "nan" in cells:
                column = self.header[cells.index("nan")]
                raise NanCellError(f"column {column} row {i} is nan")
            lines.append(",".join(cells))
        fh.write("\n".join(lines) + "\n")


def _fmt(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):  # numpy registers its integers
        return str(int(value))
    return format(float(value), ".12g")


def _read_csv(path: str):
    """Header and data rows of a CSV file, skipping `#` comments. Raises
    `ValueError` if there is no header or a row's cell count differs from
    the header's."""
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
            elif len(cells) != len(header):
                raise ValueError(f"{path}: row {len(rows)} has {len(cells)} "
                                 f"cells, the header has {len(header)}")
            else:
                rows.append(cells)
    if header is None:
        raise ValueError(f"{path}: no CSV header found")
    return header, rows


def compare_golden(csv_path: str, golden_path: str, rel_tol: float):
    """Compare a CSV against a golden fixture column by column.

    Numeric cells are compared by relative deviation, everything else by
    string equality. A non-finite cell matches only the same signed
    infinity; a `nan` matches nothing, and either mismatch fails with its
    row named. Returns (passed, report_lines). Raises `ValueError` unless
    `rel_tol` is finite and non-negative, or if a file is not a rectangular
    CSV.
    """
    check_non_negative("tol", rel_tol)
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
            if a == b:  # equal floats, or the same signed infinity
                dev = 0.0
            elif math.isfinite(a) and math.isfinite(b):
                dev = abs(a - b) / max(abs(a), abs(b))
            else:  # a nan, or a non-finite cell against another value
                passed = False
                report.append(f"column {name}: non-finite mismatch at row "
                              f"{i}: {a_txt!r} vs {b_txt!r}")
                continue
            if dev > worst:
                worst, worst_row = dev, i
        report.append(f"column {name}: max rel deviation {worst:.3e}"
                      + (f" at row {worst_row}" if worst_row >= 0 else ""))
        if worst > rel_tol:
            passed = False
    report.append("PASS" if passed else "FAIL")
    return passed, report


# ---------------------------------------------------------------------------
# subcommands: each runner gets its experiment block parsed by its table

#: subcommand -> runner(cfg, exp) returning the CSV rows and extra comments
RUNNERS: Dict[str, Callable[[RunConfig, Dict[str, Any]], CsvSeries]] = {}
#: subcommand -> (config block it needs, or None; its experiment table)
SCHEMAS: Dict[str, Tuple[Optional[str], Schema]] = {}


def subcommand(name: str, needs: Optional[str] = None, one_of=(), **keys):
    """Register a runner with its experiment table: each keyword maps a key
    to (kind, default or REQUIRED); `one_of` lists exclusive key pairs."""
    def register(runner):
        RUNNERS[name] = runner
        SCHEMAS[name] = (needs, Schema(keys, one_of))
        return runner
    return register


def _linspace(lo: float, hi: float, points: int, where: str) -> List[float]:
    """`points` values from lo to hi, as numpy.linspace spaces them:
    i * step + lo with the last one set to hi, and lo alone for one point;
    where the step underflows to 0, i / (points - 1) times the span plus lo.
    The list is allocated first, so a size beyond memory fails at once.
    Raises `ConfigError` naming `where` if hi - lo overflows."""
    span = hi - lo  # linspace's stop - start
    if not math.isfinite(span):
        raise ConfigError(f"{where}: a grid from {lo:g} to {hi:g} spans "
                          "beyond the float range")
    grid = [lo] * points
    if points > 1:
        div = points - 1
        step = span / div
        for i in range(1, div):
            grid[i] = (i * step if step else i / div * span) + lo
        grid[-1] = hi
    return grid


def _log_grid(lo: float, hi: float, points: int, where: str) -> List[float]:
    """`points` values from lo to hi, evenly spaced in log10: ten to the
    power of `_linspace`'s exponents, in place. An empty range names the
    block `where`, since either end can cause it."""
    if points < 2:
        raise ConfigError(f"{where}.points: a log grid needs at least 2 "
                          f"points, got {points}")
    if not lo < hi:
        raise ConfigError(f"{where}: need min < max, got {lo:g} and {hi:g}")
    grid = _linspace(math.log10(lo), math.log10(hi), points, where)
    try:
        for i, exponent in enumerate(grid):
            grid[i] = 10.0 ** exponent
    except OverflowError:  # hi within rounding of the largest float
        raise ConfigError(f"{where}: max {hi:g} rounds beyond the float "
                          "range on a log grid") from None
    return grid


@subcommand("regions", "geometry", classify=(list_of(length), ()))
def run_regions(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    bounds = cfg.bounds
    rows: List[Sequence[Any]] = []
    for name in ("d_n", "d_f", "d_b", "d_fa"):
        value = getattr(bounds, name)
        rows.append([name, value, value / bounds.d_f, ""])
    # the label echoes each distance as written in the config
    for raw, d in zip(cfg.experiment.get("classify", ()), exp["classify"]):
        rows.append([f"classify({raw})", d, d / bounds.d_f,
                     classify(d, bounds)])
    return CsvSeries(["quantity", "meters", "in_dF", "label"], rows)


@subcommand("gain-sweep", "geometry", z_min=(length, REQUIRED),
            z_max=(length, REQUIRED), points=(count, 40), tol=(positive, 1e-6))
def run_gain_sweep(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    from . import beam

    d_f = cfg.bounds.d_f
    z_grid = _log_grid(exp["z_min"], exp["z_max"], exp["points"], "experiment")
    with blame("experiment.z_max"):  # the exact field beyond the float range
        rows = [[z, z / d_f, beam.array_gain_exact(cfg.geometry, z,
                                                   tol=exp["tol"])]
                for z in z_grid]
    return CsvSeries(["z_m", "z_over_dF", "gain"], rows)


@subcommand("beam-width", "geometry", focal_distances=(list_of(length), REQUIRED),
            x_max=(length, REQUIRED), points=(count, 201))
def run_beam_width(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    from . import beam

    geom = cfg.geometry
    x = _linspace(-exp["x_max"], exp["x_max"], exp["points"],
                  "experiment.x_max")
    columns = [x]
    header = ["x_m"]
    comments = []
    for i, f in enumerate(exp["focal_distances"], start=1):
        with blame("experiment.focal_distances"):  # lambda F underflows
            columns.append(beam.gain_focal_plane(geom, f, x, 0.0))
        header.append(f"gain_f{i}")
        comments.append(f"f{i}: F={_fmt(f)} m, bw_3db={_fmt(beam.beam_width_3db(geom, f))} m")
    return CsvSeries(header, list(zip(*columns)), comments)


@subcommand("beam-depth", "geometry",
            focal_distances=(list_of(length), REQUIRED))
def run_beam_depth(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    from . import beam

    geom = cfg.geometry
    rows = []
    a3db = beam.solve_a3db(geom.rows, geom.cols)
    for f in exp["focal_distances"]:
        with blame("experiment.focal_distances"):  # d_F / (8F) overflows
            metrics = beam.beam_depth_3db(geom, f, a3db=a3db)
        rows.append([f, metrics.bd_interval[0], metrics.bd_interval[1],
                     metrics.bd_3db, metrics.bw_3db, a3db])
    return CsvSeries(
        ["focal_m", "z_lo_m", "z_hi_m", "bd_3db_m", "bw_3db_m", "a_3db"], rows)


@subcommand("heatmap", "geometry", focal_distance=(length, REQUIRED),
            x_max=(length, REQUIRED), z_min=(length, REQUIRED),
            z_max=(length, REQUIRED), x_points=(count, 81), z_points=(count, 81))
def run_heatmap(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    from . import beam

    x_grid = _linspace(-exp["x_max"], exp["x_max"], exp["x_points"],
                       "experiment.x_max")
    z_grid = _linspace(exp["z_min"], exp["z_max"], exp["z_points"],
                       "experiment.z_max")
    # a point whose norm leaves the float range: the focus, else the
    # largest coordinate of the farthest grid point
    f = exp["focal_distance"]
    key = ("focal_distance" if f * f == math.inf
           else max(["x_max", "z_min", "z_max"], key=exp.get))
    with blame(f"experiment.{key}"):
        gains = beam.beam_pattern_map(cfg.geometry, (0.0, 0.0, f), x_grid,
                                      z_grid)
    rows = [[x, z, gains[i, j]] for i, z in enumerate(z_grid)
            for j, x in enumerate(x_grid)]
    return CsvSeries(["x_m", "z_m", "gain"], rows)


@subcommand("g-of-x", shapes=(list_of(list_of(count, 2)), REQUIRED),
            x_max=(positive, REQUIRED), points=(count, 401))
def run_g_of_x(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    from . import beam

    x = _linspace(-exp["x_max"], exp["x_max"], exp["points"],
                  "experiment.x_max")
    header = ["x"]
    columns = [x]
    comments = []
    for m, n in exp["shapes"]:
        header.append(f"g_{m}x{n}")
        columns.append(beam.g_of_x(m, n, x))
        comments.append(f"a3db_{m}x{n}: {_fmt(beam.solve_a3db(m, n))}")
    return CsvSeries(header, list(zip(*columns)), comments)


#: experiment keys of the depth-domain focal plan
_PLAN = {"d_min": (length, None),
         "depth_parameter": (enum("canonical", "exact"), "canonical")}


def _plan(cfg: RunConfig, exp: Dict[str, Any]):
    from . import depth_mux

    exact = exp["depth_parameter"] == "exact"
    a3db = depth_mux.planning_depth_parameter(cfg.geometry, exact=exact)
    # d_min defaults to the geometry's d_B
    with blame("geometry" if exp["d_min"] is None else "experiment.d_min"):
        return depth_mux.plan_depth_focal_points(
            cfg.geometry, d_min=exp["d_min"], a3db=a3db)


@subcommand("depth-plan", "geometry", gain_grid=(Schema({
    "z_min": (length, REQUIRED), "z_max": (length, REQUIRED),
    "points": (count, 200)}), None), **_PLAN)
def run_depth_plan(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    plan = _plan(cfg, exp)
    comments = [f"d_min: {_fmt(plan.d_min)} m, focal points: "
                f"{len(plan.focal_points)}"]
    grid = exp["gain_grid"]
    if grid is not None:
        from . import beam

        z = _log_grid(grid["z_min"], grid["z_max"], grid["points"],
                      "experiment.gain_grid")
        header = ["z_m"] + [f"gain_f{i}" for i in range(1, len(plan.focal_points) + 1)]
        columns = [z] + [beam.gain_axial(cfg.geometry, f, z)
                         for f in plan.focal_points]
        return CsvSeries(header, list(zip(*columns)), comments)
    rows = [[i, f, lo, hi] for i, (f, (lo, hi))
            in enumerate(zip(plan.focal_points, plan.intervals), start=1)]
    return CsvSeries(["index", "focal_m", "z_lo_m", "z_hi_m"], rows, comments)


@subcommand("zf-sinr", "geometry", noise_power=(non_negative, REQUIRED),
            users=(either("from_plan", list_of(position)), "from_plan"),
            total_power=(positive, 1.0), precoder=(enum("zf", "mf"), "zf"),
            bandwidth=(positive, 1.0), **_PLAN)
def run_zf_sinr(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    from . import depth_mux

    users = exp["users"]
    if users == "from_plan":
        users = depth_mux.plan_user_positions(_plan(cfg, exp), cfg.geometry)
    with blame("experiment.users"):  # a user beyond the float range
        channel = depth_mux.build_mu_channel(cfg.geometry, users)
    if exp["precoder"] == "zf":
        w = depth_mux.zf_precoder(channel.matrix, exp["total_power"])
    else:
        w = depth_mux.matched_filter_precoder(channel.matrix, exp["total_power"])
    sinr, sum_rate = depth_mux.evaluate_sinr(channel.matrix, w,
                                             exp["noise_power"],
                                             bandwidth=exp["bandwidth"])
    rows = []
    for i, (user, s) in enumerate(zip(users, sinr), start=1):
        rows.append([i, user[0], user[1], user[2], s,
                     10.0 * math.log10(s) if s > 0 else -math.inf, sum_rate])
    return CsvSeries(
        ["user", "x_m", "y_m", "z_m", "sinr", "sinr_db", "sum_rate"], rows)


#: experiment keys of a LOS MIMO link between two ULAs
_LINK = {"num_antennas": (count, REQUIRED), "distance_m": (positive, REQUIRED),
         "spacing": (either("optimal", positive), "optimal")}


def _link_key(lengths: Dict[str, float]) -> str:
    """The key of a link budget beyond the float range: of `lengths`, key ->
    a positive length in meters, the one farthest from 1 m by ratio (the
    largest |ln L|, so an infinite length wins; a tie names the first)."""
    return max(lengths, key=lambda key: abs(math.log(lengths[key])))


def _los_link(cfg: RunConfig, exp: Dict[str, Any]):
    """The LOS link and the key `_link_key` names for it: of lambda and d,
    and of a set spacing's extent (K - 1) spacing where that exceeds d."""
    from . import mimo_los

    k, d, lam = exp["num_antennas"], exp["distance_m"], cfg.radio.wavelength()
    spacing = exp["spacing"]
    lengths = {"experiment.distance_m": d, "radio.frequency": lam}
    if spacing != "optimal" and (k - 1) * spacing > d:
        lengths["experiment.spacing"] = (k - 1) * spacing
    key = _link_key(lengths)
    with blame(key):  # the path gain, spacing or antenna distances overflow
        if spacing == "optimal":
            spacing = mimo_los.optimal_spacing(k, d, lam)
        return mimo_los.build_los_mimo(k, spacing, d, lam), key


@subcommand("los-capacity", "radio",
            model=(enum("fresnel", "exact"), "fresnel"), **_LINK)
def run_los_capacity(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    from . import mimo_los

    link, key = _los_link(cfg, exp)
    h = link.h_fresnel if exp["model"] == "fresnel" else link.h_exact
    # the eigenvalues of H^H H, descending: the squared singular values of H
    eigenvalues = mimo_los.svd(h, compute_uv=False) ** 2
    with blame(key):  # a stream's SNR overflows
        result = mimo_los.capacity_waterfilling(
            eigenvalues, cfg.radio.snr(), bandwidth=cfg.radio.bandwidth())
    rows = [[i + 1, eigenvalues[i], result.powers[i], result.capacity]
            for i in range(exp["num_antennas"])]
    return CsvSeries(
        ["stream", "eigenvalue", "power_fraction", "capacity_bit_per_s"], rows)


@subcommand("mode-patterns", "radio", num_angles=(count, 361),
            num_modes=(count, 2), **_LINK)
def run_mode_patterns(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    from . import mimo_los

    analysis = mimo_los.mode_analysis(_los_link(cfg, exp)[0],
                                      num_angles=exp["num_angles"])
    n_modes = min(exp["num_modes"], exp["num_antennas"])
    header = ["theta_rad"] + [f"mode_{i}" for i in range(1, n_modes + 1)]
    comments = ["eigenvalue fractions: "
                + ", ".join(_fmt(v) for v in analysis.eigenvalue_fractions)]
    rows = [[theta] + [analysis.patterns[m, i] for m in range(n_modes)]
            for i, theta in enumerate(analysis.angles)]
    return CsvSeries(header, rows, comments)


@subcommand("capacity-vs-bandwidth", "radio", one_of=(("beta", "distance_m"),),
            b_min_hz=(frequency, REQUIRED), b_max_hz=(frequency, REQUIRED),
            points=(count, 200), beta=(positive, None),
            distance_m=(positive, None))
def run_capacity_vs_bandwidth(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    from . import mimo_los

    radio, beta, d = cfg.radio, exp["beta"], exp["distance_m"]
    grid = _log_grid(exp["b_min_hz"], exp["b_max_hz"], exp["points"],
                     "experiment")
    key = "experiment.beta" if beta is not None else _link_key(
        {"experiment.distance_m": d, "radio.frequency": radio.wavelength()})
    with blame(key):  # the path gain, or P beta out of range
        if beta is None:
            beta = mimo_los.free_space_gain(radio.wavelength(), d)
        sweep = mimo_los.capacity_bandwidth_sweep(radio.power_over_noise,
                                                  beta, grid)
    rows = [[b, r, sweep.rate_limit, sweep.bandwidth_80pct]
            for b, r in zip(grid, sweep.rates)]
    return CsvSeries(
        ["bandwidth_hz", "rate_bit_per_s", "rate_limit_bit_per_s",
         "bandwidth_80pct_hz"], rows)


@subcommand("capacity-vs-frequency", "radio", area_m2=(positive, REQUIRED),
            distance_m=(positive, REQUIRED), f_min=(carrier, REQUIRED),
            f_max=(carrier, REQUIRED), points=(count, 100),
            gain_model=(enum("both", "isotropic", "directive"), "both"))
def run_capacity_vs_frequency(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    from . import mimo_los

    freqs = _log_grid(exp["f_min"], exp["f_max"], exp["points"], "experiment")
    model = exp["gain_model"]
    variants = ["isotropic", "directive"] if model == "both" else [model]
    # the path gain, SNR or stream count out of range
    with blame(_link_key({
            "experiment.distance_m": exp["distance_m"],
            "experiment.f_min": wavelength_of(exp["f_min"]),
            "experiment.f_max": wavelength_of(exp["f_max"]),
            "experiment.area_m2": math.sqrt(exp["area_m2"])})):
        sweeps = {variant: mimo_los.capacity_frequency_sweep(
            exp["area_m2"], exp["distance_m"], freqs, cfg.radio,
            directive=variant == "directive") for variant in variants}
    header = ["frequency_hz", "streams"] + [f"capacity_{v}_bit_per_s"
                                            for v in variants]
    rows = [[f, sweeps[variants[0]][i].num_streams]
            + [sweeps[v][i].capacity for v in variants]
            for i, f in enumerate(freqs)]
    return CsvSeries(header, rows)


@subcommand("dof", area_m2=(positive, REQUIRED),
            wavelengths_m=(list_of(positive), ()),
            frequencies=(list_of(carrier), ()))
def run_dof(cfg: RunConfig, exp: Dict[str, Any]) -> CsvSeries:
    from . import mimo_los

    values = [(lam, "wavelengths_m") for lam in exp["wavelengths_m"]] + [
        (f, "frequencies") for f in exp["frequencies"]]
    if not values:
        raise ConfigError("experiment: need wavelengths_m or frequencies")
    area = exp["area_m2"]
    rows = []
    for value, key in values:
        lam = wavelength_of(value) if key == "frequencies" else value
        with blame(f"experiment.{key}"):  # pi A / lambda^2
            rows.append([lam, area, mimo_los.spatial_dof(area, lam)])
    return CsvSeries(["wavelength_m", "area_m2", "dof"], rows)


# ---------------------------------------------------------------------------
# entry point

@functools.lru_cache(maxsize=None)  # RUNNERS is complete once cli is imported
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
    name = args.subcommand
    # each warning printed as one line, not followed by the source line
    # that warned; callers that record warnings still get every one
    saved = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        cfg = load_config(args.config)
        needs, schema = SCHEMAS[name]
        if needs and getattr(cfg, needs) is None:
            raise ConfigError(f"{needs}: missing block, which {name} needs")
        exp = schema.validate(cfg.experiment, "experiment", cfg.units)
        series = RUNNERS[name](cfg, exp)
        series.comments[:0] = [f"nearfield {__version__}",
                               f"subcommand: {name}",
                               f"config-sha256: {cfg.config_hash()}"]
        text = io.StringIO()  # no output file unless every cell is written
        series.write(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (NumericError, MemoryError) as exc:
        print(f"numeric error in {name}: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    finally:
        warnings.formatwarning = saved
    target = args.out if args.out is not None else cfg.output
    if target in (None, "-"):
        sys.stdout.write(text.getvalue())
        return 0
    try:
        with open(target, "w") as fh:
            fh.write(text.getvalue())
    except OSError as exc:
        print(f"config error: cannot write output {target!r}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
