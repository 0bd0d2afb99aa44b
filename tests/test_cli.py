import collections
import contextlib
import copy
import io
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

import nearfield
from nearfield import beam, config, depth_mux, mimo_los
from nearfield.beam import gain_axial
from nearfield.cli import (
    SCHEMAS,
    CsvSeries,
    EXIT_CONFIG_ERROR,
    EXIT_NUMERIC_ERROR,
    RUNNERS,
    NanCellError,
    _link_key,
    compare_golden,
    main,
)
from nearfield.config import ConfigError
from nearfield.numerics import (AccuracyError, BracketError, NumericError,
                                RankError)

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
GOLDENS = REPO / "goldens"

#: config file -> (subcommand, golden file)
CASES = {
    "regions.yaml": ("regions", "regions.csv"),
    "fig4_gain_sweep.yaml": ("gain-sweep", "fig4_gain_sweep.csv"),
    "fig5_beam_width.yaml": ("beam-width", "fig5_beam_width.csv"),
    "fig6_heatmap.yaml": ("heatmap", "fig6_heatmap.csv"),
    "fig7_depth_plan_gains.yaml": ("depth-plan", "fig7_depth_plan_gains.csv"),
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


def plain(x):
    """`x` as an integer mantissa and an exponent, such as `25e-3`: YAML 1.1
    reads that as text, and float() reads it back exactly."""
    mantissa, exponent = f"{x:.16e}".split("e")
    return f"{mantissa.replace('.', '')}e{int(exponent) - 16}"


#: shipped config -> (subcommand, its unit-tagged values respelled as plain
#: numbers in meters and hertz, given the parsed config)
RESPELLED = {
    "fig4_gain_sweep.yaml": ("gain-sweep", lambda cfg: {
        '"3 GHz"': "3e9", '"10 dF"': plain(10 * cfg.bounds.d_f),
        '"100000 dF"': plain(100000 * cfg.bounds.d_f)}),
    "fig5_beam_width.yaml": ("beam-width", lambda cfg: {
        '"3 GHz"': "3e9", '"0.5 m"': "5e-1"}),
    "los_capacity.yaml": ("los-capacity", lambda cfg: {
        '"3 GHz"': "3e9", '"90 MHz"': "9e7"}),
}


def run_subcommand(config, subcommand, out):
    return main([subcommand, "--config", str(config), "--out", str(out)])


def run_cli_process(*args):
    """Exit code and stderr lines of the CLI, writing to stdout, run in a
    fresh interpreter that imports this checkout's nearfield."""
    src = str(Path(nearfield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "nearfield.cli", *args, "--out", "-"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    return result.returncode, result.stderr.splitlines()


#: libyaml's loader and emitter when PyYAML has them: the same trees as its
#: pure-Python ones, several times faster
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
#: edits that rename a key, by appending `_x`, or delete a key or list item
RENAME, DROP = "<rename>", "<drop>"


def holds(node, key):
    """Whether `key` names a slot of the mapping or list `node`."""
    if isinstance(node, list):
        return isinstance(key, int) and key < len(node)
    return isinstance(node, dict) and isinstance(key, str)


def edited(tree, edits):
    """A copy of `tree` with each edit made. An edit is skipped where an
    earlier one replaced or removed its parent, and a rename or deletion
    where there is no key to rename or delete."""
    tree = copy.deepcopy(tree)
    for path, text in edits:
        parent = tree
        for key in path[:-1]:
            if not holds(parent, key):
                parent = None
            else:
                parent = (parent.get(key) if isinstance(parent, dict)
                          else parent[key])
        key = path[-1]
        if not holds(parent, key):
            continue
        if text == DROP:
            if isinstance(parent, list) or key in parent:
                del parent[key]
        elif text == RENAME:
            if isinstance(parent, dict) and key in parent:
                parent[f"{key}_x"] = parent.pop(key)
        else:
            parent[key] = yaml.load(text, Loader=LOADER)
    return tree


def config_text(text, edits):
    """The config text `text` with `edits`, {dotted key: YAML text, or
    DROP}, made; `text` as it is without edits."""
    if not edits:
        return text
    tree = edited(yaml.load(text, Loader=LOADER),
                  [(tuple(key.split(".")), value)
                   for key, value in edits.items()])
    return yaml.dump(tree, Dumper=DUMPER)


def config_with(tmp_path, text, edits):
    """Write `config_text(text, edits)` to a file and return its path."""
    path = tmp_path / "config.yaml"
    path.write_text(config_text(text, edits))
    return path


def blamed(line):
    """(key, message) of a `config error: <key>: <message>` line, the key
    without its item indices; None for any other line."""
    match = re.match(r"config error: (.*?): (.*)", line)
    return match and (re.sub(r"\[\d+\]", "", match[1]), match[2])


BEAM_DEPTH_BASE = """\
geometry:
  rows: 30
  cols: 40
  element_side: "0.25 lambda"
  frequency: "3 GHz"
experiment:
  focal_distances: ["0.1 dFA"]
"""
BEAM_DEPTH = ("beam-depth", BEAM_DEPTH_BASE)

#: YAML values of each leaf kind: (wrong types, out of range)
BAD_VALUES = {
    config.count: (("2.7", "true", '"40"'), ("0", "-1")),
    config.positive: (('"abc"', "true"), ("0", "-1", ".inf")),
    config.non_negative: (('"abc"', "[1]"), ("-1", ".nan")),
    config.number: (("true", "[1]"), (".nan", "-.inf")),
    config.length: (("true", "[1]"), ("0", "-1", ".nan", ".inf")),
    config.frequency: (('"abc"', "true"), ('"0 GHz"', "-.inf")),
    config.carrier: (('"abc"', "true"),
                     ('"0 GHz"', "-.inf", "5.0e-324")),
    config.position: (("[0, 0]", '[0, 0, "x"]'), ("[0, 0, -1]", "[.nan, 0, 1]")),
}


def bad_values(kind):
    """Wrong-type and out-of-range YAML values for a kind of a table."""
    if kind in BAD_VALUES:
        return BAD_VALUES[kind]
    if hasattr(kind, "words"):
        return ("5",), ('"bogus"',)
    if hasattr(kind, "item"):
        item = bad_values(kind.item)[1][0]
        return ("5",), ("[]", "[" + ", ".join([item] * (kind.size or 1)) + "]")
    if hasattr(kind, "word"):
        wrong, out = bad_values(kind.kind)
        return wrong + (f'"{kind.word}x"',), out
    raise KeyError(f"no bad values for kind {kind!r}")


def table_keys(prefix, schema):
    """(dotted key, its one-of partner, kind) for every key, a sub-table's
    keys after it."""
    for key, (kind, _) in schema.keys.items():
        dotted = f"{prefix}.{key}"
        partner = next((a if b == key else b
                        for a, b in schema.one_of if key in (a, b)), None)
        yield dotted, partner, kind
        if isinstance(kind, config.Schema):
            yield from table_keys(dotted, kind)


#: a probe of `main`'s exit contract:
#: - `base`: a shipped config's name, or (subcommand, YAML text), with the
#:   text None for a config file that does not exist;
#: - `edits`: {dotted key: YAML text, or DROP};
#: - `expect`: the key its config error names (`{config}` stands for the
#:   config's path), NUMERIC for a numeric error, or CSV;
#: - `pin`: the error's message after the key or the subcommand, or its
#:   start followed by "...";
#: - `warns`: the messages of the warnings it raises.
Probe = collections.namedtuple("Probe", "id base edits expect pin warns",
                               defaults=(None, ()))
NUMERIC, CSV = "<numeric>", None


def base_of(base):
    """(subcommand, config text) of a probe's base."""
    if isinstance(base, str):
        return CASES[base][0], (CONFIGS / base).read_text()
    return base


def schema_cases():
    """A probe per bad value of every key of every table, with the key's
    one-of partner dropped, and per count at its smallest values 1 and 2,
    so a new key is covered as soon as its table names it."""
    bases = {"beam-depth": BEAM_DEPTH}
    for config_name, (subcommand, _) in CASES.items():
        bases.setdefault(subcommand, config_name)
    # the subcommands whose `points` make a log grid, which needs 2
    log_grids = {"gain-sweep", "depth-plan", "capacity-vs-bandwidth",
                 "capacity-vs-frequency"}
    tables = [("regions", "geometry", config.GEOMETRY),
              ("los-capacity", "radio", config.RADIO)]
    tables += [(name, "experiment", schema)
               for name, (_, schema) in SCHEMAS.items()]
    cases = []
    for subcommand, prefix, schema in tables:
        for key, partner, kind in table_keys(prefix, schema):
            values = (("5",),) if isinstance(kind, config.Schema) \
                else bad_values(kind)
            edits = {f"{key.rpartition('.')[0]}.{partner}": DROP} \
                if partner else {}
            cases += [Probe(f"{subcommand}-{key}-{value}", bases[subcommand],
                            {key: value, **edits}, key)
                      for value in itertools.chain(*values)]
            if kind is not config.count:
                continue
            # regions writes labels, so a gain sweep sizes the geometry
            name = "gain-sweep" if subcommand == "regions" else subcommand
            tree = yaml.load(base_of(bases[name])[1], Loader=LOADER)
            for n in (1, 2):  # the base's own count runs as it is shipped
                short = n < 2 and name in log_grids and key.endswith("points")
                expect = (key, "a log grid needs at least 2 points, got 1") \
                    if short else (CSV,)
                if edited(tree, [(tuple(key.split(".")), str(n))]) != tree:
                    cases.append(Probe(f"{name}-{key}-{n}", bases[name],
                                       {key: str(n)}, *expect))
    return cases


SCHEMA_CASES = schema_cases()


HUGE = "1" + "0" * 400  # YAML reads it as an int float() overflows on
#: two coincident users, which make the ZF Gram matrix singular
COINCIDENT_USERS = ("zf-sinr", 'geometry:\n  rows: 10\n  cols: 10\n'
                    '  element_side: "0.25 lambda"\n  frequency: "3 GHz"\n'
                    'experiment:\n  users: [[0, 0, 1.0], [0, 0, 1.0]]\n'
                    '  noise_power: 1.0e-12\n')
#: the schema cases and the probes of every other exit path, each checked
#: against the whole contract by `TestExitContract`
PROBES = SCHEMA_CASES + [Probe(*row) for row in [
    # missing blocks, unknown keys and files that cannot be read
    ("sweep-no-geometry",
     ("gain-sweep", "experiment:\n  z_min: 1\n  z_max: 2\n"), {}, "geometry"),
    ("regions-no-geometry", ("regions", "experiment: {}\n"), {}, "geometry",
     "missing block..."),
    ("los-no-radio", ("los-capacity", "experiment: {}\n"), {}, "radio",
     "missing block..."),
    ("regions-empty-config", ("regions", ""), {}, "geometry",
     "missing block, which regions needs"),
    ("dof-unknown-key", ("dof", 'experiment:\n  area_m2: 0.5\n  bogus: 1\n'
                                '  frequencies: ["3 GHz"]\n'), {},
     "experiment", "unknown keys ['bogus']"),
    # no radio subcommand reads a gain model from the radio block;
    # capacity-vs-frequency takes it from experiment.gain_model
    *[(f"{name}-radio-{key}-{model}", config_name, {f"radio.{key}": model},
       "radio", f"unknown keys ['{key}']")
      for name, config_name in [
          ("los", "los_capacity.yaml"), ("modes", "fig11_mode_patterns.yaml"),
          ("bandwidth", "fig1_capacity_vs_bandwidth.yaml"),
          ("freq", "fig13_capacity_vs_frequency.yaml")]
      for key in ("tx_gain_model", "rx_gain_model")
      for model in ("directive", "isotropic")],
    ("regions-missing-config", ("regions", None), {},
     "cannot read config {config!r}"),
    ("regions-invalid-yaml", ("regions", "geometry: [\n"), {},
     "config {config!r} is not valid YAML"),
    ("regions-output-5", "regions.yaml", {"output": "5"}, "output",
     "expected a string, got 5"),
    # a unit the geometry block derives cannot size that block; the error
    # must not ask for the geometry block it sits in
    ("regions-wavelength-in-lambda", "regions.yaml",
     {"geometry.wavelength": '"1 lambda"', "geometry.frequency": DROP},
     "geometry.wavelength",
     "the wavelength cannot be given in wavelengths (unit 'lambda')"),
    ("regions-side-in-dF", "regions.yaml",
     {"geometry.element_side": '"1 dF"'}, "geometry.element_side",
     "unit 'dF' is a region bound derived from the geometry block, so it "
     "cannot give the block's own lengths"),
    # values the kinds refuse
    ("sweep-points-abc", "fig4_gain_sweep.yaml",
     {"experiment.points": '"abc"'}, "experiment.points"),
    ("sweep-tol-1e400", "fig4_gain_sweep.yaml", {"experiment.tol": HUGE},
     "experiment.tol"),
    ("sweep-rows-2**62", "fig4_gain_sweep.yaml",
     {"geometry.rows": str(2**62)}, "geometry.rows"),
    ("regions-classify-negative", "regions.yaml",
     {"experiment.classify": "[-1]"}, "experiment.classify"),
    ("regions-classify-1e400", "regions.yaml",
     {"experiment.classify": f"[{HUGE}]"}, "experiment.classify"),
    ("width-focal-negative", "fig5_beam_width.yaml",
     {"experiment.focal_distances": "[-1]"}, "experiment.focal_distances"),
    ("width-x-max-abc", "fig5_beam_width.yaml", {"experiment.x_max": '"abc"'},
     "experiment.x_max", "expected '<number> <unit>'..."),
    ("depth-focal-negative", BEAM_DEPTH,
     {"experiment.focal_distances": "[-1]"}, "experiment.focal_distances"),
    ("g-points-abc", "fig9_g_of_x.yaml", {"experiment.points": '"abc"'},
     "experiment.points"),
    ("g-shapes-abc", "fig9_g_of_x.yaml",
     {"experiment.shapes": '[[10, "abc"]]'}, "experiment.shapes"),
    ("g-shapes-triple", "fig9_g_of_x.yaml",
     {"experiment.shapes": "[[10, 10, 10]]"}, "experiment.shapes"),
    ("plan-grid-points-abc", "fig7_depth_plan_gains.yaml",
     {"experiment.gain_grid.points": '"abc"'}, "experiment.gain_grid.points"),
    ("plan-rows-list", "fig10_depth_plan.yaml", {"geometry.rows": "[1]"},
     "geometry.rows"),
    ("plan-d-min-negative", "fig10_depth_plan.yaml",
     {"experiment.d_min": "-1"}, "experiment.d_min"),
    ("plan-d-min-nan", "fig10_depth_plan.yaml", {"experiment.d_min": ".nan"},
     "experiment.d_min"),
    ("zf-users-pair", "zf_sinr.yaml", {"experiment.users": "[[0, 0]]"},
     "experiment.users"),
    ("zf-users-nan", "zf_sinr.yaml", {"experiment.users": "[[0, 0, .nan]]"},
     "experiment.users"),
    ("los-spacing-negative", "los_capacity.yaml",
     {"experiment.spacing": "-0.1"}, "experiment.spacing"),
    ("los-power-abc", "los_capacity.yaml",
     {"radio.power_over_noise_db": '"abc"'}, "radio.power_over_noise_db"),
    ("bandwidth-fraction-abc", "fig1_capacity_vs_bandwidth.yaml",
     {"radio.bandwidth_fraction": '"abc"'}, "radio.bandwidth_fraction"),
    # counts beyond the complex values one array can hold
    ("heatmap-x-points-2**70", "fig6_heatmap.yaml",
     {"experiment.x_points": str(2**70)}, "experiment.x_points"),
    ("heatmap-z-points-2**62", "fig6_heatmap.yaml",
     {"experiment.z_points": str(2**62)}, "experiment.z_points"),
    ("g-points-2**70", "fig9_g_of_x.yaml", {"experiment.points": str(2**70)},
     "experiment.points"),
    ("modes-angles-2**62", "fig11_mode_patterns.yaml",
     {"experiment.num_angles": str(2**62)}, "experiment.num_angles"),
    # grids and value sets: either end of a log grid can empty its range
    ("sweep-z-min-above-z-max", "fig4_gain_sweep.yaml",
     {"experiment.z_min": '"1e6 dF"'}, "experiment",
     "need min < max, got 24982.7 and 2498.27"),
    ("bandwidth-b-min-at-b-max", "fig1_capacity_vs_bandwidth.yaml",
     {"experiment.b_min_hz": '"100 GHz"'}, "experiment",
     "need min < max, got 1e+11 and 1e+11"),
    ("freq-f-max-at-f-min", "fig13_capacity_vs_frequency.yaml",
     {"experiment.f_max": '"1 GHz"'}, "experiment",
     "need min < max, got 1e+09 and 1e+09"),
    ("plan-grid-z-min-at-z-max", "fig7_depth_plan_gains.yaml",
     {"experiment.gain_grid.z_min": '"2 dFA"'}, "experiment.gain_grid",
     "need min < max, got 3997.23 and 3997.23"),
    ("dof-no-wavelengths", "dof.yaml", {"experiment.frequencies": DROP},
     "experiment", "need wavelengths_m or frequencies"),
    # finite values that the kinds accept but the model cannot use: path
    # gains, power ratios, bandwidths, user distances and degrees of
    # freedom beyond the float range, and focal plans with more points
    # than the array has elements
    ("los-power-1e300", "los_capacity.yaml",
     {"radio.power_over_noise_db": "1e300"}, "radio.power_over_noise_db"),
    ("los-power-minus-1e300", "los_capacity.yaml",
     {"radio.power_over_noise_db": "-1e300"}, "radio.power_over_noise_db"),
    ("los-fraction-1e300", "los_capacity.yaml",
     {"radio.bandwidth_fraction": "1e300", "radio.bandwidth_hz": DROP},
     "radio.bandwidth_fraction"),
    ("los-distance-1e-300", "los_capacity.yaml",
     {"experiment.distance_m": "1e-300"}, "experiment.distance_m"),
    ("los-distance-1e300", "los_capacity.yaml",
     {"experiment.distance_m": "1e300"}, "experiment.distance_m"),
    ("modes-distance-1e-300", "fig11_mode_patterns.yaml",
     {"experiment.distance_m": "1e-300"}, "experiment.distance_m"),
    ("modes-distance-1e300", "fig11_mode_patterns.yaml",
     {"experiment.distance_m": "1e300"}, "experiment.distance_m"),
    ("bandwidth-distance-1e-300", "fig1_capacity_vs_bandwidth.yaml",
     {"experiment.distance_m": "1e-300"}, "experiment.distance_m"),
    ("bandwidth-distance-1e300", "fig1_capacity_vs_bandwidth.yaml",
     {"experiment.distance_m": "1e300"}, "experiment.distance_m"),
    ("bandwidth-beta-1e300", "fig1_capacity_vs_bandwidth.yaml",
     {"experiment.beta": "1e300", "experiment.distance_m": DROP},
     "experiment.beta"),
    ("freq-distance-1e300", "fig13_capacity_vs_frequency.yaml",
     {"experiment.distance_m": "1e300"}, "experiment.distance_m"),
    # the length farthest from 1 m of d, c / f_min, c / f_max and
    # sqrt(area) names the key: the area or the highest frequency drives
    # the stream count past 2^53, and the lowest frequency the path gain
    # (lambda / (4 pi d))^2 beyond the float range
    ("freq-area-1e300", "fig13_capacity_vs_frequency.yaml",
     {"experiment.area_m2": "1.0e+300"}, "experiment.area_m2"),
    ("freq-area-2**62", "fig13_capacity_vs_frequency.yaml",
     {"experiment.area_m2": str(2**62)}, "experiment.area_m2"),
    ("freq-area-2**70", "fig13_capacity_vs_frequency.yaml",
     {"experiment.area_m2": str(2**70)}, "experiment.area_m2"),
    ("freq-f-max-1e300", "fig13_capacity_vs_frequency.yaml",
     {"experiment.f_max": "1.0e+300"}, "experiment.f_max"),
    ("freq-f-min-1e-155", "fig13_capacity_vs_frequency.yaml",
     {"experiment.f_min": "1.0e-155"}, "experiment.f_min"),
    ("freq-f-min-1e-170", "fig13_capacity_vs_frequency.yaml",
     {"experiment.f_min": "1.0e-170"}, "experiment.f_min"),
    ("freq-f-min-1.7e-300", "fig13_capacity_vs_frequency.yaml",
     {"experiment.f_min": "1.7e-300"}, "experiment.f_min"),
    # the log grid's first point 10^log10(f_min) rounds below this f_min,
    # and its c / f overflows
    ("freq-f-min-grid-rounding", "fig13_capacity_vs_frequency.yaml",
     {"experiment.f_min": "1.6676509031835456e-300"}, "experiment.f_min"),
    ("zf-d-min-0.001-dF", "zf_sinr.yaml", {"experiment.d_min": '"0.001 dF"'},
     "experiment.d_min"),
    ("plan-d-min-1e-9-m", "fig10_depth_plan.yaml",
     {"experiment.d_min": '"1e-9 m"'}, "experiment.d_min"),
    ("dof-wavelength-1e-200", "dof.yaml",
     {"experiment.wavelengths_m": "[1.0e-200]"}, "experiment.wavelengths_m"),
    ("dof-wavelength-1e-160", "dof.yaml",
     {"experiment.wavelengths_m": "[1.0e-160]"}, "experiment.wavelengths_m"),
    ("dof-wavelength-1e300", "dof.yaml",
     {"experiment.wavelengths_m": "[1.0e+300]"}, "experiment.wavelengths_m"),
    ("dof-frequency-1e300", "dof.yaml",
     {"experiment.frequencies": '["1.0e+300 Hz"]'}, "experiment.frequencies"),
    # the span 2 x_max of a grid from -x_max to x_max overflows
    ("width-x-max-1e308", "fig5_beam_width.yaml",
     {"experiment.x_max": "1.0e+308"}, "experiment.x_max"),
    ("g-x-max-1e308", "fig9_g_of_x.yaml", {"experiment.x_max": "1.0e+308"},
     "experiment.x_max"),
    ("heatmap-x-max-1e308", "fig6_heatmap.yaml",
     {"experiment.x_max": "1.0e+308"}, "experiment.x_max"),
    # lambda F underflows, and divides the focal-plane sinc arguments
    ("width-focal-5e-324", "fig5_beam_width.yaml",
     {"experiment.focal_distances": "[5.0e-324]"},
     "experiment.focal_distances"),
    # d_F / (8F) overflows, and the interval would read [0, 0]
    ("depth-focal-5e-324", BEAM_DEPTH,
     {"experiment.focal_distances": "[5.0e-324]"},
     "experiment.focal_distances"),
    # a carrier so low that its wavelength c / f overflows
    ("modes-frequency-5e-324", "fig11_mode_patterns.yaml",
     {"radio.frequency": "5.0e-324"}, "radio.frequency"),
    ("bandwidth-frequency-5e-324", "fig1_capacity_vs_bandwidth.yaml",
     {"radio.frequency": "5.0e-324"}, "radio.frequency"),
    ("freq-frequency-5e-324", "fig13_capacity_vs_frequency.yaml",
     {"radio.frequency": "5.0e-324"}, "radio.frequency"),
    ("dof-frequency-5e-324", "dof.yaml",
     {"experiment.frequencies": "[5.0e-324, 3.0e+9]"},
     "experiment.frequencies"),
    # a carrier so high that the path gain (lambda / (4 pi d))^2
    # underflows: lambda is farther from 1 m than d is
    ("los-frequency-1e300", "los_capacity.yaml",
     {"radio.frequency": "1.0e+300"}, "radio.frequency"),
    ("modes-frequency-1e300", "fig11_mode_patterns.yaml",
     {"radio.frequency": "1.0e+300"}, "radio.frequency"),
    ("bandwidth-frequency-1e300", "fig1_capacity_vs_bandwidth.yaml",
     {"radio.frequency": "1.0e+300"}, "radio.frequency"),
    # a set spacing whose array extent makes the antenna distances
    # overflow
    ("los-spacing-1e300", "los_capacity.yaml",
     {"experiment.spacing": "1.0e+300"}, "experiment.spacing"),
    ("modes-spacing-1e300", "fig11_mode_patterns.yaml",
     {"experiment.spacing": "1.0e+300"}, "experiment.spacing"),
    # the SNR P / (N0 B) underflows to 0, or overflows at a narrow
    # bandwidth, by the same radio-block rule in every radio subcommand
    ("los-power-minus-3200", "los_capacity.yaml",
     {"radio.power_over_noise_db": "-3200"}, "radio.power_over_noise_db"),
    ("los-bandwidth-5e-324", "los_capacity.yaml",
     {"radio.bandwidth_hz": "5.0e-324"}, "radio.bandwidth_hz"),
    ("modes-bandwidth-5e-324", "fig11_mode_patterns.yaml",
     {"radio.bandwidth_hz": "5.0e-324"}, "radio.bandwidth_hz"),
    ("bandwidth-hz-5e-324", "fig1_capacity_vs_bandwidth.yaml",
     {"radio.bandwidth_hz": "5.0e-324", "radio.bandwidth_fraction": DROP},
     "radio.bandwidth_hz"),
    ("bandwidth-power-minus-3200", "fig1_capacity_vs_bandwidth.yaml",
     {"radio.power_over_noise_db": "-3200"}, "radio.power_over_noise_db"),
    ("freq-power-minus-3200", "fig13_capacity_vs_frequency.yaml",
     {"radio.power_over_noise_db": "-3200"}, "radio.power_over_noise_db"),
    ("freq-fraction-5e-324", "fig13_capacity_vs_frequency.yaml",
     {"radio.bandwidth_fraction": "5.0e-324"}, "radio.bandwidth_fraction"),
    ("zf-far-user", "zf_sinr.yaml",
     {"experiment.users": "[[1.0e+200, 0, 1], [0, 0, 5]]"},
     "experiment.users"),
    # a user so near that its column's power N (lambda / (4 pi z))^2
    # overflows, for both precoders
    ("zf-near-user", "zf_sinr.yaml",
     {"experiment.users": "[[0, 0, 1.0e-155], [0, 0, 5]]"},
     "experiment.users"),
    ("mf-near-user", "zf_sinr.yaml",
     {"experiment.users": "[[0, 0, 1.0e-155], [0, 0, 5]]",
      "experiment.precoder": "mf"}, "experiment.users"),
    # the SNR times the largest eigenvalue overflows, so log2(1 + SNR)
    # would read inf
    ("los-snr-overflow", "los_capacity.yaml",
     {"experiment.distance_m": "1.0e-155"}, "experiment.distance_m"),
    ("freq-1e-300", "fig13_capacity_vs_frequency.yaml",
     {"experiment.distance_m": "1e-300"}, "experiment.distance_m"),
    # the SNR overflows at the first frequency
    ("freq-1e-150", "fig13_capacity_vs_frequency.yaml",
     {"experiment.distance_m": "1e-150"}, "experiment.distance_m"),
    # with a weak transmitter the stream count passes 2^53 instead
    ("freq-1e-150-weak", "fig13_capacity_vs_frequency.yaml",
     {"experiment.distance_m": "1e-150",
      "radio.power_over_noise_db": "-2000"}, "experiment.distance_m"),
    # a finite path gain and stream count, but an infinite SNR
    ("freq-snr-overflow", "fig13_capacity_vs_frequency.yaml",
     {"experiment.distance_m": "1e-3", "radio.power_over_noise_db": "3070"},
     "experiment.distance_m"),
    # lambda d per stream underflows: lambda near 1e-163 m at f_max is
    # farther from 1 m than d = 1e-140 m
    ("freq-lambda2-underflow", "fig13_capacity_vs_frequency.yaml",
     {"experiment.distance_m": "1.0e-140", "experiment.area_m2": "1.0e-296",
      "experiment.f_min": '"3.0e+171 Hz"', "experiment.f_max": '"3.1e+171 Hz"',
      "experiment.points": "2", "experiment.gain_model": "directive"},
     "experiment.f_max"),
    # lambda d underflows, so the stream-count fit test cannot tell K from
    # K + 1; the count stepped for ever before this exited
    ("freq-stream-count-underflow", "fig13_capacity_vs_frequency.yaml",
     {"experiment.f_min": '"1.5e170 Hz"', "experiment.f_max": '"1.6e170 Hz"',
      "experiment.distance_m": "1.0e-162", "experiment.area_m2": "1.0e-310"},
     "experiment.distance_m"),
    # region bounds beyond the float range: d_N overflows at D^3, and d_F
    # and d_FA underflow to 0
    ("regions-side-1e300", "regions.yaml",
     {"geometry.element_side": "1.0e+300"}, "geometry"),
    ("sweep-side-1e300", "fig4_gain_sweep.yaml",
     {"geometry.element_side": "1.0e+300"}, "geometry"),
    ("regions-side-1e-300", "regions.yaml",
     {"geometry.element_side": "1.0e-300"}, "geometry"),
    ("zf-side-1e-300", "zf_sinr.yaml", {"geometry.element_side": "1.0e-300"},
     "geometry"),
    # d_F is a subnormal, too coarse for the axial gains scaled by it
    ("plan-side-1e-160", "fig7_depth_plan_gains.yaml",
     {"geometry.element_side": "1.0e-160"}, "geometry"),
    # the default d_min, the geometry's d_B, admits more focal points than
    # the array has elements
    ("plan-side-1e6-lambda", "fig10_depth_plan.yaml",
     {"geometry.element_side": '"1.0e+6 lambda"'}, "geometry"),
    # heatmap points whose norm overflows
    ("heatmap-focal-1e300", "fig6_heatmap.yaml",
     {"experiment.focal_distance": "1.0e+300"}, "experiment.focal_distance"),
    ("heatmap-x-1e300", "fig6_heatmap.yaml", {"experiment.x_max": "1.0e+300"},
     "experiment.x_max"),
    ("heatmap-z-min-1e300", "fig6_heatmap.yaml",
     {"experiment.z_min": "1.0e+300"}, "experiment.z_min"),
    ("heatmap-z-max-1e300", "fig6_heatmap.yaml",
     {"experiment.z_max": "1.0e+300"}, "experiment.z_max"),
    # the last point of a log grid rounds past the largest float
    ("sweep-z-max-largest-float", "fig4_gain_sweep.yaml",
     {"experiment.z_max": "1.7976931348623157e+308"}, "experiment"),
    # z (x^2 + z^2) in the exact field's amplitude overflows
    ("sweep-z-max-1e300", "fig4_gain_sweep.yaml",
     {"experiment.z_max": "1.0e+300"}, "experiment.z_max"),
    # d lambda = 1e-310 is a subnormal, too coarse for the Fresnel phases
    # pi delta / (d lambda)
    ("modes-fresnel-scale-1e-310", "fig11_mode_patterns.yaml",
     {"radio.frequency": "2.99792458e+158",
      "experiment.distance_m": "1.0e-160"}, "experiment.distance_m"),
    ("los-fresnel-scale-1e-310", "los_capacity.yaml",
     {"radio.frequency": "2.99792458e+158",
      "experiment.distance_m": "1.0e-160"}, "experiment.distance_m"),
    # a path gain that underflows beside a set spacing whose extent exceeds
    # d: lambda = 3e-292 m is the length farthest from 1 m
    ("los-spacing-path-gain", "los_capacity.yaml",
     {"experiment.spacing": "100", "radio.frequency": "1.0e+300"},
     "radio.frequency"),
    # lambda = 1e250 m at d = 1e100 m: the path gain is finite, but the
    # optimal spacing sqrt(lambda d / K) is not
    ("modes-optimal-spacing-overflow", "fig11_mode_patterns.yaml",
     {"radio.frequency": "2.99792458e-242",
      "experiment.distance_m": "1.0e+100"}, "radio.frequency",
     "distance 1e+100 m times wavelength 1e+250 m puts the optimal spacing "
     "sqrt(lambda d / K) beyond the float range"),
    # numeric failures
    # a 20 lambda element within two wavelengths needs more than order 64
    ("sweep-quadrature-order-64",
     ("gain-sweep", 'geometry:\n  rows: 1\n  cols: 1\n'
                    '  element_side: "20 lambda"\n  frequency: "3 GHz"\n'
                    'experiment:\n  z_min: "1 lambda"\n  z_max: "2 lambda"\n'
                    '  points: 2\n'), {}, NUMERIC),
    ("zf-coincident-users", COINCIDENT_USERS, {}, NUMERIC, None,
     ("duplicate user positions give a rank-deficient channel",)),
    # at z = 1e-154 the column's power is finite, but zero-forcing meets a
    # Gram matrix whose condition number overflows
    ("zf-user-1e-154", "zf_sinr.yaml",
     {"experiment.users": "[[0, 0, 1.0e-154], [0, 0, 5]]"}, NUMERIC),
    # 2^52 rows admit about 8e13 focal points, fewer than the array's
    # elements but beyond any 64-bit address space: the plan's list cannot
    # be allocated, and nothing is built point by point first
    ("plan-rows-2**52", "fig10_depth_plan.yaml",
     {"geometry.rows": str(2**52)}, NUMERIC, "out of memory"),
    ("zf-rows-2**52", "zf_sinr.yaml", {"geometry.rows": str(2**52)}, NUMERIC,
     "out of memory"),
    # 10^15 grid points need 7.1 PiB, beyond any 64-bit address space, so
    # the allocation fails at once
    *[(f"{name}-points-1e15", config_name, {"experiment.points": str(10**15)},
       NUMERIC) for name, config_name in [
          ("sweep", "fig4_gain_sweep.yaml"),
          ("freq", "fig13_capacity_vs_frequency.yaml"),
          ("bandwidth", "fig1_capacity_vs_bandwidth.yaml"),
          ("width", "fig5_beam_width.yaml"), ("g", "fig9_g_of_x.yaml")]],
    # extreme values the model can still evaluate
    # P beta / B overflows at the narrowest bandwidth
    ("bandwidth-overflow", "fig1_capacity_vs_bandwidth.yaml",
     {"experiment.beta": "1e290", "experiment.b_min_hz": '"1e-10 Hz"',
      "experiment.distance_m": DROP}, CSV),
    # the focal-plane gain where pi x D / (lambda F) overflows: 0
    ("focal-plane-5e307", "fig5_beam_width.yaml",
     {"experiment.x_max": "5.0e+307"}, CSV),
    # g and the axial gains at x near the ends of the float range
    ("g-1e-300", "fig9_g_of_x.yaml", {"experiment.x_max": "1.0e-300"}, CSV),
    ("g-1e300", "fig9_g_of_x.yaml", {"experiment.x_max": "1.0e+300"}, CSV),
    ("plan-z-min-1e-300", "fig7_depth_plan_gains.yaml",
     {"experiment.gain_grid.z_min": "1.0e-300"}, CSV),
    ("plan-z-max-1e300", "fig7_depth_plan_gains.yaml",
     {"experiment.gain_grid.z_max": "1.0e+300"}, CSV),
    # 1/z overflows to inf (g = 0), or is a subnormal beside 1/F
    ("plan-z-min-5e-324", "fig7_depth_plan_gains.yaml",
     {"experiment.gain_grid.z_min": "5.0e-324"}, CSV),
    ("plan-z-max-1.7e308", "fig7_depth_plan_gains.yaml",
     {"experiment.gain_grid.z_max": "1.7e+308"}, CSV),
    # signal / (interference + noise) overflows to the SINR cap
    ("zf-noise-5e-324", "zf_sinr.yaml", {"experiment.noise_power": "5.0e-324"},
     CSV),
    ("zf-power-1.7e308", "zf_sinr.yaml",
     {"experiment.total_power": "1.7e+308"}, CSV),
    # a grid point on the centre element of an odd array, where z^2
    # underflows and the element's distance is 0
    ("heatmap-odd-z-min-5e-324", "fig6_heatmap.yaml",
     {"geometry.rows": "3", "geometry.cols": "3", "experiment.x_points": "5",
      "experiment.z_points": "5", "experiment.z_min": "5.0e-324"}, CSV),
    # d lambda = 1e-156 is still a normal float
    ("modes-distance-1e-155", "fig11_mode_patterns.yaml",
     {"experiment.distance_m": "1.0e-155"}, CSV),
]]




class TestCsvSeries:
    def test_write_format(self):
        s = CsvSeries(["a", "b"], [[1, 2.5], [float("inf"), "x"]],
                      comments=["hello"])
        buf = io.StringIO()
        s.write(buf)
        assert buf.getvalue() == "# hello\na,b\n1,2.5\ninf,x\n"

    def test_ragged_row_rejected(self):
        s = CsvSeries(["a"], [[1, 2]])
        with pytest.raises(ValueError):
            s.write(io.StringIO())

    def test_full_precision(self):
        s = CsvSeries(["v"], [[1 / 3]])
        buf = io.StringIO()
        s.write(buf)
        assert "0.333333333333" in buf.getvalue()

    def test_nan_cell_refused_before_writing(self):
        s = CsvSeries(["a", "b"], [[1, 2.0], [3, float("nan")]],
                      comments=["hello"])
        buf = io.StringIO()
        with pytest.raises(NanCellError, match="column b row 1 is nan"):
            s.write(buf)
        assert buf.getvalue() == ""

    def test_nan_cell_exits_numeric_without_output(self, tmp_path, capsys,
                                                  monkeypatch):
        def nan_runner(cfg, exp):
            return CsvSeries(["x_m", "gain"], [[0.0, 1.0], [0.5, np.nan]])

        monkeypatch.setitem(RUNNERS, "heatmap", nan_runner)
        out = tmp_path / "heatmap.csv"
        code = run_subcommand(CONFIGS / "fig6_heatmap.yaml", "heatmap", out)
        assert code == EXIT_NUMERIC_ERROR
        assert capsys.readouterr().err == (
            "numeric error in heatmap: column gain row 1 is nan\n")
        assert not out.exists()


class TestCompareGolden:
    def write_csv(self, path, text):
        path.write_text(text)
        return str(path)

    def test_identical_pass(self, tmp_path):
        a = self.write_csv(tmp_path / "a.csv", "x,y\n1,2\n3,4\n")
        passed, report = compare_golden(a, a, 1e-9)
        assert passed
        assert report[-1] == "PASS"

    def test_within_tolerance(self, tmp_path):
        a = self.write_csv(tmp_path / "a.csv", "x\n1.0000001\n")
        b = self.write_csv(tmp_path / "b.csv", "x\n1.0\n")
        assert compare_golden(a, b, 1e-6)[0]
        assert not compare_golden(a, b, 1e-8)[0]

    def test_header_mismatch(self, tmp_path):
        a = self.write_csv(tmp_path / "a.csv", "x\n1\n")
        b = self.write_csv(tmp_path / "b.csv", "y\n1\n")
        passed, report = compare_golden(a, b, 1e-6)
        assert not passed
        assert "header mismatch" in report[0]

    def test_row_count_mismatch(self, tmp_path):
        a = self.write_csv(tmp_path / "a.csv", "x\n1\n2\n")
        b = self.write_csv(tmp_path / "b.csv", "x\n1\n")
        assert not compare_golden(a, b, 1e-6)[0]

    def test_text_and_inf_cells(self, tmp_path):
        a = self.write_csv(tmp_path / "a.csv", "x,label\ninf,near\n")
        b = self.write_csv(tmp_path / "b.csv", "x,label\ninf,near\n")
        assert compare_golden(a, b, 1e-9)[0]
        c = self.write_csv(tmp_path / "c.csv", "x,label\ninf,far\n")
        assert not compare_golden(a, c, 1e-9)[0]

    def test_comments_ignored(self, tmp_path):
        a = self.write_csv(tmp_path / "a.csv", "# one\nx\n1\n")
        b = self.write_csv(tmp_path / "b.csv", "# another comment\nx\n1\n")
        assert compare_golden(a, b, 1e-9)[0]

    @pytest.mark.parametrize("csv, golden", [
        ("nan", "2"), ("inf", "2"), ("-inf", "2"), ("inf", "1e-300"),
        ("-inf", "1e-300"), ("-inf", "inf"), ("inf", "-inf"), ("0", "inf"),
        ("0", "-inf"), ("nan", "nan"),
    ])
    def test_non_finite_mismatch_fails(self, tmp_path, csv, golden):
        a = self.write_csv(tmp_path / "a.csv", f"x,y\n1,5\n{csv},6\n")
        b = self.write_csv(tmp_path / "b.csv", f"x,y\n1,5\n{golden},6\n")
        for first, second in ((a, b), (b, a)):
            passed, report = compare_golden(first, second, 1e-6)
            assert not passed and report[-1] == "FAIL"
            assert any(line.startswith("column x: non-finite mismatch at "
                                       "row 1") for line in report)

    @pytest.mark.parametrize("row", ["3", "3,4,5"])
    def test_ragged_row_exit_code(self, tmp_path, capsys, row):
        ragged = self.write_csv(tmp_path / "ragged.csv", f"x,y\n1,2\n{row}\n")
        whole = self.write_csv(tmp_path / "whole.csv", "x,y\n1,2\n3,4\n")
        for args in ((ragged, whole), (whole, ragged)):
            assert main(["compare-golden", *args]) == EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert f"{ragged}: row 1 has {len(row.split(','))} cells" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_tol_must_be_finite_non_negative(self, tmp_path, capsys, tol):
        a = self.write_csv(tmp_path / "a.csv", "x\n1\n")
        b = self.write_csv(tmp_path / "b.csv", "x\n5\n")  # 80 % deviation
        for args in ((a, a), (a, b)):
            assert main(["compare-golden", *args, f"--tol={tol}"]) \
                == EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert "tol must be finite and non-negative" in err


class TestGoldenRegeneration:
    @pytest.mark.parametrize("config_name", sorted(CASES))
    def test_matches_golden(self, tmp_path, config_name):
        sub, golden = CASES[config_name]
        out = tmp_path / golden
        assert run_subcommand(CONFIGS / config_name, sub, out) == 0
        passed, report = compare_golden(str(out), str(GOLDENS / golden), 1e-6)
        assert passed, "\n".join(report)

    @pytest.mark.parametrize("config_name", sorted(RESPELLED))
    def test_plain_number_spelling_matches_shipped(self, tmp_path,
                                                   config_name):
        # lengths and frequencies take a number YAML reads as text, such
        # as 3e9, as plain-number keys do; only the config hash differs
        subcommand, spell = RESPELLED[config_name]
        shipped = CONFIGS / config_name
        text = shipped.read_text()
        for old, new in spell(config.load_config(str(shipped))).items():
            assert text.count(old) == 1
            text = text.replace(old, new)
        respelled = tmp_path / config_name
        respelled.write_text(text)
        lines = []
        for cfg in (shipped, respelled):
            out = tmp_path / "out.csv"
            assert run_subcommand(cfg, subcommand, out) == 0
            lines.append([line for line in out.read_text().splitlines()
                          if not line.startswith("# config-sha256: ")])
        assert lines[0] == lines[1]

    def test_byte_identical_rerun(self, tmp_path):
        cfg = CONFIGS / "fig10_depth_plan.yaml"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_subcommand(cfg, "depth-plan", a) == 0
        assert run_subcommand(cfg, "depth-plan", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_heatmap_byte_identical_across_worker_counts(self, tmp_path,
                                                         monkeypatch):
        # The library has no worker knob: a stray NEARFIELD_WORKERS setting
        # must not change a single byte of the heatmap.
        cfg = CONFIGS / "fig6_heatmap.yaml"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("NEARFIELD_WORKERS", "1")
        assert run_subcommand(cfg, "heatmap", a) == 0
        monkeypatch.setenv("NEARFIELD_WORKERS", "4")
        assert run_subcommand(cfg, "heatmap", b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCliBehavior:
    def test_gain_sweep_converges_to_one(self, tmp_path):
        out = tmp_path / "gain.csv"
        assert run_subcommand(CONFIGS / "fig4_gain_sweep.yaml",
                              "gain-sweep", out) == 0
        last = out.read_text().strip().splitlines()[-1]
        assert float(last.split(",")[2]) >= 0.995

    def test_depth_plan_gain_one_call_per_focal_point(self, tmp_path,
                                                      monkeypatch):
        # each focal beam's gain column comes from one call over the z grid
        calls = []

        def counting(geom, focal_distance, z):
            calls.append(np.shape(z))
            return gain_axial(geom, focal_distance, z)

        monkeypatch.setattr(beam, "gain_axial", counting)
        assert run_subcommand(CONFIGS / "fig7_depth_plan_gains.yaml",
                              "depth-plan", tmp_path / "gains.csv") == 0
        assert calls == [(120,)] * 6  # 120 grid points, six focal points

    def test_capacity_at_low_snr(self, tmp_path, capsys):
        # far below eps the rate is linear in the SNR: 10 dB less power
        # gives a tenth of the capacity, not 0
        def capacities(power_db):
            cfg = config_with(tmp_path, (CONFIGS / "fig13_capacity_vs_"
                                         "frequency.yaml").read_text(),
                              {"radio.power_over_noise_db": power_db})
            assert main(["capacity-vs-frequency", "--config", str(cfg),
                         "--out", "-"]) == 0
            _, *rows = [line.split(",") for line in
                        capsys.readouterr().out.splitlines()
                        if not line.startswith("#")]
            return np.array(rows, dtype=float)[:, 2:]

        low, lower = capacities("-290"), capacities("-300")
        assert np.all(lower > 0)
        np.testing.assert_allclose(lower, low / 10.0, rtol=1e-9)

    def test_los_capacity_at_low_snr(self, tmp_path, capsys):
        # at -300 dB every waterfilling floor 1/(snr lam) is far above
        # 1/eps; the streams still share the whole power, and the rate is
        # linear in it: P/N0 lam / ln 2 for the four (near) equal lam
        cfg = config_with(tmp_path, (CONFIGS / "los_capacity.yaml")
                          .read_text(), {"radio.power_over_noise_db": "-300"})
        assert main(["los-capacity", "--config", str(cfg), "--out", "-"]) == 0
        _, *rows = [line.split(",") for line in
                    capsys.readouterr().out.splitlines()
                    if not line.startswith("#")]
        _, eigenvalues, powers, capacity = np.array(rows, dtype=float).T
        assert np.sum(powers) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert np.all(capacity > 0)
        np.testing.assert_allclose(
            capacity, 1e-30 * eigenvalues[0] / np.log(2.0), rtol=1e-9, atol=0)

    def test_capacity_vs_bandwidth_b80(self, tmp_path):
        # fig1's 80 % bandwidth is P beta / y80 = 117422.38863309955 Hz
        # (y80 to 40 digits with mpmath), written as 117422.388633. The
        # golden's 117422.388637 is the old bracketed root (see
        # test_closed_forms.py), within compare-golden's 1e-6
        out = tmp_path / "fig1.csv"
        assert run_subcommand(CONFIGS / "fig1_capacity_vs_bandwidth.yaml",
                              "capacity-vs-bandwidth", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")]
        assert {row[-1] for row in rows[1:]} == {"117422.388633"}

    def test_depth_plan_row_count(self, tmp_path):
        out = tmp_path / "plan.csv"
        assert run_subcommand(CONFIGS / "fig10_depth_plan.yaml",
                              "depth-plan", out) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) - 1 == 6  # header + six focal points

    @pytest.mark.parametrize("model", ["isotropic", "directive"])
    def test_single_gain_model_matches_both(self, tmp_path, capsys, model):
        # one gain model writes, as strings, the cells of its columns in the
        # run with both
        def table(cfg):
            assert main(["capacity-vs-frequency", "--config", str(cfg),
                         "--out", "-"]) == 0
            header, *rows = [line.split(",") for line in
                             capsys.readouterr().out.splitlines()
                             if not line.startswith("#")]
            return [dict(zip(header, row)) for row in rows]

        base = CONFIGS / "fig13_capacity_vs_frequency.yaml"
        both = table(base)
        single = table(config_with(tmp_path, base.read_text(),
                                   {"experiment.gain_model": model}))
        columns = ["frequency_hz", "streams", f"capacity_{model}_bit_per_s"]
        assert list(single[0]) == columns
        assert single == [{c: row[c] for c in columns} for row in both]

    def test_los_capacity_exact_model(self, tmp_path, capsys):
        # model: exact waterfills the eigenvalues of the exact channel
        cfg = config_with(tmp_path, (CONFIGS / "los_capacity.yaml")
                          .read_text(), {"experiment.model": "exact"})
        assert main(["los-capacity", "--config", str(cfg), "--out", "-"]) == 0
        _, *rows = [line.split(",") for line in
                    capsys.readouterr().out.splitlines()
                    if not line.startswith("#")]
        run = config.load_config(str(cfg))
        k, d = run.experiment["num_antennas"], run.experiment["distance_m"]
        lam, b = run.radio.wavelength(), run.radio.bandwidth()
        link = mimo_los.build_los_mimo(
            k, mimo_los.optimal_spacing(k, d, lam), d, lam)
        eigenvalues = mimo_los.svd(link.h_exact, compute_uv=False) ** 2
        result = mimo_los.capacity_waterfilling(
            eigenvalues, run.radio.power_over_noise / b, bandwidth=b)
        assert [row[1] for row in rows] == [f"{v:.12g}" for v in eigenvalues]
        assert {row[3] for row in rows} == {f"{result.capacity:.12g}"}

    def test_depth_plan_exact_depth_parameter(self, tmp_path, capsys):
        # depth_parameter: exact plans with the solved a3dB of the shape
        cfg = config_with(tmp_path, (CONFIGS / "fig10_depth_plan.yaml")
                          .read_text(),
                          {"experiment.depth_parameter": "exact"})
        assert main(["depth-plan", "--config", str(cfg), "--out", "-"]) == 0
        _, *rows = [line.split(",") for line in
                    capsys.readouterr().out.splitlines()
                    if not line.startswith("#")]
        geom = config.load_config(str(cfg)).geometry
        plan = depth_mux.plan_depth_focal_points(
            geom, a3db=beam.solve_a3db(geom.rows, geom.cols))
        assert rows == [[str(i), *(f"{v:.12g}" for v in (f, lo, hi))]
                        for i, (f, (lo, hi)) in enumerate(
                            zip(plan.focal_points, plan.intervals), start=1)]

    def test_stdout_output(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("experiment:\n  area_m2: 0.5\n"
                       "  frequencies: [\"3 GHz\"]\n")
        assert main(["dof", "--config", str(cfg), "--out", "-"]) == 0
        captured = capsys.readouterr().out
        assert "wavelength_m,area_m2,dof" in captured

    def test_config_output_field_used(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("experiment:\n  area_m2: 0.5\n"
                       "  frequencies: [\"3 GHz\"]\noutput: from_field.csv\n")
        assert main(["dof", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_field.csv").exists()


    def test_null_experiment_runs_regions(self, tmp_path, capsys):
        # an empty experiment block: the bounds, and nothing classified
        cfg = config_with(tmp_path, (CONFIGS / "regions.yaml").read_text(),
                          {"experiment": "null"})
        assert main(["regions", "--config", str(cfg), "--out", "-"]) == 0
        rows = [r for r in capsys.readouterr().out.splitlines()
                if not r.startswith("#")]
        assert [r.split(",")[0] for r in rows] == [
            "quantity", "d_n", "d_f", "d_b", "d_fa"]

    def test_user_at_amplitude_limit(self, tmp_path, capsys):
        # at z = 1e-154 the column's power is finite, and the matched filter
        # still resolves both users (zero-forcing exits 3: `zf-user-1e-154`)
        cfg = config_with(tmp_path, (CONFIGS / "zf_sinr.yaml").read_text(), {
            "experiment.users": "[[0, 0, 1.0e-154], [0, 0, 5]]",
            "experiment.precoder": "mf"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["zf-sinr", "--config", str(cfg), "--out", "-"])
        assert rc == 0
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.err == ""
        _, *rows = [line for line in captured.out.splitlines()
                    if not line.startswith("#")]
        sinr = [float(row.split(",")[4]) for row in rows]
        np.testing.assert_allclose(sinr, [40965.7858767, 40965.6531887],
                                   rtol=1e-9)

    def test_link_key_names_the_length_farthest_from_1_m(self):
        # by ratio, above or below 1 m; an infinite length wins, and a tie
        # names the first key
        assert _link_key({"d": 10.0, "lambda": 1e-3}) == "lambda"
        assert _link_key({"d": 1e3, "lambda": 0.1}) == "d"
        assert _link_key({"d": 1e300, "f": math.inf, "a": 5e-324}) == "f"
        assert _link_key({"d": 2.0, "lambda": 0.5}) == "d"

    def test_readme_lists_every_subcommand(self):
        # the README's `Subcommands:` sentence names each runner and
        # compare-golden once, so a subcommand added or renamed fails here
        readme = (REPO / "README.md").read_text()
        sentence = re.search(r"^Subcommands: (.*?):$", readme, re.M | re.S)
        assert sorted(re.findall(r"`([a-z-]+)`", sentence[1])) \
            == sorted([*RUNNERS, "compare-golden"])

    @pytest.mark.parametrize("config_name,subcommand,routine", [
        ("los_capacity.yaml", "los-capacity", "svd"),
        ("fig11_mode_patterns.yaml", "mode-patterns", "svd"),
        ("zf_sinr.yaml", "zf-sinr", "inv")])
    def test_linalg_failure_exit_code(self, capsys, monkeypatch, config_name,
                                      subcommand, routine):
        # a LAPACK failure reaches main as the library's own numeric error
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{routine} did not converge")
        monkeypatch.setattr(np.linalg, routine, fail)
        assert main([subcommand, "--config", str(CONFIGS / config_name),
                     "--out", "-"]) == EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"numeric error in {subcommand}: ")
        assert captured.out == ""

    def test_numeric_error_inside_blame_exit_code(self, capsys, monkeypatch):
        # a numeric failure in a block that names a key still exits 3
        def fail(*args, **kwargs):
            raise RankError("channel Gram matrix is singular")
        monkeypatch.setattr(depth_mux, "build_mu_channel", fail)
        assert main(["zf-sinr", "--config", str(CONFIGS / "zf_sinr.yaml"),
                     "--out", "-"]) == EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        assert captured.err == ("numeric error in zf-sinr: channel Gram "
                                "matrix is singular\n")
        assert captured.out == ""

    @pytest.mark.parametrize("error", [AccuracyError, BracketError, RankError,
                                       NanCellError])
    def test_exit_codes_follow_types(self, error):
        # exit 3 is the NumericError family, exit 2 ConfigError, and a
        # ValueError (a rejected argument) is neither
        assert issubclass(error, NumericError)
        assert not issubclass(error, ValueError)
        assert not issubclass(ConfigError, (ValueError, NumericError))

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dof.csv"
        assert run_subcommand(CONFIGS / "dof.yaml", "dof", out) \
            == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("config error: ")
        assert str(out) in line
        assert captured.out == ""

    def test_beam_depth(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(BEAM_DEPTH_BASE)
        assert main(["beam-depth", "--config", str(cfg), "--out", "-"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "focal_m,z_lo_m,z_hi_m,bd_3db_m,bw_3db_m,a_3db"
        assert len(lines) == 2

    def test_gain_above_its_bound_exit_code(self, capsys, monkeypatch):
        # element integrals 1 % too large break the gain's Cauchy-Schwarz
        # bound at fig4's far points
        from nearfield import field

        exact = field.element_field_integrals

        def inflated(geom, z, tol=1e-8):
            return 1.01 * exact(geom, z, tol=tol)

        monkeypatch.setattr(field, "element_field_integrals", inflated)
        assert main(["gain-sweep", "--config",
                     str(CONFIGS / "fig4_gain_sweep.yaml"), "--out", "-"]) \
            == EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("numeric error in gain-sweep: exact gain ")
        assert "Cauchy-Schwarz bound" in line
        assert captured.out == ""

    def test_compare_golden_subcommand(self, tmp_path, capsys):
        golden = GOLDENS / "dof.csv"
        local = tmp_path / "dof.csv"
        shutil.copy(golden, local)
        assert main(["compare-golden", str(local), str(golden)]) == 0
        assert "PASS" in capsys.readouterr().out
        # perturb one value -> exit 1
        text = local.read_text().replace("0.5", "0.51", 1)
        local.write_text(text)
        assert main(["compare-golden", str(local), str(golden),
                     "--tol", "1e-6"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_golden_headerless_file_exit_code(self, tmp_path, capsys):
        # a file of comment lines only has no header to compare by
        comments = tmp_path / "comments.csv"
        comments.write_text("# nearfield dof\n# config_hash 0\n")
        assert main(["compare-golden", str(comments),
                     str(GOLDENS / "dof.csv")]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert f"{comments}: no CSV header found" in captured.err
        assert "Traceback" not in captured.err

    def test_compare_golden_missing_file_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["compare-golden", str(missing),
                     str(GOLDENS / "dof.csv")]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert "Traceback" not in captured.err

    def test_library_warning_one_stderr_line(self, tmp_path):
        # a warning reaches stderr as one line, without the source line of
        # the CLI call that warned
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(COINCIDENT_USERS[1])
        rc, err = run_cli_process("zf-sinr", "--config", str(cfg))
        assert rc == EXIT_NUMERIC_ERROR
        assert len(err) == 2
        assert err[0] == ("warning: duplicate user positions give a "
                          "rank-deficient channel")
        assert err[1].startswith("numeric error in zf-sinr: ")
        cfg = config_with(tmp_path,
                          (CONFIGS / "fig10_depth_plan.yaml").read_text(),
                          {"experiment.d_min": '"0.5 dB"'})
        rc, more = run_cli_process("depth-plan", "--config", str(cfg))
        assert rc == 0
        [line] = more
        assert line.startswith("warning: d_min below d_B: ")
        assert not [line for line in err + more if "cli.py" in line]

    def test_main_leaves_warnings_to_recording_callers(self, tmp_path, capsys):
        # main changes only how a warning is printed, and restores that
        cfg = config_with(tmp_path,
                          (CONFIGS / "fig10_depth_plan.yaml").read_text(),
                          {"experiment.d_min": '"0.5 dB"'})
        formatwarning = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["depth-plan", "--config", str(cfg), "--out", "-"]) \
                == 0
        assert [str(w.message)[:17] for w in caught] == ["d_min below d_B: "]
        assert warnings.formatwarning is formatwarning
        assert capsys.readouterr().err == ""


class TestExitContract:
    @pytest.mark.parametrize("probe", PROBES, ids=[p.id for p in PROBES])
    def test_probe(self, tmp_path, capsys, time_limit, probe):
        # within 10 s, exit 0 with a CSV of finite numbers and nothing on
        # stderr, or exit 2 or 3 with one stderr line and nothing on stdout;
        # the probe's warnings are the only ones
        subcommand, text = base_of(probe.base)
        cfg = tmp_path / "config.yaml"
        if text is not None:
            cfg.write_text(config_text(text, probe.edits))
        with time_limit(10), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([subcommand, "--config", str(cfg), "--out", "-"])
        out, err = capsys.readouterr()
        assert [str(w.message) for w in caught] == list(probe.warns)
        if probe.expect is CSV:
            assert (rc, err) == (0, "")
            _, *rows = [line for line in out.splitlines()
                        if not line.startswith("#")]
            cells = [float(cell) for row in rows for cell in row.split(",")]
            assert cells and all(map(math.isfinite, cells))
            return
        assert out == ""
        [line] = err.splitlines()
        if probe.expect is NUMERIC:
            assert rc == EXIT_NUMERIC_ERROR
            prefix = f"numeric error in {subcommand}: "
            assert line.startswith(prefix), line
            message = line[len(prefix):]
        else:
            assert rc == EXIT_CONFIG_ERROR
            assert blamed(line), line
            key, message = blamed(line)
            assert key == probe.expect.format(config=str(cfg)), line
        if probe.pin and probe.pin.endswith("..."):
            assert message.startswith(probe.pin[:-3]), line
        elif probe.pin:
            assert message == probe.pin, line

    def test_probes_are_distinct(self):
        # one id per probe, and one probe per config a subcommand runs, so
        # a guard's new probe cannot repeat an old one
        ids = collections.Counter(probe.id for probe in PROBES)
        assert [name for name, n in ids.items() if n > 1] == []
        runs = collections.defaultdict(list)
        for probe in PROBES:
            subcommand, text = base_of(probe.base)
            runs[subcommand, config_text(text, probe.edits)].append(probe.id)
        assert [same for same in runs.values() if len(same) > 1] == []


# ---------------------------------------------------------------------------
# fuzzed configs

#: YAML values at the edges of each kind: non-finite, beyond and at the
#: ends of the float range, zero and negative (-3200 dB is a subnormal
#: power ratio), integers past the count limit, and values of the wrong
#: type or nesting. As counts they are small or invalid, so no case builds
#: a large array.
EDGE_VALUES = (".nan", ".inf", "-.inf", "1.0e+300", "5.0e-324", "1.0e-155",
               "1.0e-170", "0", "-1", "-3200", "1", "2", str(2**62),
               str(2**70), "true", '"3 parsecs"', "[1]", "[[1]]", "[]", "{}",
               "{a: 1}")


def edit_paths(schema, node, prefix):
    """The paths a fuzzed edit may set under `prefix`: every key of the
    table `schema`, set or not, and every item of the lists it sets (each
    coordinate of a user position, each value of a list)."""
    for key, (kind, _) in schema.keys.items():
        path = prefix + (key,)
        yield path
        if not isinstance(node, dict) or key not in node:
            continue
        if isinstance(kind, config.Schema):
            yield from edit_paths(kind, node[key], path)
        else:
            yield from item_paths(node[key], path)


def item_paths(value, prefix):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield prefix + (i,)
            yield from item_paths(item, prefix + (i,))


def fuzz_bases():
    """(subcommand, config tree, edit paths) for every shipped config, the
    beam-depth base, and a zf-sinr config with its users given."""
    texts = [(subcommand, (CONFIGS / name).read_text())
             for name, (subcommand, _) in CASES.items()]
    texts.append(("beam-depth", BEAM_DEPTH_BASE))
    users = yaml.load((CONFIGS / "zf_sinr.yaml").read_text(), Loader=LOADER)
    users["experiment"]["users"] = [[0.0, 0.0, 2.0], [0.5, -0.25, 5.0]]
    texts.append(("zf-sinr", yaml.dump(users, Dumper=DUMPER)))
    bases = []
    for subcommand, text in texts:
        tree = yaml.load(text, Loader=LOADER)
        needs, schema = SCHEMAS[subcommand]
        tables = [("experiment", schema)]
        tables += [(block, table) for block, table in (
            ("geometry", config.GEOMETRY), ("radio", config.RADIO))
            if block == needs]
        paths = [(block,) for block, _ in tables]
        paths += [path for block, table in tables
                  for path in edit_paths(table, tree.get(block), (block,))]
        bases.append((subcommand, tree, paths))
    return bases


FUZZ_BASES = fuzz_bases()


@st.composite
def fuzzed_configs(draw):
    """A base config and one or two edits of it: (path, YAML value, or
    RENAME or DROP)."""
    index = draw(st.integers(0, len(FUZZ_BASES) - 1))
    paths = draw(st.lists(st.sampled_from(FUZZ_BASES[index][2]), min_size=1,
                          max_size=2, unique=True))
    return index, [(path, draw(st.sampled_from(EDGE_VALUES + (RENAME, DROP))))
                   for path in paths]



#: the zf-sinr base with its users given
USERS_BASE = len(FUZZ_BASES) - 1
REGIONS_BASE = [subcommand for subcommand, _, _ in FUZZ_BASES].index("regions")
LOS_BASE = [subcommand for subcommand, _, _ in FUZZ_BASES].index("los-capacity")


#: the bases of the single-edit audit: the radio subcommands, dof and the
#: quick geometry ones
AUDITED = ("los-capacity", "mode-patterns", "capacity-vs-bandwidth",
           "capacity-vs-frequency", "dof", "regions", "beam-width", "g-of-x",
           "beam-depth")
#: (subcommand, edited key, value) of the single edits whose config error
#: names a key the edit did not touch: none, since every radio subcommand
#: names the length of its link farthest from 1 m (`cli._link_key`)
MISATTRIBUTED = set()


class TestFuzzedConfigs:
    def test_single_edits_name_the_edited_key(self, time_limit, tmp_path):
        # every single edit of an audited base that exits 2 names the
        # edited key, one of its blocks or the config root, but for the
        # listed cases: a fix, or a new fault, changes the set
        cfg = tmp_path / "edited.yaml"
        found = set()
        with time_limit(30):
            for subcommand, tree, paths in FUZZ_BASES:
                if subcommand not in AUDITED:
                    continue
                for path in paths:
                    key = ".".join(k for k in path if isinstance(k, str))
                    for text in EDGE_VALUES + (RENAME, DROP):
                        cfg.write_text(yaml.dump(edited(tree, [(path, text)]),
                                                 Dumper=DUMPER))
                        err = io.StringIO()
                        with contextlib.redirect_stdout(io.StringIO()), \
                                contextlib.redirect_stderr(err):
                            rc = main([subcommand, "--config", str(cfg),
                                       "--out", "-"])
                        if rc != EXIT_CONFIG_ERROR:
                            continue
                        named, _ = blamed(err.getvalue())
                        if named != "config root" \
                                and not f"{key}.".startswith(f"{named}."):
                            found.add((subcommand, key, text))
        assert found == MISATTRIBUTED

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=fuzzed_configs())
    # a user so near the array that its column's power overflows
    @example(case=(USERS_BASE, [(("experiment", "users", 0, 2), "1.0e-170")]))
    @example(case=(USERS_BASE, [(("experiment", "users", 1, 2), "5.0e-324"),
                                (("experiment", "precoder"), "mf")]))
    @example(case=(REGIONS_BASE, [(("geometry",), DROP)]))
    # a carrier whose wavelength c / f overflows
    @example(case=(LOS_BASE, [(("radio", "frequency"), "5.0e-324")]))
    def test_edge_values_exit_cleanly(self, time_limit, case):
        # exit 0, 2 or 3, with nothing raised out of main, no numpy
        # warning, and no nan in a CSV that is written; a config error
        # starts with the root, a block or a key of the edit paths
        index, edits = case
        subcommand, tree, paths = FUZZ_BASES[index]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "fuzzed.yaml"
            cfg.write_text(yaml.dump(edited(tree, edits), Dumper=DUMPER))
            with time_limit(10), warnings.catch_warnings(record=True) as \
                    caught, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                rc = main([subcommand, "--config", str(cfg), "--out", "-"])
        assert rc in (0, EXIT_CONFIG_ERROR, EXIT_NUMERIC_ERROR), err.getvalue()
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        if rc == 0:
            cells = [cell for line in out.getvalue().splitlines()
                     if not line.startswith("#") for cell in line.split(",")]
            assert "nan" not in cells
        else:
            [line] = err.getvalue().splitlines()
        if rc == EXIT_CONFIG_ERROR:
            assert blamed(line), line
            keys = {"config root"} | {".".join(k for k in path
                                               if isinstance(k, str))
                                      for path in paths}
            assert blamed(line)[0] in keys, line

