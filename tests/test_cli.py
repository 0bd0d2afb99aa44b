import contextlib
import copy
import io
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


def config_with(tmp_path, base, key, value, drop=None):
    """Write the config text `base` with the dotted `key` set to the YAML
    text `value`, and its sibling key `drop` removed."""
    tree = yaml.load(base, Loader=LOADER)
    *blocks, leaf = key.split(".")
    node = tree
    for name in blocks:
        node = node[name]
    node[leaf] = yaml.load(value, Loader=LOADER)
    node.pop(drop, None)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.dump(tree, Dumper=DUMPER))
    return path


def assert_config_error(capsys, subcommand, cfg, key):
    assert main([subcommand, "--config", str(cfg), "--out", "-"]) \
        == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert key in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


BEAM_DEPTH_BASE = """\
geometry:
  rows: 30
  cols: 40
  element_side: "0.25 lambda"
  frequency: "3 GHz"
experiment:
  focal_distances: ["0.1 dFA"]
"""

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


def table_cases(prefix, schema):
    """(dotted key, its one-of partner, bad value) for every key."""
    for key, (kind, _) in schema.keys.items():
        dotted = f"{prefix}.{key}"
        partner = next((a if b == key else b
                        for a, b in schema.one_of if key in (a, b)), None)
        if isinstance(kind, config.Schema):
            yield dotted, partner, "5"
            yield from table_cases(dotted, kind)
            continue
        for values in bad_values(kind):
            for value in values:
                yield dotted, partner, value


def schema_cases():
    bases = {"beam-depth": BEAM_DEPTH_BASE}
    for config_name, (subcommand, _) in CASES.items():
        bases.setdefault(subcommand, (CONFIGS / config_name).read_text())
    tables = [("regions", "geometry", config.GEOMETRY),
              ("los-capacity", "radio", config.RADIO)]
    tables += [(name, "experiment", schema)
               for name, (_, schema) in SCHEMAS.items()]
    cases = []
    for subcommand, prefix, schema in tables:
        for key, drop, value in table_cases(prefix, schema):
            cases.append((f"{subcommand}-{key}-{value}", subcommand,
                          bases[subcommand], key, value, drop))
    return cases


SCHEMA_CASES = schema_cases()


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
                              "radio.power_over_noise_db", power_db)
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
                          .read_text(), "radio.power_over_noise_db", "-300")
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
                                   "experiment.gain_model", model))
        columns = ["frequency_hz", "streams", f"capacity_{model}_bit_per_s"]
        assert list(single[0]) == columns
        assert single == [{c: row[c] for c in columns} for row in both]

    def test_los_capacity_exact_model(self, tmp_path, capsys):
        # model: exact waterfills the eigenvalues of the exact channel
        cfg = config_with(tmp_path, (CONFIGS / "los_capacity.yaml")
                          .read_text(), "experiment.model", "exact")
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
                          .read_text(), "experiment.depth_parameter", "exact")
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

    def test_missing_geometry_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("experiment:\n  z_min: 1\n  z_max: 2\n")
        assert main(["gain-sweep", "--config", str(cfg), "--out", "-"]) \
            == EXIT_CONFIG_ERROR
        assert "geometry" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand,block", [("regions", "geometry"),
                                                  ("los-capacity", "radio")])
    def test_missing_block_error_starts_with_it(self, tmp_path, capsys,
                                                subcommand, block):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("experiment: {}\n")
        assert main([subcommand, "--config", str(cfg), "--out", "-"]) \
            == EXIT_CONFIG_ERROR
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: {block}: missing block")

    def test_unknown_experiment_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("experiment:\n  area_m2: 0.5\n  bogus: 1\n"
                       "  frequencies: [\"3 GHz\"]\n")
        assert main(["dof", "--config", str(cfg), "--out", "-"]) \
            == EXIT_CONFIG_ERROR
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("z_min", ".nan"), ("z_max", ".inf"), ("z_min", "0"),
        ("focal_distance", "-1"), ("focal_distance", ".inf"),
        ("x_max", ".nan"),
    ])
    def test_heatmap_invalid_length_exit_code(self, tmp_path, capsys, key,
                                              value):
        lengths = {"focal_distance": "1", "x_max": "0.1", "z_min": "0.5",
                   "z_max": "2", key: value}
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "geometry:\n  rows: 4\n  cols: 4\n"
            "  element_side: \"0.25 lambda\"\n  frequency: \"3 GHz\"\n"
            "experiment:\n"
            + "".join(f"  {k}: {v}\n" for k, v in lengths.items()))
        assert main(["heatmap", "--config", str(cfg), "--out", "-"]) \
            == EXIT_CONFIG_ERROR
        assert f"experiment.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("config_name,subcommand", [
        ("los_capacity.yaml", "los-capacity"),
        ("fig11_mode_patterns.yaml", "mode-patterns"),
        ("fig1_capacity_vs_bandwidth.yaml", "capacity-vs-bandwidth"),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency"),
    ])
    @pytest.mark.parametrize("key", ["tx_gain_model", "rx_gain_model"])
    @pytest.mark.parametrize("model", ["directive", "isotropic"])
    def test_radio_gain_model_key_exit_code(self, tmp_path, capsys,
                                            config_name, subcommand, key,
                                            model):
        # no radio subcommand reads a gain model from the radio block;
        # capacity-vs-frequency takes it from experiment.gain_model
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text((CONFIGS / config_name).read_text().replace(
            "radio:\n", f"radio:\n  {key}: {model}\n", 1))
        assert main([subcommand, "--config", str(cfg), "--out", "-"]) \
            == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.splitlines() \
            == [f"config error: radio: unknown keys ['{key}']"]
        assert captured.out == ""

    @pytest.mark.parametrize("config_name,subcommand,key,value", [
        ("fig4_gain_sweep.yaml", "gain-sweep", "points", '"abc"'),
        ("fig4_gain_sweep.yaml", "gain-sweep", "z_max", ".inf"),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "area_m2", "-1"),
        ("los_capacity.yaml", "los-capacity", "num_antennas", "0"),
        ("fig9_g_of_x.yaml", "g-of-x", "x_max", '"abc"'),
        ("fig9_g_of_x.yaml", "g-of-x", "points", '"abc"'),
        ("fig9_g_of_x.yaml", "g-of-x", "shapes", '[[10, "abc"]]'),
        ("fig9_g_of_x.yaml", "g-of-x", "shapes", "[[10, 10, 10]]"),
        ("fig7_depth_plan_gains.yaml", "depth-plan", "gain_grid.points",
         '"abc"'),
        ("fig7_depth_plan_gains.yaml", "depth-plan", "gain_grid.z_max",
         ".inf"),
        ("zf_sinr.yaml", "zf-sinr", "noise_power", "-1"),
        ("zf_sinr.yaml", "zf-sinr", "total_power", '"abc"'),
        ("zf_sinr.yaml", "zf-sinr", "users", "[[0, 0]]"),
        ("los_capacity.yaml", "los-capacity", "spacing", "-0.1"),
        ("fig5_beam_width.yaml", "beam-width", "focal_distances", "5"),
        ("fig5_beam_width.yaml", "beam-width", "focal_distances", "[-1]"),
        ("fig5_beam_width.yaml", "beam-width", "x_max", ".inf"),
        ("regions.yaml", "regions", "classify", "5"),
        ("regions.yaml", "regions", "classify", "[-1]"),
        ("zf_sinr.yaml", "zf-sinr", "users", "[[0, 0, -1]]"),
        ("zf_sinr.yaml", "zf-sinr", "users", "[[0, 0, .nan]]"),
        ("zf_sinr.yaml", "zf-sinr", "d_min", "-1"),
        ("dof.yaml", "dof", "frequencies", '["0 GHz"]'),
        ("dof.yaml", "dof", "frequencies", "5"),
        ("fig4_gain_sweep.yaml", "gain-sweep", "points", "2.7"),
        ("fig10_depth_plan.yaml", "depth-plan", "d_min", "-1"),
        ("fig10_depth_plan.yaml", "depth-plan", "d_min", ".nan"),
        # counts beyond the complex values one array can hold
        ("fig6_heatmap.yaml", "heatmap", "x_points", str(2**70)),
        ("fig9_g_of_x.yaml", "g-of-x", "points", str(2**70)),
        ("fig6_heatmap.yaml", "heatmap", "z_points", str(2**62)),
        ("fig11_mode_patterns.yaml", "mode-patterns", "num_angles",
         str(2**62)),
    ])
    def test_invalid_experiment_value_exit_code(self, tmp_path, capsys,
                                                config_name, subcommand, key,
                                                value):
        cfg = config_with(tmp_path, (CONFIGS / config_name).read_text(),
                          f"experiment.{key}", value)
        assert_config_error(capsys, subcommand, cfg, f"experiment.{key}")

    @pytest.mark.parametrize("config_name,subcommand,key,value", [
        ("los_capacity.yaml", "los-capacity", "radio.power_over_noise_db",
         '"abc"'),
        ("fig10_depth_plan.yaml", "depth-plan", "geometry.rows", "[1]"),
        ("fig1_capacity_vs_bandwidth.yaml", "capacity-vs-bandwidth",
         "radio.bandwidth_fraction", '"abc"'),
        ("regions.yaml", "regions", "geometry.frequency", '"0 GHz"'),
        ("regions.yaml", "regions", "geometry.rows", "2.7"),
        ("regions.yaml", "regions", "geometry.wavelength", ".nan"),
        ("fig4_gain_sweep.yaml", "gain-sweep", "geometry.rows", str(2**62)),
    ])
    def test_invalid_block_value_exit_code(self, tmp_path, capsys,
                                           config_name, subcommand, key,
                                           value):
        drop = "frequency" if key == "geometry.wavelength" else None
        cfg = config_with(tmp_path, (CONFIGS / config_name).read_text(), key,
                          value, drop)
        assert_config_error(capsys, subcommand, cfg, key)

    @pytest.mark.parametrize("key,value,drop,message", [
        ("geometry.wavelength", '"1 lambda"', "frequency",
         "the wavelength cannot be given in wavelengths (unit 'lambda')"),
        ("geometry.element_side", '"1 dF"', None,
         "unit 'dF' is a region bound derived from the geometry block, so "
         "it cannot give the block's own lengths"),
    ])
    def test_geometry_unit_inside_geometry_one_line(self, tmp_path, capsys,
                                                    key, value, drop,
                                                    message):
        # a unit the geometry block derives cannot size that block; the
        # error must not ask for the geometry block it sits in
        cfg = config_with(tmp_path, (CONFIGS / "regions.yaml").read_text(),
                          key, value, drop)
        assert main(["regions", "--config", str(cfg), "--out", "-"]) \
            == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"config error: {key}: {message}"]
        assert captured.out == ""

    @pytest.mark.parametrize("config_name,subcommand,key,value,drop,line", [
        ("fig4_gain_sweep.yaml", "gain-sweep", "experiment.z_min",
         '"1e6 dF"', None, "experiment: need min < max and at least 2 points"),
        ("dof.yaml", "dof", "experiment.area_m2", "0.5", "frequencies",
         "experiment: need wavelengths_m or frequencies"),
        ("regions.yaml", "regions", "output", "5", None,
         "output: expected a string, got 5"),
    ])
    def test_config_error_one_line(self, tmp_path, capsys, config_name,
                                   subcommand, key, value, drop, line):
        cfg = config_with(tmp_path, (CONFIGS / config_name).read_text(), key,
                          value, drop)
        assert main([subcommand, "--config", str(cfg), "--out", "-"]) \
            == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"config error: {line}"]
        assert captured.out == ""

    def test_empty_config_names_the_missing_geometry(self, tmp_path, capsys):
        cfg = tmp_path / "empty.yaml"
        cfg.write_text("")
        assert main(["regions", "--config", str(cfg), "--out", "-"]) \
            == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.splitlines() == [
            "config error: geometry: missing block, which regions needs"]

    def test_null_experiment_runs_regions(self, tmp_path, capsys):
        # an empty experiment block: the bounds, and nothing classified
        cfg = config_with(tmp_path, (CONFIGS / "regions.yaml").read_text(),
                          "experiment", "null")
        assert main(["regions", "--config", str(cfg), "--out", "-"]) == 0
        rows = [r for r in capsys.readouterr().out.splitlines()
                if not r.startswith("#")]
        assert [r.split(",")[0] for r in rows] == [
            "quantity", "d_n", "d_f", "d_b", "d_fa"]

    @pytest.mark.parametrize("config_name,subcommand,key,value,drop", [
        ("los_capacity.yaml", "los-capacity", "radio.power_over_noise_db",
         "1e300", None),
        ("los_capacity.yaml", "los-capacity", "radio.power_over_noise_db",
         "-1e300", None),
        ("los_capacity.yaml", "los-capacity", "radio.bandwidth_fraction",
         "1e300", "bandwidth_hz"),
        ("los_capacity.yaml", "los-capacity", "experiment.distance_m",
         "1e-300", None),
        ("los_capacity.yaml", "los-capacity", "experiment.distance_m",
         "1e300", None),
        ("fig11_mode_patterns.yaml", "mode-patterns", "experiment.distance_m",
         "1e-300", None),
        ("fig11_mode_patterns.yaml", "mode-patterns", "experiment.distance_m",
         "1e300", None),
        ("fig1_capacity_vs_bandwidth.yaml", "capacity-vs-bandwidth",
         "experiment.distance_m", "1e-300", None),
        ("fig1_capacity_vs_bandwidth.yaml", "capacity-vs-bandwidth",
         "experiment.distance_m", "1e300", None),
        ("fig1_capacity_vs_bandwidth.yaml", "capacity-vs-bandwidth",
         "experiment.beta", "1e300", "distance_m"),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.distance_m", "1e300", None),
        # the length farthest from 1 m of d, c / f_min, c / f_max and
        # sqrt(area) names the key: the area or the highest frequency
        # drives the stream count past 2^53, and the lowest frequency the
        # path gain (lambda / (4 pi d))^2 beyond the float range
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.area_m2", "1.0e+300", None),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.area_m2", str(2**62), None),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.area_m2", str(2**70), None),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.f_max", "1.0e+300", None),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.f_min", "1.0e-155", None),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.f_min", "1.0e-170", None),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.f_min", "1.7e-300", None),
        # the log grid's first point 10^log10(f_min) rounds below this
        # f_min, and its c / f overflows
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.f_min", "1.6676509031835456e-300", None),
        ("zf_sinr.yaml", "zf-sinr", "experiment.d_min", '"0.001 dF"', None),
        ("zf_sinr.yaml", "zf-sinr", "experiment.users",
         "[[1.0e+200, 0, 1], [0, 0, 5]]", None),
        ("zf_sinr.yaml", "zf-sinr", "experiment.users",
         "[[0, 0, 1.0e-155], [0, 0, 5]]", None),
        ("fig10_depth_plan.yaml", "depth-plan", "experiment.d_min",
         '"1e-9 m"', None),
        ("dof.yaml", "dof", "experiment.wavelengths_m", "[1.0e-200]", None),
        ("dof.yaml", "dof", "experiment.wavelengths_m", "[1.0e-160]", None),
        ("dof.yaml", "dof", "experiment.wavelengths_m", "[1.0e+300]", None),
        ("dof.yaml", "dof", "experiment.frequencies", '["1.0e+300 Hz"]',
         None),
        # the span 2 x_max of a grid from -x_max to x_max overflows
        ("fig5_beam_width.yaml", "beam-width", "experiment.x_max", "1.0e+308",
         None),
        ("fig9_g_of_x.yaml", "g-of-x", "experiment.x_max", "1.0e+308", None),
        ("fig6_heatmap.yaml", "heatmap", "experiment.x_max", "1.0e+308", None),
        # lambda F underflows, and divides the focal-plane sinc arguments
        ("fig5_beam_width.yaml", "beam-width", "experiment.focal_distances",
         "[5.0e-324]", None),
        # a carrier so low that its wavelength c / f overflows
        ("los_capacity.yaml", "los-capacity", "radio.frequency", "5.0e-324",
         None),
        ("fig11_mode_patterns.yaml", "mode-patterns", "radio.frequency",
         "5.0e-324", None),
        ("fig1_capacity_vs_bandwidth.yaml", "capacity-vs-bandwidth",
         "radio.frequency", "5.0e-324", None),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "radio.frequency", "5.0e-324", None),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.f_min", "5.0e-324", None),
        ("regions.yaml", "regions", "geometry.frequency", "5.0e-324", None),
        ("dof.yaml", "dof", "experiment.frequencies", "[5.0e-324, 3.0e+9]",
         None),
        # a carrier so high that the path gain (lambda / (4 pi d))^2
        # underflows: lambda is farther from 1 m than d is
        ("los_capacity.yaml", "los-capacity", "radio.frequency", "1.0e+300",
         None),
        ("fig11_mode_patterns.yaml", "mode-patterns", "radio.frequency",
         "1.0e+300", None),
        ("fig1_capacity_vs_bandwidth.yaml", "capacity-vs-bandwidth",
         "radio.frequency", "1.0e+300", None),
        # a set spacing whose array extent makes the antenna distances
        # overflow
        ("los_capacity.yaml", "los-capacity", "experiment.spacing",
         "1.0e+300", None),
        ("fig11_mode_patterns.yaml", "mode-patterns", "experiment.spacing",
         "1.0e+300", None),
        # the SNR P / (N0 B) underflows to 0, or overflows at a narrow
        # bandwidth
        ("los_capacity.yaml", "los-capacity", "radio.power_over_noise_db",
         "-3200", None),
        ("los_capacity.yaml", "los-capacity", "radio.bandwidth_hz",
         "5.0e-324", None),
        # the same radio-block rule in every radio subcommand
        ("fig11_mode_patterns.yaml", "mode-patterns", "radio.bandwidth_hz",
         "5.0e-324", "bandwidth_fraction"),
        ("fig1_capacity_vs_bandwidth.yaml", "capacity-vs-bandwidth",
         "radio.bandwidth_hz", "5.0e-324", "bandwidth_fraction"),
        ("fig1_capacity_vs_bandwidth.yaml", "capacity-vs-bandwidth",
         "radio.power_over_noise_db", "-3200", None),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "radio.power_over_noise_db", "-3200", None),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "radio.bandwidth_fraction", "5.0e-324", None),
    ])
    def test_value_beyond_model_range_exit_code(self, tmp_path, capsys,
                                                config_name, subcommand, key,
                                                value, drop):
        # finite values that the kinds accept but the model cannot use:
        # path gains, power ratios, bandwidths, user distances and degrees
        # of freedom beyond the float range, and focal plans with more
        # points than the array has elements
        cfg = config_with(tmp_path, (CONFIGS / config_name).read_text(), key,
                          value, drop)
        assert_config_error(capsys, subcommand, cfg, key)

    @pytest.mark.parametrize("config_name,subcommand,key,edits", [
        ("zf_sinr.yaml", "zf-sinr", "experiment.users",
         {"experiment.users": "[[1.0e+200, 0, 1], [0, 0, 5]]"}),
        # a user so near that its column's power N (lambda / (4 pi z))^2
        # overflows, for both precoders
        ("zf_sinr.yaml", "zf-sinr", "experiment.users",
         {"experiment.users": "[[0, 0, 1.0e-155], [0, 0, 5]]"}),
        ("zf_sinr.yaml", "zf-sinr", "experiment.users",
         {"experiment.users": "[[0, 0, 1.0e-155], [0, 0, 5]]",
          "experiment.precoder": "mf"}),
        # the SNR times the largest eigenvalue overflows, so log2(1 + SNR)
        # would read inf
        ("los_capacity.yaml", "los-capacity", "experiment.distance_m",
         {"experiment.distance_m": "1.0e-155"}),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.distance_m", {"experiment.distance_m": "1e-300"}),
        # the SNR overflows at the first frequency
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.distance_m", {"experiment.distance_m": "1e-150"}),
        # with a weak transmitter the stream count passes 2^53 instead
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.distance_m", {"experiment.distance_m": "1e-150",
                                   "radio.power_over_noise_db": "-2000"}),
        # a finite path gain and stream count, but an infinite SNR
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.distance_m", {"experiment.distance_m": "1e-3",
                                   "radio.power_over_noise_db": "3070"}),
        # lambda d per stream underflows: lambda near 1e-163 m at f_max is
        # farther from 1 m than d = 1e-140 m
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency",
         "experiment.f_max", {"experiment.distance_m": "1.0e-140",
                                   "experiment.area_m2": "1.0e-296",
                                   "experiment.f_min": '"3.0e+171 Hz"',
                                   "experiment.f_max": '"3.1e+171 Hz"',
                                   "experiment.points": "2",
                                   "experiment.gain_model": "directive"}),
        # region bounds beyond the float range: d_N overflows at D^3, and
        # d_F and d_FA underflow to 0
        ("regions.yaml", "regions", "geometry",
         {"geometry.element_side": "1.0e+300"}),
        ("fig4_gain_sweep.yaml", "gain-sweep", "geometry",
         {"geometry.element_side": "1.0e+300"}),
        ("regions.yaml", "regions", "geometry",
         {"geometry.element_side": "1.0e-300"}),
        ("zf_sinr.yaml", "zf-sinr", "geometry",
         {"geometry.element_side": "1.0e-300"}),
        # d_F is a subnormal, too coarse for the axial gains scaled by it
        ("fig7_depth_plan_gains.yaml", "depth-plan", "geometry",
         {"geometry.element_side": "1.0e-160"}),
        # the default d_min, the geometry's d_B, admits more focal points
        # than the array has elements
        ("fig10_depth_plan.yaml", "depth-plan", "geometry",
         {"geometry.element_side": '"1.0e+6 lambda"'}),
        # heatmap points whose norm overflows
        ("fig6_heatmap.yaml", "heatmap", "experiment.focal_distance",
         {"experiment.focal_distance": "1.0e+300"}),
        ("fig6_heatmap.yaml", "heatmap", "experiment.x_max",
         {"experiment.x_max": "1.0e+300"}),
        ("fig6_heatmap.yaml", "heatmap", "experiment.z_min",
         {"experiment.z_min": "1.0e+300"}),
        ("fig6_heatmap.yaml", "heatmap", "experiment.z_max",
         {"experiment.z_max": "1.0e+300"}),
        # the last point of a log grid rounds past the largest float
        ("fig4_gain_sweep.yaml", "gain-sweep", "experiment",
         {"experiment.z_max": "1.7976931348623157e+308"}),
        # z (x^2 + z^2) in the exact field's amplitude overflows
        ("fig4_gain_sweep.yaml", "gain-sweep", "experiment.z_max",
         {"experiment.z_max": "1.0e+300"}),
        # d lambda = 1e-310 is a subnormal, too coarse for the Fresnel
        # phases pi delta / (d lambda)
        ("fig11_mode_patterns.yaml", "mode-patterns", "experiment.distance_m",
         {"radio.frequency": "2.99792458e+158",
          "experiment.distance_m": "1.0e-160"}),
        ("los_capacity.yaml", "los-capacity", "experiment.distance_m",
         {"radio.frequency": "2.99792458e+158",
          "experiment.distance_m": "1.0e-160"}),
        # a path gain that underflows beside a set spacing whose extent
        # exceeds d: lambda = 3e-292 m is the length farthest from 1 m
        ("los_capacity.yaml", "los-capacity", "radio.frequency",
         {"experiment.spacing": "100", "radio.frequency": "1.0e+300"}),
    ], ids=["zf-far-user", "zf-near-user", "mf-near-user", "los-snr-overflow",
            "freq-1e-300", "freq-1e-150", "freq-1e-150-weak",
            "freq-snr-overflow", "freq-lambda2-underflow", "regions-side-1e300", "sweep-side-1e300",
            "regions-side-1e-300", "zf-side-1e-300", "plan-side-1e-160",
            "plan-side-1e6-lambda",
            "heatmap-focal-1e300",
            "heatmap-x-1e300", "heatmap-z-min-1e300", "heatmap-z-max-1e300",
            "sweep-z-max-largest-float", "sweep-z-max-1e300",
            "modes-fresnel-scale-1e-310", "los-fresnel-scale-1e-310",
            "los-spacing-path-gain"])
    def test_value_beyond_model_range_one_line(self, tmp_path, capsys,
                                               config_name, subcommand, key,
                                               edits):
        # the config error is all that reaches stderr: no numpy warning
        cfg = CONFIGS / config_name
        for edit_key, value in edits.items():
            cfg = config_with(tmp_path, cfg.read_text(), edit_key, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([subcommand, "--config", str(cfg), "--out", "-"])
        assert rc == EXIT_CONFIG_ERROR
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"config error: {key}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("config_name,subcommand,edits,drop", [
        # P beta / B overflows at the narrowest bandwidth
        ("fig1_capacity_vs_bandwidth.yaml", "capacity-vs-bandwidth",
         {"experiment.beta": "1e290", "experiment.b_min_hz": '"1e-10 Hz"'},
         "distance_m"),
        # the focal-plane gain where pi x D / (lambda F) overflows: 0
        ("fig5_beam_width.yaml", "beam-width",
         {"experiment.x_max": "5.0e+307"}, None),
        # g and the axial gains at x near the ends of the float range
        ("fig9_g_of_x.yaml", "g-of-x", {"experiment.x_max": "1.0e-300"},
         None),
        ("fig9_g_of_x.yaml", "g-of-x", {"experiment.x_max": "1.0e+300"},
         None),
        ("fig7_depth_plan_gains.yaml", "depth-plan",
         {"experiment.gain_grid.z_min": "1.0e-300"}, None),
        ("fig7_depth_plan_gains.yaml", "depth-plan",
         {"experiment.gain_grid.z_max": "1.0e+300"}, None),
        # 1/z overflows to inf (g = 0), or is a subnormal beside 1/F
        ("fig7_depth_plan_gains.yaml", "depth-plan",
         {"experiment.gain_grid.z_min": "5.0e-324"}, None),
        ("fig7_depth_plan_gains.yaml", "depth-plan",
         {"experiment.gain_grid.z_max": "1.7e+308"}, None),
        # signal / (interference + noise) overflows to the SINR cap
        ("zf_sinr.yaml", "zf-sinr", {"experiment.noise_power": "5.0e-324"},
         None),
        ("zf_sinr.yaml", "zf-sinr", {"experiment.total_power": "1.7e+308"},
         None),
        # a grid point on the centre element of an odd array, where z^2
        # underflows and the element's distance is 0
        ("fig6_heatmap.yaml", "heatmap",
         {"geometry.rows": "3", "geometry.cols": "3",
          "experiment.x_points": "5", "experiment.z_points": "5",
          "experiment.z_min": "5.0e-324"}, None),
        # d lambda = 1e-156 is still a normal float
        ("fig11_mode_patterns.yaml", "mode-patterns",
         {"experiment.distance_m": "1.0e-155"}, None),
    ], ids=["bandwidth-overflow", "focal-plane-5e307", "g-1e-300", "g-1e300",
            "plan-z-min-1e-300",
            "plan-z-max-1e300", "plan-z-min-5e-324", "plan-z-max-1.7e308",
            "zf-noise-5e-324", "zf-power-1.7e308", "heatmap-odd-z-min-5e-324",
            "modes-distance-1e-155"])
    def test_value_near_model_range_finite_csv(self, tmp_path, capsys,
                                               config_name, subcommand,
                                               edits, drop):
        # extreme values the model can still evaluate: a CSV of finite
        # numbers, with nothing on stderr
        cfg = CONFIGS / config_name
        for edit_key, value in edits.items():
            cfg = config_with(tmp_path, cfg.read_text(), edit_key, value, drop)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([subcommand, "--config", str(cfg), "--out", "-"])
        assert rc == 0
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.err == ""
        _, *rows = [line for line in captured.out.splitlines()
                    if not line.startswith("#")]
        values = np.array([line.split(",") for line in rows], dtype=float)
        assert values.size and np.all(np.isfinite(values))

    def test_user_at_amplitude_limit(self, tmp_path, capsys):
        # at z = 1e-154 the column's power is finite: the matched filter
        # still resolves both users, and zero-forcing meets a Gram matrix
        # whose condition number overflows
        cfg = config_with(tmp_path, (CONFIGS / "zf_sinr.yaml").read_text(),
                          "experiment.users", "[[0, 0, 1.0e-154], [0, 0, 5]]")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["zf-sinr", "--config", str(cfg), "--out", "-"])
        assert rc == EXIT_NUMERIC_ERROR
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("numeric error in zf-sinr: ")
        cfg = config_with(tmp_path, cfg.read_text(), "experiment.precoder",
                          "mf")
        with warnings.catch_warnings(record=True) as more:
            warnings.simplefilter("always")
            rc = main(["zf-sinr", "--config", str(cfg), "--out", "-"])
        assert rc == 0
        assert [str(w.message) for w in caught + more] == []
        captured = capsys.readouterr()
        assert captured.err == ""
        _, *rows = [line for line in captured.out.splitlines()
                    if not line.startswith("#")]
        sinr = [float(row.split(",")[4]) for row in rows]
        np.testing.assert_allclose(sinr, [40965.7858767, 40965.6531887],
                                   rtol=1e-9)

    def test_optimal_spacing_overflow_names_it(self, tmp_path, capsys):
        # lambda = 1e250 m at d = 1e100 m: the path gain is finite, but the
        # optimal spacing sqrt(lambda d / K) is not
        cfg = CONFIGS / "fig11_mode_patterns.yaml"
        for key, value in {"radio.frequency": "2.99792458e-242",
                           "experiment.distance_m": "1.0e+100"}.items():
            cfg = config_with(tmp_path, cfg.read_text(), key, value)
        assert main(["mode-patterns", "--config", str(cfg), "--out", "-"]) \
            == EXIT_CONFIG_ERROR
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: radio.frequency: ")
        assert "optimal spacing" in line

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

    def test_stream_count_underflow_exit_code(self, tmp_path, capsys,
                                              time_limit):
        # lambda d underflows, so the stream-count fit test cannot tell K
        # from K + 1; the count stepped for ever before this exited
        cfg = CONFIGS / "fig13_capacity_vs_frequency.yaml"
        for key, value in {"experiment.f_min": '"1.5e170 Hz"',
                           "experiment.f_max": '"1.6e170 Hz"',
                           "experiment.distance_m": "1.0e-162",
                           "experiment.area_m2": "1.0e-310"}.items():
            cfg = config_with(tmp_path, cfg.read_text(), key, value)
        with time_limit(10):
            assert_config_error(capsys, "capacity-vs-frequency", cfg,
                                "experiment.distance_m")

    @pytest.mark.parametrize("config_name,subcommand", [
        ("fig10_depth_plan.yaml", "depth-plan"),
        ("zf_sinr.yaml", "zf-sinr")])
    def test_plan_too_large_for_memory_exit_code(self, tmp_path, capsys,
                                                 time_limit, config_name,
                                                 subcommand):
        # 2^52 rows admit about 8e13 focal points, fewer than the array's
        # elements but beyond any 64-bit address space: the plan's list
        # cannot be allocated, and nothing is built point by point first
        cfg = config_with(tmp_path, (CONFIGS / config_name).read_text(),
                          "geometry.rows", str(2**52))
        with time_limit(10):
            rc = main([subcommand, "--config", str(cfg), "--out", "-"])
        assert rc == EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"numeric error in {subcommand}: out of memory"]
        assert captured.out == ""

    @pytest.mark.parametrize("config_name,subcommand", [
        ("fig4_gain_sweep.yaml", "gain-sweep"),
        ("fig13_capacity_vs_frequency.yaml", "capacity-vs-frequency"),
        ("fig1_capacity_vs_bandwidth.yaml", "capacity-vs-bandwidth"),
        ("fig5_beam_width.yaml", "beam-width"),
        ("fig9_g_of_x.yaml", "g-of-x")])
    def test_result_too_large_for_memory_exit_code(self, tmp_path, capsys,
                                                   time_limit, config_name,
                                                   subcommand):
        # 10^15 grid points need 7.1 PiB, beyond any 64-bit address space,
        # so the allocation fails at once
        cfg = config_with(tmp_path, (CONFIGS / config_name).read_text(),
                          "experiment.points", str(10**15))
        with time_limit(10):
            rc = main([subcommand, "--config", str(cfg), "--out", "-"])
        assert rc == EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"numeric error in {subcommand}: ")
        assert captured.out == ""

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

    @pytest.mark.parametrize("case", SCHEMA_CASES,
                             ids=[case[0] for case in SCHEMA_CASES])
    def test_schema_value_exit_code(self, tmp_path, capsys, case):
        # one case per bad value of every key of every table, so a new key
        # is covered as soon as its table names it
        _, subcommand, base, key, value, drop = case
        cfg = config_with(tmp_path, base, key, value, drop)
        assert_config_error(capsys, subcommand, cfg, key)

    def test_integer_beyond_float_range_exit_code(self, tmp_path, capsys):
        huge = "1" + "0" * 400  # YAML reads it as an int float() overflows on
        for config_name, subcommand, key, value in [
                ("fig4_gain_sweep.yaml", "gain-sweep", "tol", huge),
                ("regions.yaml", "regions", "classify", f"[{huge}]")]:
            cfg = config_with(tmp_path, (CONFIGS / config_name).read_text(),
                              f"experiment.{key}", value)
            assert_config_error(capsys, subcommand, cfg, f"experiment.{key}")

    def test_quantity_error_names_key(self, tmp_path, capsys):
        cfg = config_with(tmp_path, (CONFIGS / "fig5_beam_width.yaml")
                          .read_text(), "experiment.x_max", '"abc"')
        assert main(["beam-width", "--config", str(cfg), "--out", "-"]) \
            == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(
            "config error: experiment.x_max: expected '<number> <unit>'")

    def test_beam_depth(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(BEAM_DEPTH_BASE)
        assert main(["beam-depth", "--config", str(cfg), "--out", "-"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "focal_m,z_lo_m,z_hi_m,bd_3db_m,bw_3db_m,a_3db"
        assert len(lines) == 2
        # at 5e-324, d_F / (8F) overflows and the interval would read [0, 0]
        for focal_distances in ("[-1]", "[5.0e-324]"):
            cfg = config_with(tmp_path, BEAM_DEPTH_BASE,
                              "experiment.focal_distances", focal_distances)
            assert_config_error(capsys, "beam-depth", cfg,
                                "experiment.focal_distances")

    def test_quadrature_not_converged_exit_code(self, tmp_path, capsys):
        # a 20 lambda element within two wavelengths needs more than order 64
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "geometry:\n  rows: 1\n  cols: 1\n"
            "  element_side: \"20 lambda\"\n  frequency: \"3 GHz\"\n"
            "experiment:\n  z_min: \"1 lambda\"\n  z_max: \"2 lambda\"\n"
            "  points: 2\n")
        assert main(["gain-sweep", "--config", str(cfg), "--out", "-"]) \
            == EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        assert "gain-sweep" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

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

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        # two coincident users make the ZF Gram matrix singular
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "geometry:\n  rows: 10\n  cols: 10\n"
            "  element_side: \"0.25 lambda\"\n  frequency: \"3 GHz\"\n"
            "experiment:\n  users: [[0, 0, 1.0], [0, 0, 1.0]]\n"
            "  noise_power: 1.0e-12\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["zf-sinr", "--config", str(cfg), "--out", "-"])
        assert rc == EXIT_NUMERIC_ERROR
        assert "zf-sinr" in capsys.readouterr().err

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
        cfg.write_text(
            "geometry:\n  rows: 10\n  cols: 10\n"
            "  element_side: \"0.25 lambda\"\n  frequency: \"3 GHz\"\n"
            "experiment:\n  users: [[0, 0, 1.0], [0, 0, 1.0]]\n"
            "  noise_power: 1.0e-12\n")
        rc, err = run_cli_process("zf-sinr", "--config", str(cfg))
        assert rc == EXIT_NUMERIC_ERROR
        assert len(err) == 2
        assert err[0] == ("warning: duplicate user positions give a "
                          "rank-deficient channel")
        assert err[1].startswith("numeric error in zf-sinr: ")
        cfg = config_with(tmp_path,
                          (CONFIGS / "fig10_depth_plan.yaml").read_text(),
                          "experiment.d_min", '"0.5 dB"')
        rc, more = run_cli_process("depth-plan", "--config", str(cfg))
        assert rc == 0
        [line] = more
        assert line.startswith("warning: d_min below d_B: ")
        assert not [line for line in err + more if "cli.py" in line]

    def test_main_leaves_warnings_to_recording_callers(self, tmp_path, capsys):
        # main changes only how a warning is printed, and restores that
        cfg = config_with(tmp_path,
                          (CONFIGS / "fig10_depth_plan.yaml").read_text(),
                          "experiment.d_min", '"0.5 dB"')
        formatwarning = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["depth-plan", "--config", str(cfg), "--out", "-"]) \
                == 0
        assert [str(w.message)[:17] for w in caught] == ["d_min below d_B: "]
        assert warnings.formatwarning is formatwarning
        assert capsys.readouterr().err == ""


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
#: edits that rename a key, by appending `_x`, or delete a key or list item
RENAME, DROP = "<rename>", "<drop>"


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
                        blamed = re.sub(r"\[\d+\]", "", re.match(
                            r"config error: (.*?): ", err.getvalue())[1])
                        if blamed != "config root" \
                                and not f"{key}.".startswith(f"{blamed}."):
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
            blamed = re.match(r"config error: (.*?): ", line)
            assert blamed, line
            keys = {"config root"} | {".".join(k for k in path
                                               if isinstance(k, str))
                                      for path in paths}
            assert re.sub(r"\[\d+\]", "", blamed[1]) in keys, line
