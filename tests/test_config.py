import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from nearfield import config
from nearfield.config import (
    LENGTH_UNITS,
    ConfigError,
    frequency,
    length,
    load_config,
)
from nearfield.numerics import BracketError, RankError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)


GEOMETRY = """\
geometry:
  rows: 30
  cols: 40
  element_side: "0.25 lambda"
  frequency: "3 GHz"
"""


def write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestQuantityParsing:
    def test_frequency_units(self):
        assert frequency("3 GHz", "t", LENGTH_UNITS) == pytest.approx(3e9)
        assert frequency("250 kHz", "t", LENGTH_UNITS) == pytest.approx(250e3)
        assert frequency(1.5e6, "t", LENGTH_UNITS) == 1.5e6

    def test_frequency_errors(self):
        with pytest.raises(ConfigError):
            frequency("3 parsecs", "t", LENGTH_UNITS)
        with pytest.raises(ConfigError):
            frequency("fast", "t", LENGTH_UNITS)

    def test_length_plain_and_units(self):
        assert length(2.5, "t", LENGTH_UNITS) == 2.5
        assert length("30 cm", "t", LENGTH_UNITS) == pytest.approx(0.3)
        assert length("2 km", "t", LENGTH_UNITS) == pytest.approx(2000.0)
        # "inf" is a number to the parser, and out of range for the kind
        assert config._quantity(None)("inf", "t", LENGTH_UNITS) == math.inf
        with pytest.raises(ConfigError, match="must be finite and positive"):
            length("inf", "t", LENGTH_UNITS)

    def test_length_lambda_units(self):
        units = {**LENGTH_UNITS, "lambda": 0.1}
        assert length("0.25 lambda", "t", units) == pytest.approx(0.025)
        with pytest.raises(ConfigError, match="needs a geometry block"):
            length("0.25 lambda", "t", LENGTH_UNITS)
        with pytest.raises(ConfigError, match="'dF' needs a geometry block"):
            length("1 dF", "t", LENGTH_UNITS)

    def test_length_boundary_units(self, tmp_path):
        cfg = load_config(write(tmp_path, GEOMETRY))
        b = cfg.bounds
        assert length("10 dF", "t", cfg.units) == pytest.approx(10 * b.d_f)
        assert length("0.04 dFA", "t", cfg.units) == pytest.approx(0.04 * b.d_fa)
        assert length("1 dB", "t", cfg.units) == pytest.approx(b.d_b)
        assert length("2 dN", "t", cfg.units) == pytest.approx(2 * b.d_n)

    def test_length_errors(self):
        with pytest.raises(ConfigError):
            length("1 furlong", "t", LENGTH_UNITS)
        with pytest.raises(ConfigError):
            length([1], "t", LENGTH_UNITS)


class TestLoadConfig:
    def test_geometry_block(self, tmp_path):
        cfg = load_config(write(tmp_path, GEOMETRY))
        g = cfg.geometry
        assert (g.rows, g.cols) == (30, 40)
        lam = 299792458.0 / 3e9
        assert g.wavelength == pytest.approx(lam)
        assert g.element_side == pytest.approx(lam / 4)

    def test_wavelength_instead_of_frequency(self, tmp_path):
        text = GEOMETRY.replace('frequency: "3 GHz"', 'wavelength: "10 cm"')
        cfg = load_config(write(tmp_path, text))
        assert cfg.geometry.wavelength == pytest.approx(0.1)

    def test_both_wavelength_and_frequency_rejected(self, tmp_path):
        text = GEOMETRY + '  wavelength: "10 cm"\n'
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    def test_radio_block(self, tmp_path):
        text = ("radio:\n  frequency: \"3 GHz\"\n"
                "  power_over_noise_db: 110\n  bandwidth_hz: \"20 MHz\"\n")
        cfg = load_config(write(tmp_path, text))
        assert cfg.radio.bandwidth() == pytest.approx(20e6)
        assert cfg.radio.power_over_noise_db == 110

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write(tmp_path, GEOMETRY + "typo_block: 1\n"))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write(tmp_path,
                              GEOMETRY.replace("rows: 30", "rows: 30\n  rws: 3")))

    def test_missing_geometry_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="element_side"):
            load_config(write(tmp_path,
                              "geometry:\n  rows: 4\n  cols: 4\n"
                              "  frequency: \"3 GHz\"\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.yaml"))

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "geometry: [unclosed\n"))

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"geometry:\n  rows: \xff\xfe\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(str(path))

    def test_bounds_requires_geometry(self, tmp_path):
        cfg = load_config(write(tmp_path, "experiment: {}\n"))
        with pytest.raises(ConfigError):
            cfg.bounds

    def test_hash_stable_and_sensitive(self, tmp_path):
        a = load_config(write(tmp_path, GEOMETRY, "a.yaml")).config_hash()
        b = load_config(write(tmp_path, GEOMETRY, "b.yaml")).config_hash()
        c = load_config(write(tmp_path, GEOMETRY.replace("30", "31"),
                              "c.yaml")).config_hash()
        assert a == b
        assert a != c
        assert len(a) == 16

    def test_libyaml_and_python_loaders_agree(self, monkeypatch):
        if not yaml.__with_libyaml__:
            pytest.skip("PyYAML is built without libyaml")
        paths = sorted(CONFIGS.glob("*.yaml"))
        assert len(paths) == 13
        fast = [load_config(str(p)) for p in paths]
        monkeypatch.setattr(yaml, "__with_libyaml__", False)
        slow = [load_config(str(p)) for p in paths]
        assert fast == slow
        assert [c.config_hash() for c in fast] \
            == [c.config_hash() for c in slow]


# ---------------------------------------------------------------------------
# one parser for every real number

LENGTHS = config._quantity(None)
GEOMETRY_UNITS = load_config(str(CONFIGS / "fig4_gain_sweep.yaml")).units
#: (parser, the length units in scope, the unit table it reads)
PARSERS = [
    (LENGTHS, LENGTH_UNITS, LENGTH_UNITS),
    (LENGTHS, GEOMETRY_UNITS, GEOMETRY_UNITS),
    (config._quantity(config.FREQUENCY_UNITS), GEOMETRY_UNITS,
     config.FREQUENCY_UNITS),
]
#: each numeric kind -> the values it accepts
RANGES = {
    config.number: math.isfinite,
    config.positive: lambda x: 0 < x < math.inf,
    config.non_negative: lambda x: 0 <= x < math.inf,
    config.coordinate: math.isfinite,
    config.length: lambda x: 0 < x < math.inf,
    config.frequency: lambda x: 0 < x < math.inf,
}
#: YAML scalars at and beyond the edges of what a number can be
EDGE_SCALARS = [yaml.safe_load(text) for text in [
    ".nan", ".inf", "-.inf", "1.0e+300", "1e+300", "-1.0e+300", "inf",
    "-inf", "nan", "1" + "0" * 400, "-1" + "0" * 400, "true", "false",
    "null", "[1]", "{a: 1}", "2001-01-01", '"3 parsecs"', '"1 dF"',
    '"1 lambda"', '"3 GHz"', '"-1 m"', '"1e400 m"', '"abc m"', '"nan dF"',
    '"abc"', '""', '"1e-3"', '"1 2 3"', '"0x10"', '"1_000"', "5.0e-324",
    "-0.0",
]]
finite = st.floats(allow_nan=False, allow_infinity=False)


class TestQuantity:
    @PROPERTY
    @given(v=finite)
    def test_unit_scales(self, v):
        for parse, units, table in PARSERS:
            for unit, scale in table.items():
                assert parse(f"{v!r} {unit}", "k", units) == v * scale
                assert parse(f"{v!r} {unit.upper()}", "k", units) == v * scale

    @PROPERTY
    @given(v=finite)
    def test_plain_numbers(self, v):
        for parse, units, _ in PARSERS:
            assert parse(v, "k", units) == v
            assert parse(repr(v), "k", units) == v
            assert parse(f"{v:e}", "k", units) == float(f"{v:e}")

    def test_edge_scalars_accepted_in_range_or_name_key(self):
        for value in EDGE_SCALARS:
            accepted_in_range_or_names_key(value)

    @PROPERTY
    @given(value=st.one_of(
        st.floats(), st.integers(), st.text(max_size=12),
        st.builds("{} {}".format,
                  st.one_of(st.floats().map(repr), st.text(max_size=6)),
                  st.sampled_from(["m", "GHz", "dF", "lambda", "furlong"]))))
    def test_values_accepted_in_range_or_name_key(self, value):
        accepted_in_range_or_names_key(value)


def accepted_in_range_or_names_key(value):
    """Each numeric kind, with or without geometry units, either returns a
    float in its range or raises a ConfigError that starts with the key."""
    for kind, in_range in RANGES.items():
        for units in (LENGTH_UNITS, GEOMETRY_UNITS):
            try:
                result = kind(value, "experiment.key", units)
            except ConfigError as exc:
                assert str(exc).startswith("experiment.key: ")
            else:
                assert isinstance(result, float) and in_range(result)


class TestBlame:
    @pytest.mark.parametrize("error", [
        ConfigError("experiment.b: bad"),
        RankError("channel Gram matrix is singular"),
        BracketError("no sign change on [0, 1]")])
    def test_other_errors_pass_unchanged(self, error):
        # a ConfigError already names its key; a numeric failure is no
        # config error at all
        with pytest.raises(type(error)) as caught:
            with config.blame("experiment.a"):
                raise error
        assert caught.value is error
        assert str(caught.value) == str(error)
