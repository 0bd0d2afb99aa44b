import math

import pytest

from nearfield.config import (
    ConfigError,
    length,
    load_config,
    parse_frequency,
    parse_length,
)


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
        assert parse_frequency("3 GHz", "t") == pytest.approx(3e9)
        assert parse_frequency("250 kHz", "t") == pytest.approx(250e3)
        assert parse_frequency(1.5e6, "t") == 1.5e6

    def test_frequency_errors(self):
        with pytest.raises(ConfigError):
            parse_frequency("3 parsecs", "t")
        with pytest.raises(ConfigError):
            parse_frequency("fast", "t")

    def test_length_plain_and_units(self):
        assert parse_length(2.5, "t") == 2.5
        assert parse_length("30 cm", "t") == pytest.approx(0.3)
        assert parse_length("2 km", "t") == pytest.approx(2000.0)
        assert parse_length("inf", "t") == math.inf

    def test_length_lambda_units(self):
        assert parse_length("0.25 lambda", "t", wavelength=0.1) \
            == pytest.approx(0.025)
        with pytest.raises(ConfigError):
            parse_length("0.25 lambda", "t")

    def test_length_boundary_units(self, tmp_path):
        cfg = load_config(write(tmp_path, GEOMETRY))
        b = cfg.bounds
        assert length("10 dF", "t", cfg.units) == pytest.approx(10 * b.d_f)
        assert length("0.04 dFA", "t", cfg.units) == pytest.approx(0.04 * b.d_fa)
        assert length("1 dB", "t", cfg.units) == pytest.approx(b.d_b)
        assert length("2 dN", "t", cfg.units) == pytest.approx(2 * b.d_n)

    def test_length_errors(self):
        with pytest.raises(ConfigError):
            parse_length("1 furlong", "t")
        with pytest.raises(ConfigError):
            parse_length([1], "t")


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
