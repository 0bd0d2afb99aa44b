"""Run-config parsing: the YAML tree, and one table-driven validator for
every config block. One parser, `_quantity`, reads every real number: a
plain number, or a numeric string such as `1e-6` (YAML 1.1 reads it as
text), in the key's base unit (meters, hertz), or `"<number> <unit>"`
scaled by the unit's entry in a unit table. The radio block's type,
`RadioParams`, and `SPEED_OF_LIGHT` live here too, so that parsing a config
needs no numpy."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import astuple, dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

import yaml

from .geometry import ArrayGeometry, RegionBounds, boundary_distances, build_upa
from .numerics import check_positive

SPEED_OF_LIGHT = 299792458.0  # m/s


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


FREQUENCY_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12}
#: The length units of a config without a geometry block.
LENGTH_UNITS = {"m": 1.0, "mm": 1e-3, "cm": 1e-2, "km": 1e3}
#: The length units a geometry block adds: its wavelength, then its
#: `RegionBounds` fields in their order.
_GEOMETRY_UNITS = ("lambda", "dn", "df", "db", "dfa")


# ---------------------------------------------------------------------------
# kinds: each checks one config value at dotted key `where`, with the
# length units `units` in scope, and returns it parsed, or raises
# ConfigError naming `where`

#: Unit name (lower case) -> its size in the base unit.
UnitTable = Mapping[str, float]
Kind = Callable[[Any, str, UnitTable], Any]
#: The default of a key that must be set.
REQUIRED = object()


def _float(value: Any, where: str, expected: str = "a number") -> float:
    """A number. A numeric string counts, because YAML 1.1 reads `1e-6`
    (no decimal point) as text."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected {expected}, got {value!r}") \
            from None


def _quantity(table: Optional[UnitTable]) -> Kind:
    """A number in the base unit, or `"<number> <unit>"` scaled by the
    unit's entry in `table`; with no table, the length units in scope."""
    def parse(value: Any, where: str, units: UnitTable) -> float:
        scales = units if table is None else table
        words = value.split() if isinstance(value, str) else ()
        if len(words) != 2 or not scales:
            return _float(value, where,
                          "'<number> <unit>'" if scales else "a number")
        unit = words[1].lower()
        if unit not in scales:
            raise ConfigError(f"{where}: " + (
                _unit_missing(words[1], where) if table is None
                and unit in _GEOMETRY_UNITS else
                f"unit {words[1]!r} is unknown"))
        return _float(words[0], where) * scales[unit]
    return parse


def _unit_missing(unit: str, where: str) -> str:
    """Why the geometry unit `unit` is not in scope at key `where`: outside
    the geometry block there is no geometry; inside it, the units are
    derived from the very lengths the block sets."""
    if not where.startswith("geometry."):
        return f"unit {unit!r} needs a geometry block"
    if unit.lower() == "lambda":
        return f"the wavelength cannot be given in wavelengths (unit {unit!r})"
    return (f"unit {unit!r} is a region bound derived from the geometry "
            "block, so it cannot give the block's own lengths")


def _int(value: Any, where: str, units: UnitTable) -> int:
    """A YAML integer: `2.7`, `"40"` and `true` are not."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _ranged(parse: Kind, test: Callable[[float], bool], what: str) -> Kind:
    """The values that `parse` reads as a number passing `test`."""
    def check(value: Any, where: str, units: UnitTable) -> Any:
        result = parse(value, where, units)
        if not test(result):
            raise ConfigError(f"{where}: must be {what}, got {value!r}")
        return result
    return check


_POSITIVE = (lambda x: 0 < x < math.inf, "finite and positive")
#: The largest count: the most complex values one array can hold.
_MAX_COUNT = sys.maxsize // 16
count = _ranged(_int, lambda n: 1 <= n <= _MAX_COUNT,
                f"from 1 to {_MAX_COUNT}")
number = _ranged(_quantity({}), math.isfinite, "finite")
positive = _ranged(_quantity({}), *_POSITIVE)
non_negative = _ranged(_quantity({}), lambda x: 0 <= x < math.inf,
                       "finite and non-negative")
coordinate = _ranged(_quantity(None), math.isfinite, "finite")
length = _ranged(_quantity(None), *_POSITIVE)
frequency = _ranged(_quantity(FREQUENCY_UNITS), *_POSITIVE)


def text(value: Any, where: str, units: UnitTable) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def block(value: Any, where: str, units: UnitTable) -> Mapping[str, Any]:
    """A mapping checked later, against its subcommand's table."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected a mapping block, got {value!r}")
    return value


def enum(*words: str) -> Kind:
    def check(value: Any, where: str, units: UnitTable) -> str:
        if value not in words:
            raise ConfigError(f"{where}: expected {'|'.join(words)}, "
                              f"got {value!r}")
        return value
    check.words = words
    return check


def list_of(item: Kind, size: Optional[int] = None) -> Kind:
    """A non-empty list of `item`s, of exactly `size` if given."""
    def check(value: Any, where: str, units: UnitTable) -> list:
        if not isinstance(value, list) or not value \
                or size not in (None, len(value)):
            raise ConfigError(f"{where}: expected a list of "
                              f"{size or 'one or more'}, got {value!r}")
        return [item(v, f"{where}[{i}]", units) for i, v in enumerate(value)]
    check.item, check.size = item, size
    return check


def either(word: str, kind: Kind) -> Kind:
    """The literal `word`, or a value of `kind`."""
    def check(value: Any, where: str, units: UnitTable) -> Any:
        return word if value == word else kind(value, where, units)
    check.word, check.kind = word, kind
    return check


_XYZ = list_of(coordinate, 3)


def position(value: Any, where: str, units: UnitTable) -> Tuple[float, ...]:
    """A point [x, y, z] in front of the array, so z > 0."""
    x, y, z = _XYZ(value, where, units)
    if not z > 0:
        raise ConfigError(f"{where}: z must be positive, got {value!r}")
    return (x, y, z)


@dataclass(frozen=True)
class Schema:
    """One config block: key -> (kind, default or REQUIRED).

    Of each `one_of` pair at most one key may be set, and the other one is
    then None, not its default. If neither is set, their defaults apply,
    unless both are None: then one must be set.
    """

    keys: Mapping[str, Tuple[Kind, Any]]
    one_of: Tuple[Tuple[str, str], ...] = ()

    def validate(self, node: Any, where: str,
                 units: Union[UnitTable, Callable[[dict], UnitTable]]
                 = LENGTH_UNITS) -> Dict[str, Any]:
        """The block `node` at dotted key `where` ("" for the root), with
        every key parsed or defaulted. `units` may be a function of the
        values parsed so far, in table order, for a block that sets its
        own wavelength. A Schema is itself the kind of a nested block."""
        name = where or "config root"
        if not isinstance(node, Mapping):
            raise ConfigError(f"{name}: expected a mapping block, got {node!r}")
        unknown = set(node) - set(self.keys)
        if unknown:
            raise ConfigError(f"{name}: unknown keys {sorted(unknown, key=str)}")
        missing = [key for key, (_, default) in self.keys.items()
                   if default is REQUIRED and key not in node]
        if missing:
            raise ConfigError(f"{name}: missing keys {missing}")
        for pair in self.one_of:
            given = [key for key in pair if key in node]
            if len(given) == 2 or not (given or any(
                    self.keys[key][1] is not None for key in pair)):
                raise ConfigError(f"{name}: set {'only ' if given else ''}one "
                                  f"of {'/'.join(pair)}")
        out: Dict[str, Any] = {}
        for key, (kind, default) in self.keys.items():
            if key not in node:
                out[key] = default
                continue
            context = units(out) if callable(units) else units
            out[key] = kind(node[key], f"{where}.{key}" if where else key,
                            context)
        for pair in self.one_of:
            if any(key in node for key in pair):
                out.update({key: None for key in pair if key not in node})
        return out

    __call__ = validate


# ---------------------------------------------------------------------------
# the geometry, radio and root blocks

@dataclass(frozen=True)
class RadioParams:
    """The radio block: link-level assumptions for the capacity experiments.

    bandwidth_fraction gives B = fraction * carrier frequency; set
    bandwidth_hz instead for a fixed bandwidth. The ends are isotropic; the
    one directive variant is an argument of
    `mimo_los.capacity_frequency_sweep`.
    """

    carrier_frequency: float
    power_over_noise_db: float
    bandwidth_fraction: float | None = 0.03
    bandwidth_hz: float | None = None

    def __post_init__(self):
        check_positive("carrier_frequency", self.carrier_frequency)
        if (self.bandwidth_fraction is None) == (self.bandwidth_hz is None):
            raise ValueError("set exactly one of bandwidth_fraction / bandwidth_hz")
        # these messages start with the field name, which config errors use
        if not 0.0 < self.power_over_noise < math.inf:
            raise ValueError(
                f"power_over_noise_db: {self.power_over_noise_db:g} dB gives "
                f"the power ratio {self.power_over_noise:g}; it must be "
                "finite and positive")
        if not self.bandwidth() < math.inf:
            raise ValueError(
                f"bandwidth_fraction: {self.bandwidth_fraction:g} gives an "
                "infinite bandwidth at the carrier")

    @property
    def power_over_noise(self) -> float:
        try:
            return 10.0 ** (self.power_over_noise_db / 10.0)
        except OverflowError:
            return math.inf

    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    def bandwidth(self, frequency: float | None = None) -> float:
        if self.bandwidth_hz is not None:
            return self.bandwidth_hz
        return self.bandwidth_fraction * (frequency or self.carrier_frequency)


GEOMETRY = Schema({
    "rows": (count, REQUIRED),
    "cols": (count, REQUIRED),
    "wavelength": (length, None),
    "frequency": (frequency, None),
    "element_side": (length, REQUIRED),
}, one_of=(("wavelength", "frequency"),))

RADIO = Schema({
    "frequency": (frequency, REQUIRED),
    "power_over_noise_db": (number, REQUIRED),
    "bandwidth_fraction": (positive, RadioParams.bandwidth_fraction),
    "bandwidth_hz": (frequency, None),
}, one_of=(("bandwidth_fraction", "bandwidth_hz"),))


def _lengths(values: Mapping[str, Any]) -> UnitTable:
    """The length units of the geometry block once `values` are parsed:
    `lambda` is its wavelength, once that is set."""
    if values.get("frequency"):
        return {**LENGTH_UNITS, "lambda": SPEED_OF_LIGHT / values["frequency"]}
    if values.get("wavelength"):
        return {**LENGTH_UNITS, "lambda": values["wavelength"]}
    return LENGTH_UNITS


def _geometry(node: Any, where: str, units: UnitTable) -> ArrayGeometry:
    """The geometry block; its `lambda` unit is its own wavelength, and its
    region bounds must be finite positive normal floats: as a subnormal, a
    bound has too few digits for the gains scaled by it."""
    g = GEOMETRY.validate(node, where, _lengths)
    geom = build_upa(g["rows"], g["cols"], g["element_side"],
                     _lengths(g)["lambda"])
    try:
        bounds = astuple(boundary_distances(geom))
    except OverflowError:  # a bound beyond the float range
        bounds = (math.inf,)
    if not all(sys.float_info.min <= d < math.inf for d in bounds):
        raise ConfigError(f"{where}: element_side {geom.element_side:g} m and "
                          f"wavelength {geom.wavelength:g} m put a region "
                          "bound (d_N, d_F, d_B or d_FA) outside the finite "
                          "positive normal floats")
    return geom


def _radio(node: Any, where: str, units: UnitTable) -> RadioParams:
    r = RADIO.validate(node, where)
    try:
        return RadioParams(carrier_frequency=r.pop("frequency"), **r)
    except ValueError as exc:  # "<field>: ...", a value out of range
        raise ConfigError(f"{where}.{exc}") from None


ROOT = Schema({
    "geometry": (_geometry, None),
    "radio": (_radio, None),
    "experiment": (block, {}),
    "output": (text, None),
})


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration: geometry/radio blocks plus the raw
    experiment mapping, which the chosen subcommand's table checks."""

    raw: Mapping[str, Any]
    geometry: Optional[ArrayGeometry]
    radio: Optional[RadioParams]
    experiment: Mapping[str, Any]
    output: Optional[str]

    @property
    def bounds(self) -> RegionBounds:
        if self.geometry is None:
            raise ConfigError("config has no geometry block")
        return boundary_distances(self.geometry)

    @property
    def units(self) -> UnitTable:
        """The length units of the experiment block."""
        if self.geometry is None:
            return LENGTH_UNITS
        return {**LENGTH_UNITS, **dict(zip(_GEOMETRY_UNITS, (
            self.geometry.wavelength, *astuple(self.bounds))))}

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_config(path: str) -> RunConfig:
    # libyaml's parser builds the same tree as PyYAML's, about 8x faster
    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path!r} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return RunConfig(raw=raw, **ROOT.validate(raw, ""))
