"""Run-config parsing: the YAML tree, and one table-driven validator for
every config block. One parser, `_quantity`, reads every real number: a
plain number, or a numeric string such as `1e-6` (YAML 1.1 reads it as
text), in the key's base unit (meters, hertz), or `"<number> <unit>"`
scaled by the unit's entry in a unit table. The radio block's type,
`RadioParams`, lives here too."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import reprlib
from collections.abc import Hashable
from dataclasses import astuple, dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

import yaml

from .geometry import (ArrayGeometry, RegionBounds, boundary_distances,
                       build_upa, wavelength_of)
from .numerics import check_count, check_non_negative, check_positive


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


def _shown(value: Any) -> str:
    """`repr(value)` of three levels of six items at most, cut to 120
    characters: a YAML alias tree, a few bytes that stand for exponentially
    many items, is never expanded."""
    short = reprlib.Repr()
    short.maxlevel, short.maxstring, short.maxother = 3, 60, 60
    text = short.repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


@contextlib.contextmanager
def blame(key: str):
    """A library `ValueError` in the block, as a `ConfigError` naming `key`;
    a `ConfigError` or `NumericError` is no `ValueError`, and passes."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


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
        raise ConfigError(f"{where}: expected {expected}, "
                          f"got {_shown(value)}") from None


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
                f"unit {_shown(words[1])} is unknown"))
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


def _checked(parse: Kind, guard: Callable[[str, Any], Any]) -> Kind:
    """The values `parse` reads that `guard(<last part of the key>, value)`
    takes, as `guard` returns them; its `ValueError` names the key."""
    def check(value: Any, where: str, units: UnitTable) -> Any:
        with blame(where):
            return guard(where.rpartition(".")[2], parse(value, where, units))
    return check


def _finite(name: str, value: float) -> float:
    if math.isfinite(value):
        return value
    raise ValueError(f"{name} must be finite, got {value!r}")


def _carrier(name: str, value: float) -> float:
    wavelength_of(check_positive(name, value))  # c / f is finite
    return value


#: An integer `numerics.check_count` takes: not `2.7`, `"40"` or `true`.
count = _checked(lambda value, where, units: value, check_count)
number = _checked(_quantity({}), _finite)
positive = _checked(_quantity({}), check_positive)
non_negative = _checked(_quantity({}), check_non_negative)
coordinate = _checked(_quantity(None), _finite)
length = _checked(_quantity(None), check_positive)
frequency = _checked(_quantity(FREQUENCY_UNITS), check_positive)
carrier = _checked(_quantity(FREQUENCY_UNITS), _carrier)


def text(value: Any, where: str, units: UnitTable) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {_shown(value)}")
    return value


def block(value: Any, where: str, units: UnitTable) -> Mapping[str, Any]:
    """A mapping checked later, against its subcommand's table."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected a mapping block, "
                          f"got {_shown(value)}")
    return value


def enum(*words: str) -> Kind:
    def check(value: Any, where: str, units: UnitTable) -> str:
        if value not in words:
            raise ConfigError(f"{where}: expected {'|'.join(words)}, "
                              f"got {_shown(value)}")
        return value
    check.words = words
    return check


def list_of(item: Kind, size: Optional[int] = None) -> Kind:
    """A non-empty list of `item`s, of exactly `size` if given."""
    def check(value: Any, where: str, units: UnitTable) -> list:
        if not isinstance(value, list) or not value \
                or size not in (None, len(value)):
            raise ConfigError(f"{where}: expected a list of "
                              f"{size or 'one or more'}, got {_shown(value)}")
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
    with blame(where):
        return (x, y, check_positive("z", z))


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
            raise ConfigError(f"{name}: expected a mapping block, "
                              f"got {_shown(node)}")
        unknown = set(node) - set(self.keys)
        if unknown:
            raise ConfigError(f"{name}: unknown keys "
                              f"{_shown(sorted(unknown, key=str))}")
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
        for name in ("bandwidth_fraction", "bandwidth_hz"):
            if getattr(self, name) is not None:
                check_positive(name, getattr(self, name))
        # these messages start with the config key, which config errors use
        if not 0.0 < self.power_over_noise < math.inf:
            raise ValueError(
                f"power_over_noise_db: {self.power_over_noise_db:g} dB gives "
                f"the power ratio {self.power_over_noise:g}; it must be "
                "finite and positive")
        b = self.bandwidth()
        if not 0.0 < b < math.inf:
            raise ValueError("bandwidth_fraction: the bandwidth at the "
                             f"carrier must be finite and positive, got {b!r}")
        # P / (N0 B) underflows to 0, or overflows at a narrow bandwidth
        snr = self.snr()
        if not 0.0 < snr < math.inf:
            key = ("power_over_noise_db" if snr == 0 else "bandwidth_hz"
                   if self.bandwidth_hz is not None else "bandwidth_fraction")
            raise ValueError(f"{key}: the SNR P / (N0 B) must be finite and "
                             f"positive, got {snr!r}")

    @property
    def power_over_noise(self) -> float:
        try:
            return 10.0 ** (self.power_over_noise_db / 10.0)
        except OverflowError:
            return math.inf

    def wavelength(self) -> float:
        return wavelength_of(self.carrier_frequency)

    def bandwidth(self, frequency: float | None = None) -> float:
        if self.bandwidth_hz is not None:
            return self.bandwidth_hz
        return self.bandwidth_fraction * (frequency or self.carrier_frequency)

    def snr(self, beta: float = 1.0, frequency: float | None = None) -> float:
        """P beta / (N0 B), with B at `frequency`, by default the carrier."""
        return self.power_over_noise * beta / self.bandwidth(frequency)


GEOMETRY = Schema({
    "rows": (count, REQUIRED),
    "cols": (count, REQUIRED),
    "wavelength": (length, None),
    "frequency": (carrier, None),
    "element_side": (length, REQUIRED),
}, one_of=(("wavelength", "frequency"),))

RADIO = Schema({
    "frequency": (carrier, REQUIRED),
    "power_over_noise_db": (number, REQUIRED),
    "bandwidth_fraction": (positive, RadioParams.bandwidth_fraction),
    "bandwidth_hz": (frequency, None),
}, one_of=(("bandwidth_fraction", "bandwidth_hz"),))


def _lengths(values: Mapping[str, Any]) -> UnitTable:
    """The length units of a geometry block once `values` are parsed:
    `lambda` is its wavelength, once that is set."""
    if values.get("frequency"):
        return {**LENGTH_UNITS, "lambda": wavelength_of(values["frequency"])}
    if values.get("wavelength"):
        return {**LENGTH_UNITS, "lambda": values["wavelength"]}
    return LENGTH_UNITS


def _geometry(node: Any, where: str, units: UnitTable) -> ArrayGeometry:
    """The geometry block; its `lambda` unit is its own wavelength."""
    g = GEOMETRY.validate(node, where, _lengths)
    with blame(where):  # "<field> ...", a value out of range
        return build_upa(g["rows"], g["cols"], g["element_side"],
                         _lengths(g)["lambda"])


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


class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """The safe loader, on libyaml's parser where there is one (the same
    tree as PyYAML's, about 8x faster), that refuses a mapping which repeats
    a key: PyYAML would keep the last value and say nothing."""

    def __init__(self, stream):
        super().__init__(stream)
        # id of a value or list item node -> its dotted key; a mapping in
        # a list in a list is named by its keys alone
        self.keys = {}
        self.checked = set()  # ids of the mapping nodes checked

    def flatten_mapping(self, node):
        # each mapping is checked once, before merge keys (`<<`) add theirs
        if id(node) not in self.checked:
            self.checked.add(id(node))
            where = self.keys.get(id(node), "")
            seen = set()
            for key_node, value_node in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node)
                if not isinstance(key, Hashable):
                    continue  # the constructor refuses it
                dotted = f"{where}.{key}" if where else str(key)
                if key in seen:
                    raise ConfigError(f"{dotted}: key repeated on line "
                                      f"{key_node.start_mark.line + 1}")
                seen.add(key)
                self.keys.setdefault(id(value_node), dotted)
                if isinstance(value_node, yaml.SequenceNode):
                    for i, item in enumerate(value_node.value):
                        self.keys.setdefault(id(item), f"{dotted}[{i}]")
        super().flatten_mapping(node)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        # PyYAML puts the position of a syntax error on lines of its own
        reason = "; ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"config {path!r} is not valid YAML: {reason}") \
            from exc
    if raw is None:
        raw = {}
    return RunConfig(raw=raw, **ROOT.validate(raw, ""))
