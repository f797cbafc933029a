"""Run configuration: one key table per mapping drives parsing and echo.

Every mapping of the YAML run tree (section, node, target, scatterer,
waypoint...) has a table; a `Key` entry names one YAML key, its type, its
default and the attribute it fills, and config-only sections are plain
records made from their tables. parse_config() walks the tables to build a
RunConfig of domain objects; config_echo() walks them back, so the echo is
the complete effective configuration, defaults included, and parses again
to the same run. Parsing is strict; every malformed input raises
ConfigError naming its key path:

- a non-mapping section or element, a non-list list, or a key the table
  does not know is an error; null means absent (default, or missing);
- numbers are YAML numbers or numeric strings ("160e6"), never booleans;
  NaN is rejected, and ±inf too except +inf for noise.snr_db (no noise);
- integers are ints, or numbers and strings of exact integral value
  ("2048", 2048.0); 1.7 and true are rejected;
- booleans are YAML true/false only, so "false" is an error;
- window names must be known to channel.named_window();
- echo-only keys (waveform.subcarrier_spacing_hz) are derived: the echo
  writes them, and a given one must match to 1e-12 relative.

Leaves with several forms take exactly one, and the echo writes the first:
a waypoint is {t, position} or [t, [x, y, z]]; an angle axis a list, a
number, {start, stop, n} or {start, stop, step > 0} (no point past stop);
a node has a trajectory or a position, at which it rests; a rotor rate is
rate_rad_s or rate_rpm; a budget RCS rcs_m2 or scattering_length s
(σ = 4π|s|²); a target kind rigid (default) or rotor.
"""

from __future__ import annotations

import math
from dataclasses import make_dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np
import yaml

from .channel import _ORTHO_RTOL, WaveformConfig, named_window
from .errors import ConfigError
from .geometry import C0, NodePose, Trajectory
from .scene import SceneConfig, SceneNode
from .targets import (MAX_AXIS_POINTS, FrequencyBand, LinkBudget, PointScatterer, RigidTarget, Rotor,
                      equivalent_rcs, stepped_axis)

REQUIRED = object()  # default of a key that must be given


# Leaf coercers: (YAML value, where) -> Python value, or ConfigError naming where.
def _float(value, where: str, inf_ok: bool = False) -> float:
    try:
        if isinstance(value, bool):
            raise TypeError
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if math.isnan(out) or (math.isinf(out) and not (inf_ok and out > 0)):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return out


def _int(value, where: str) -> int:
    try:
        number = value if type(value) is int else _float(value, where)
        if number != math.floor(number) or abs(number) >= 2**63:
            raise ConfigError
    except ConfigError:
        raise ConfigError(f"{where}: expected an integer, got {value!r}") from None
    return int(number)


def _expect(ok: Callable, what: str) -> Callable:
    def parse(value, where: str):
        if not ok(value):
            raise ConfigError(f"{where}: expected {what}, got {value!r}")
        return value
    return parse


_bool = _expect(lambda v: isinstance(v, bool), "true or false")
_string = _expect(lambda v: isinstance(v, (str, int, float)) and not isinstance(v, bool), "a string")
_triple = _expect(lambda v: isinstance(v, list) and len(v) == 3, "[x, y, z]")
_pair = _expect(lambda v: len(v) == 2, "a number or [re, im]")


def _window(value, where: str) -> str:
    name = str(_string(value, where))
    try:
        named_window(name, 4)
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from None
    return name


def _complex(value, where: str) -> complex:
    re, im = _pair(value, where) if isinstance(value, list) else (value, 0.0)
    return complex(_float(re, where), _float(im, where))


# Tables and their two walkers.
class Kind(NamedTuple):
    """How one YAML value parses, (value, where, root) -> object, and echoes back."""

    parse: Callable
    emit: Callable
    cls: type | None = None  # what parse builds, when an Either must tell its forms apart


def _leaf(parse: Callable, emit: Callable = lambda v: v) -> Kind:
    return Kind(lambda value, where, root: parse(value, where), emit)


def _at(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


class Key(NamedTuple):
    """One YAML key: spelling, type, default, and the attribute it fills (`to`, default: the key).

    The default is in YAML form and parsed like a given value; it may also
    be None, REQUIRED, or a function of the run fields parsed so far.
    """

    name: str
    kind: Kind
    default: Any = REQUIRED
    to: str | None = None
    echo_only: bool = False
    skip_none: bool = False  # leave a None value out of the echo

    attr = property(lambda self: self.to or self.name)
    keys = property(lambda self: (self.name,))
    cls = property(lambda self: self.kind.cls)

    def read(self, spec: dict, where: str, root: dict):
        value = spec.get(self.name)
        if value is None:
            if self.default is REQUIRED:
                raise ConfigError(f"{where or 'config'}: missing required field {self.name!r}")
            value = self.default(SimpleNamespace(**root)) if callable(self.default) else self.default
            if value is None:
                return None
        try:
            return self.kind.parse(value, _at(where, self.name), root)
        except ArithmeticError as err:  # a value whose arithmetic downstream overflows
            raise ConfigError(f"{_at(where, self.name)}: {err}") from None

    def write(self, value) -> dict:
        if value is None:
            return {} if self.skip_none else {self.name: None}
        return {self.name: self.kind.emit(value)}


class Group(NamedTuple):
    """Keys of the enclosing mapping that together build one object."""

    attr: str
    cls: Callable
    table: list

    keys = property(lambda self: tuple(k for entry in self.table for k in entry.keys))

    def read(self, spec: dict, where: str, root: dict):
        return _build(self.cls, {k: v for k, v in spec.items() if k in self.keys}, self.table, where, root)

    def write(self, value) -> dict:
        return _echo(value, self.table)


class Either:
    """An attribute given by exactly one of several forms; echoed as the first that fits."""

    def __init__(self, *forms):
        self.forms, self.attr = forms, forms[0].attr
        self.keys = tuple(k for form in forms for k in form.keys)

    def read(self, spec: dict, where: str, root: dict):
        given = [f for f in self.forms if any(spec.get(k) is not None for k in f.keys)]
        if len(given) != 1:
            names = " or ".join(repr(f.keys[0]) for f in self.forms)
            raise ConfigError(f"{where}: give exactly one of {names}")
        return given[0].read(spec, where, root)

    def write(self, value) -> dict:
        return next(f for f in self.forms if isinstance(value, f.cls or object)).write(value)


def _build(cls: Callable, spec, table: list, where: str, root: dict | None):
    """cls(**attributes) of one mapping, read through its table."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where or 'config'}: expected a mapping, got {type(spec).__name__}")
    known = [k for entry in table for k in entry.keys]
    for key in spec:
        if key not in known:
            raise ConfigError(f"{_at(where, key)}: unknown key; expected one of {', '.join(known)}")
    fields: dict = {}
    for entry in table:
        if not getattr(entry, "echo_only", False):
            fields[entry.attr] = entry.read(spec, where, fields if root is None else root)
    try:
        obj = cls(**fields)
    except ConfigError as err:
        raise type(err)(f"{where or 'config'}: {err}") from None
    for entry in (e for e in table if getattr(e, "echo_only", False) and spec.get(e.name) is not None):
        derived = getattr(obj, entry.attr)
        if not math.isclose(entry.read(spec, where, root), derived, rel_tol=_ORTHO_RTOL):
            raise ConfigError(f"{_at(where, entry.name)}: expected {derived} to {_ORTHO_RTOL:g} relative")
    return obj


def _echo(obj, table: list) -> dict:
    out = {}
    for entry in table:
        out.update(entry.write(obj[entry.attr] if isinstance(obj, dict) else getattr(obj, entry.attr)))
    return out


def _section(cls: Callable, table: list) -> Kind:
    return Kind(lambda value, where, root: _build(cls, value, table, where, root),
                lambda obj: _echo(obj, table), cls)


def _record(name: str, table: list) -> Kind:
    """Section of a config-only record: a dataclass with one field per table attribute."""
    return _section(make_dataclass(name, [entry.attr for entry in table], eq=False), table)


def _list(item: Kind) -> Kind:
    def parse(value, where: str, root: dict) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        return [item.parse(v, f"{where}[{i}]", root) for i, v in enumerate(value)]
    return Kind(parse, lambda items: [item.emit(x) for x in items])


def _tagged(tag: str, variants: dict) -> Kind:
    """A mapping whose `tag` key (default: the first variant) picks its class and table."""
    def parse(value, where: str, root: dict):
        spec = dict(value) if isinstance(value, dict) else value
        name = spec.pop(tag, None) if isinstance(spec, dict) else None
        name = next(iter(variants)) if name is None else name
        if not isinstance(name, str) or name not in variants:
            raise ConfigError(f"{_at(where, tag)}: unknown {tag} {name!r}")
        cls, table = variants[name]
        return _build(cls, spec, table, where, root)

    def emit(obj) -> dict:
        name = next(n for n, (cls, _) in variants.items() if isinstance(obj, cls))
        return {tag: name, **_echo(obj, variants[name][1])}
    return Kind(parse, emit)


# Leaf types, and the leaves with several forms.
FLOAT = _leaf(_float, float)
INT = _leaf(_int, int)
BOOL = _leaf(_bool)
TEXT = _leaf(lambda v, where: str(_string(v, where)))
WINDOW = _leaf(_window)
VEC = _leaf(lambda v, where: np.array([_float(x, where) for x in _triple(v, where)]),
            lambda v: [float(x) for x in v])
COMPLEX = _leaf(_complex, lambda z: [z.real, z.imag])


POSITION = Key("position", VEC)
_WAYPOINT = [Key("t", FLOAT), POSITION]


def _waypoint(pair) -> dict:  # (t, position) -> {t, position}
    return {entry.name: v for entry, v in zip(_WAYPOINT, pair)}


def _trajectory(value, where: str, root: dict) -> Trajectory:
    def waypoint(wp, at: str, root: dict) -> tuple:
        wp = _waypoint(wp) if isinstance(wp, list) and len(wp) == len(_WAYPOINT) else wp
        return tuple(_build(dict, wp, _WAYPOINT, at, root).values())
    try:
        return Trajectory.from_waypoints(_list(Kind(waypoint, None)).parse(value, where, root))
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from None


TRAJECTORY = Key("trajectory", Kind(
    _trajectory, lambda tr: [_echo(_waypoint(p), _WAYPOINT) for p in zip(tr.times, tr.points)], Trajectory))
_RANGE = [Key("start", FLOAT), Key("stop", FLOAT), Key("n", INT, None), Key("step", FLOAT, None)]


def _angle_axis(value, where: str, root: dict) -> np.ndarray:
    if not isinstance(value, dict):
        return np.array([_float(v, where) for v in (value if isinstance(value, list) else [value])])
    start, stop, n, step = _build(dict, value, _RANGE, where, root).values()
    if (n is None) == (step is None):
        raise ConfigError(f"{where}: give a point count or a step, not both or neither")
    if step is not None:
        return stepped_axis(start, stop, step, where)
    if not 1 <= n <= MAX_AXIS_POINTS:
        raise ConfigError(f"{where}: axis of {n} points, expected 1 to {MAX_AXIS_POINTS}")
    return np.linspace(start, stop, n)


# The tables.
N_SUBCARRIERS, N_SYMBOLS = Key("n_subcarriers", INT), Key("n_symbols", INT)
WAVELENGTH = Key("wavelength", FLOAT, lambda run: C0 / run.waveform.f_c)
NAME = Key("name", TEXT, "rigid")
AMPLITUDE = Key("amplitude", COMPLEX)
D_TX, D_RX = Key("d_tx", FLOAT), Key("d_rx", FLOAT)
BAND = Key("band", _section(FrequencyBand, [
    Key("f_lo", FLOAT), Key("f_hi", FLOAT), Key("n_points", INT, 512)]))
SWEEP_WINDOW = Key("sweep_window", WINDOW, "none")
SCAN_TARGET = Key("target", TEXT, None)

NODE = _section(SceneNode, [
    Key("id", TEXT, to="node_id"),
    Either(TRAJECTORY._replace(to="motion"), Group("motion", NodePose, [POSITION])),
])
TARGET = _tagged("kind", {
    "rigid": (RigidTarget, [
        NAME,
        Key("yaw", _leaf(lambda v, where: v if v == "track" else _float(v, where)), None),
        Key("scatterers", _list(_section(PointScatterer, [
            Key("offset", VEC, [0, 0, 0], to="position"), AMPLITUDE]))),
        TRAJECTORY,
    ]),
    "rotor": (Rotor, [
        NAME._replace(default="rotor"),
        Key("hub", VEC, to="hub_offset"), Key("axis", VEC, [0, 0, 1]),
        Key("radius", FLOAT, to="blade_radius"),
        Either(Key("rate_rad_s", FLOAT, to="rate"),
               Key("rate_rpm", _leaf(lambda v, where: _float(v, where) * 2.0 * np.pi / 60.0))),
        Key("blades", INT, 2, to="n_blades"), Key("samples_per_blade", INT, 32),
        Key("sample_amplitude", COMPLEX, 1e-2), Key("phase0", FLOAT, 0.0),
    ]),
})

GATE = _record("GateConfig", [
    Key("center_ns", FLOAT), Key("width_ns", FLOAT, 2.0), Key("edge_ns", FLOAT, 0.0)])
STFT = _record("StftConfig", [
    Key("fft_size", INT, 2048), Key("hop", INT, 32), Key("window", WINDOW, "gaussian")])
PROCESSING = _record("ProcessingConfig", [
    Key("fast_window", WINDOW, "none"), Key("slow_window", WINDOW, "none"), Key("clean_paths", INT, 0),
    Key("detect_threshold_db", FLOAT, 20.0), Key("exclude_zero_doppler", BOOL, True),
    Key("gate", GATE, None), Key("stft", STFT, {}),
])
NOISE = _record("NoiseConfig", [
    Key("snr_db", _leaf(lambda v, where: _float(v, where, inf_ok=True), float), None),
    Key("seed", INT, None),
])
OUTPUTS = _record("OutputConfig", [
    Key("directory", TEXT, "out"),
    Key("format", _leaf(_expect(lambda v: v in ("bin", "csv"), "bin or csv")), "bin"),
])
REFLECTIVITY = _record("ReflectivityJob", [
    D_TX, D_RX, BAND, SWEEP_WINDOW, SCAN_TARGET,
    Group("grid", dict, [Key(axis, Kind(_angle_axis, lambda a: [float(v) for v in a]))
                         for axis in ("az_tx", "el_tx", "az_rx", "el_rx")]),
])
FLYOVER = _record("FlyoverJob", [
    D_TX, D_RX, BAND, Key("fixed_angle_deg", FLOAT, 0.0),
    Key("start_deg", FLOAT, 10.0), Key("stop_deg", FLOAT, 180.0), Key("step_deg", FLOAT, 10.0),
    Key("elevation_deg", FLOAT, 0.0), SWEEP_WINDOW, SCAN_TARGET,
])
RUN = _record("RunConfig", [
    Key("mode", _leaf(_expect(lambda v: v in ("geometric", "fixed"), "geometric or fixed")), "geometric"),
    Key("t0", FLOAT, 0.0),
    Key("waveform", _section(WaveformConfig, [
        Key("carrier_hz", FLOAT, to="f_c"), Key("bandwidth_hz", FLOAT, to="bandwidth"),
        N_SUBCARRIERS, N_SYMBOLS, Key("symbol_s", FLOAT, None, to="t_sym"),
        Key("subcarrier_spacing_hz", FLOAT, to="delta_f", echo_only=True),
    ])),
    Key("scene", _section(SceneConfig, [
        WAVELENGTH, Key("include_los", BOOL, True),
        Key("tx_nodes", _list(NODE)), Key("rx_nodes", _list(NODE)), Key("targets", _list(TARGET), []),
        Key("clutter", _list(_section(PointScatterer, [POSITION, AMPLITUDE])), []),
    ])),
    Key("processing", PROCESSING, {}),
    Key("noise", NOISE, {}),
    Key("outputs", OUTPUTS, {}),
    Key("reflectivity", REFLECTIVITY, None, skip_none=True),
    Key("flyover", FLYOVER, None, skip_none=True),
    Key("budget", _section(LinkBudget, [
        Key("tx_power_dbm", FLOAT, 0.0), Key("tx_gain_dbi", FLOAT, 0.0), Key("rx_gain_dbi", FLOAT, 0.0),
        WAVELENGTH._replace(default=lambda run: run.scene.wavelength), D_TX, D_RX,
        Either(Key("rcs_m2", FLOAT),
               Key("scattering_length", _leaf(lambda v, where: equivalent_rcs(_complex(v, where))))),
        N_SUBCARRIERS._replace(default=lambda run: run.waveform.n_subcarriers),
        N_SYMBOLS._replace(default=lambda run: run.waveform.n_symbols),
    ]), None, skip_none=True),
])
(GateConfig, StftConfig, ProcessingConfig, NoiseConfig, OutputConfig, ReflectivityJob, FlyoverJob,
 RunConfig) = (kind.cls for kind in (GATE, STFT, PROCESSING, NOISE, OUTPUTS, REFLECTIVITY, FLYOVER, RUN))


def parse_config(doc) -> RunConfig:
    """Validated RunConfig of a parsed YAML document."""
    cfg = RUN.parse(doc, "", None)
    if cfg.noise.snr_db is not None and cfg.noise.seed is None:
        raise ConfigError("noise.seed: a seed is mandatory when noise is enabled")
    return cfg


def load_document(path):
    """The YAML document of a run configuration file, not yet validated; {} if empty."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as err:
        mark = getattr(err, "problem_mark", None)
        at = "" if mark is None else f" at line {mark.line + 1}, column {mark.column + 1}"
        raise ConfigError(f"{path}: parse error{at}: {err}") from None
    return doc if doc is not None else {}


def load_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration file."""
    return parse_config(load_document(path))


def config_echo(cfg: RunConfig) -> dict:
    """Complete effective configuration, defaults included."""
    return RUN.emit(cfg)
