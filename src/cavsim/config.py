"""Scenario-file loading and validation.

Scenario files are YAML (plain JSON also parses). Every section is
optional and falls back to documented defaults, but unknown keys anywhere
in the tree are rejected with the offending path, so a typoed field can
never silently revert to a default. Unit-suffixed key names state the unit
of the stored number.

The config dataclasses are the schema. A field's file key is its
``metadata["key"]`` (a field without one is not read from files), its kind
is its annotation (float, int, bool, str, or a dataclass read as a nested
section), and its default is the dataclass default, else
``metadata["default"]``. ``_read`` reads every section from them; only the
values that are not one number, bool or string have readers here.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from collections.abc import Callable, Mapping
from typing import Any

import yaml

from .control import GainTable
from .engine import DEFAULT_GAINS, ControlConfig, ScenarioConfig
from .errors import ConfigError
from .network import ChannelModel
from .scenario import IntersectionSpec, LegSpec, SpawnEvent, SpawnPlan

# Read in place of an absent ``intersections`` section.
_ONE_INTERSECTION = [{"id": "x", "legs": [{"id": "a"}]}]


def _number(value: Any, path: str, kind: type = float):
    """``kind(value)``, or a ConfigError naming ``path`` unless it is a finite number.

    A bool is not a number here, and an int key takes no fractional part.
    """
    try:
        number = kind(value)
        valid = (
            math.isfinite(number)
            and not isinstance(value, bool)
            and not (isinstance(value, float) and number != value)
        )
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        expected = "integer" if kind is int else "number"
        raise ConfigError(f"{path}: expected a finite {expected}, got {value!r}")
    return number


def _scalar(value: Any, path: str, kind: type):
    """A bool, a string (numbers read as their text) or a finite number."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true or false, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, (str, int, float)):
            raise ConfigError(f"{path}: expected a string, got {type(value).__name__}")
        return str(value)
    return _number(value, path, kind)


def _mapping(raw: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {type(raw).__name__}")
    return raw


def _list(raw: Any, path: str, expected: str, empty_ok: bool = True) -> list:
    if not isinstance(raw, list) or not (raw or empty_ok):
        raise ConfigError(f"{path}: expected {expected}")
    return raw


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@functools.cache
def _schema(cls) -> dict[str, tuple[dataclasses.Field, Any, bool]]:
    """File key -> (field, kind, whether it may be None) for each keyed field of ``cls``."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        if "key" in f.metadata:
            args = typing.get_args(hints[f.name])
            nullable = type(None) in args
            schema[f.metadata["key"]] = (f, args[0] if nullable else hints[f.name], nullable)
    return schema


def _read(
    cls,
    raw: Any,
    path: str,
    defaults: Mapping[str, Any] | None = None,
    **readers: Callable[[Any, str], Any],
):
    """An instance of the config dataclass ``cls`` from its section ``raw``.

    A key given in the file is read by ``readers[field name]`` if there is
    one, else as its annotated kind (float, int, bool or str), else as a
    nested section of the annotated dataclass; ``null`` on a field that may
    be None means absent. An absent key takes ``defaults[field name]``
    (defaults that depend on where the section sits), then the field's own
    default; a field with neither is required.
    """
    section = _mapping(raw, path)
    schema = _schema(cls)
    for key in section:
        if key not in schema:
            raise ConfigError(f"{_at(path, key)}: unknown key")
    defaults = defaults or {}
    kwargs = {}
    for key, (f, kind, nullable) in schema.items():
        value = section.get(key)
        if value is not None or (key in section and not nullable):
            at = _at(path, key)
            if f.name in readers:
                kwargs[f.name] = readers[f.name](value, at)
            elif kind in (float, int, bool, str):
                kwargs[f.name] = _scalar(value, at, kind)
            else:
                kwargs[f.name] = _read(kind, value, at)
        elif f.name in defaults:
            kwargs[f.name] = defaults[f.name]
        elif "default" in f.metadata:
            kwargs[f.name] = f.metadata["default"]
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{_at(path, key)}: required key missing")
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _nlos_windows(raw: Any, path: str) -> tuple[tuple[float, float], ...]:
    windows = []
    for i, win in enumerate(_list(raw, path, "a list of [start, end]")):
        if not isinstance(win, (list, tuple)) or len(win) != 2:
            raise ConfigError(f"{path}[{i}]: expected [start_s, end_s]")
        windows.append((_number(win[0], f"{path}[{i}][0]"), _number(win[1], f"{path}[{i}][1]")))
    return tuple(windows)


def _numbers(raw: Any, path: str, kind: type = float, expected: str = "a list of numbers"):
    values = _list(raw, path, expected)
    return tuple(_number(v, f"{path}[{n}]", kind) for n, v in enumerate(values))


_vehicle_ids = functools.partial(_numbers, kind=int, expected="a list of vehicle ids")
_channel = functools.partial(
    _read, ChannelModel, nlos_windows=_nlos_windows, impaired_vehicles=_vehicle_ids
)


def _gain_entries(raw: Any, path: str):
    def gains(pair: Any, at: str) -> tuple[float, float]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{at}: expected [k, gamma]")
        return _number(pair[0], f"{at}[0]"), _number(pair[1], f"{at}[1]")

    try:
        return tuple(
            tuple(
                tuple(gains(pair, f"{path}[{p}][{r}][{c}]") for c, pair in enumerate(row))
                for r, row in enumerate(plane)
            )
            for p, plane in enumerate(raw)
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed ({exc})") from exc


_gain_table = functools.partial(
    _read, GainTable, v_i_edges=_numbers, v_j_edges=_numbers, headway_edges=_numbers,
    entries=_gain_entries,
)


def _control(raw: Any, path: str) -> ControlConfig:
    """The control section; ``k`` and ``gamma`` give the single gain pair
    that stands in for an absent (or null) ``gain_table``."""
    section = dict(_mapping(raw, path))
    k, gamma = (_number(section.pop(key, v), f"{path}.{key}") for key, v in DEFAULT_GAINS.items())
    if section.get("gain_table") is None:
        section.pop("gain_table", None)
    single = {"gain_table": GainTable.single(k, gamma)}
    return _read(ControlConfig, section, path, single, gain_table=_gain_table)


def _legs(raw: Any, path: str) -> tuple[LegSpec, ...]:
    legs = _list(raw, path, "a non-empty list", empty_ok=False)
    return tuple(_read(LegSpec, leg, f"{path}[{j}]", {"id": str(j)}) for j, leg in enumerate(legs))


def _intersections(raw: Any, path: str) -> tuple[IntersectionSpec, ...]:
    items = _list(raw, path, "a non-empty list", empty_ok=False)
    return tuple(
        _read(IntersectionSpec, item, f"{path}[{i}]", {"id": str(i)}, legs=_legs)
        for i, item in enumerate(items)
    )


def parse_scenario(raw: Mapping[str, Any]) -> ScenarioConfig:
    """Build and cross-validate a ScenarioConfig from a parsed mapping."""
    if not isinstance(raw, Mapping):
        raise ConfigError("top level: expected a mapping of sections")
    # Read ahead of the other sections: spawn events default to the first.
    intersections = _intersections(raw.get("intersections", _ONE_INTERSECTION), "intersections")
    first = {"intersection": intersections[0].id}

    def events(items: Any, path: str) -> tuple[SpawnEvent, ...]:
        items = _list(items, path, "a list")
        return tuple(_read(SpawnEvent, e, f"{path}[{i}]", first) for i, e in enumerate(items))

    scenario = _read(
        ScenarioConfig,
        raw,
        "",
        {"intersections": intersections},
        channel=_channel,
        control=_control,
        intersections=lambda _raw, _path: intersections,
        spawns=lambda section, path: _read(SpawnPlan, section, path, events=events),
    )
    scenario.validate()
    return scenario


def load_scenario(path: str, seed_override: int | None = None) -> ScenarioConfig:
    """Load a scenario file; optionally override the seed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    scenario = parse_scenario(raw)
    if seed_override is not None:
        scenario = dataclasses.replace(
            scenario, engine=dataclasses.replace(scenario.engine, seed=seed_override)
        )
    return scenario


def normalized_dump(scenario: ScenarioConfig) -> str:
    """Resolved effective config as stable JSON (for `validate` output)."""
    return json.dumps(dataclasses.asdict(scenario), indent=2, sort_keys=True)
