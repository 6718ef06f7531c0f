"""Scenario-file loading and validation.

Scenario files are YAML (plain JSON also parses). Every section is
optional and falls back to documented defaults, but unknown keys anywhere
in the tree are rejected with the offending path, so a typoed field can
never silently revert to a default. Unit-suffixed key names state the unit
of the stored number.

The config dataclasses are the schema. A field's file key is its
``metadata["key"]`` (a field without one is not read from files), its kind
is its annotation, and its default is the dataclass default, else
``metadata["default"]``. A kind is a scalar (float, int or str), a
dataclass read as a nested section, or a tuple read from a YAML list:
``tuple[X, ...]`` takes any number of items and ``tuple[X, Y]`` exactly
two, each item read as its own kind at ``path[i]``. A section in a list
defaults its ``id`` to its position. ``_read`` reads every section from
the schema; only defaults that depend on another section have readers here.
A field's numeric bounds are its ``metadata`` entries "gt", "ge" and "le",
which its class checks on construction (``types.check_bounds``); a value
outside them fails at ``section.key``.
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

from .control import ControlGains, GainTable
from .engine import DEFAULT_GAINS, ControlConfig, ScenarioConfig
from .errors import BoundError, ConfigError
from .scenario import IntersectionSpec, SpawnEvent, SpawnPlan

# libyaml's parser when PyYAML was built with it: the same objects as
# SafeLoader's, several times faster on a large scenario file.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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
    """A string (numbers read as their text) or a finite number."""
    if kind is str:
        if not isinstance(value, (str, int, float)):
            raise ConfigError(f"{path}: expected a string, got {type(value).__name__}")
        return str(value)
    return _number(value, path, kind)


def _mapping(raw: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {type(raw).__name__}")
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
    one, else by ``_value`` as its annotated kind: a scalar, a nested
    section, or a list for a ``tuple[...]`` annotation, whose section items
    default their ``id`` to their position. ``null`` on a field that may be
    None means absent. An absent key takes ``defaults[field name]``
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
            reader = readers.get(f.name)
            kwargs[f.name] = reader(value, at) if reader else _value(kind, value, at)
        elif f.name in defaults:
            kwargs[f.name] = defaults[f.name]
        elif "default" in f.metadata:
            kwargs[f.name] = f.metadata["default"]
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{_at(path, key)}: required key missing")
    try:
        return cls(**kwargs)
    except BoundError as exc:
        raise ConfigError(_at(path, str(exc))) from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _value(kind, raw: Any, path: str, item_defaults: Mapping[str, Any] | None = None):
    """``raw`` read as ``kind``: a scalar, a section with the defaults
    ``item_defaults``, or a list for a tuple kind, whose item ``i`` is read
    at ``path[i]`` with ``item_defaults`` and the ``id`` ``str(i)``."""
    if kind in (float, int, str):
        return _scalar(raw, path, kind)
    if typing.get_origin(kind) is not tuple:
        return _read(kind, raw, path, item_defaults)
    kinds = typing.get_args(kind)
    if kinds[-1] is Ellipsis:
        if not isinstance(raw, list):
            raise ConfigError(f"{path}: expected a list")
        kinds = kinds[:1] * len(raw)
    elif not isinstance(raw, list) or len(raw) != len(kinds):
        raise ConfigError(f"{path}: expected a list of {len(kinds)}")
    return tuple(
        _value(k, item, f"{path}[{i}]", {**(item_defaults or {}), "id": str(i)})
        for i, (k, item) in enumerate(zip(kinds, raw))
    )


def _control(raw: Any, path: str) -> ControlConfig:
    """The control section; ``k`` and ``gamma`` give the single gain pair
    that stands in for an absent (or null) ``gain_table``; next to one they are an error."""
    section = dict(_mapping(raw, path))
    pair = {key: section.pop(key) for key in DEFAULT_GAINS if key in section}
    gains = _read(ControlGains, pair, path, DEFAULT_GAINS)
    if section.get("gain_table") is None:
        section.pop("gain_table", None)
    elif pair:
        raise ConfigError(f"{_at(path, next(iter(pair)))}: not allowed next to a gain_table")
    single = GainTable.single(gains.k, gains.gamma)
    return _read(ControlConfig, section, path, {"gain_table": single})


def parse_scenario(raw: Mapping[str, Any]) -> ScenarioConfig:
    """Build and cross-validate a ScenarioConfig from a parsed mapping."""
    if not isinstance(raw, Mapping):
        raise ConfigError("top level: expected a mapping of sections")
    # Read ahead of the other sections: spawn events default to the first,
    # so there must be one before they are read.
    intersections = _value(
        tuple[IntersectionSpec, ...], raw.get("intersections", _ONE_INTERSECTION), "intersections"
    )
    if not intersections:
        raise ConfigError("intersections: at least one intersection required")
    first = {"intersection": intersections[0].id}
    events = functools.partial(_value, tuple[SpawnEvent, ...], item_defaults=first)
    scenario = _read(
        ScenarioConfig,
        raw,
        "",
        {"intersections": intersections},
        control=_control,
        intersections=lambda _raw, _path: intersections,
        spawns=lambda section, path: _read(SpawnPlan, section, path, events=events),
    )
    scenario.validate()
    return scenario


def load_scenario(path: str, seed_override: int | None = None) -> ScenarioConfig:
    """Load a scenario file; a seed override is read as the file's ``engine.seed``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if seed_override is not None and isinstance(raw, Mapping):
        engine = _mapping(raw.get("engine", {}), "engine")
        raw = {**raw, "engine": {**engine, "seed": seed_override}}
    return parse_scenario(raw)


def normalized_dump(scenario: ScenarioConfig) -> str:
    """Resolved effective config as stable JSON (for `validate` output)."""
    return json.dumps(dataclasses.asdict(scenario), indent=2, sort_keys=True)
