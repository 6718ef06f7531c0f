"""Scenario-file loading and validation.

Scenario files are YAML (plain JSON also parses). Every section is
optional and falls back to documented defaults, but unknown keys anywhere
in the tree are rejected with the offending path, so a typoed field can
never silently revert to a default. Unit-suffixed key names state the unit
of the stored number.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Mapping

import yaml

from .control import GainTable
from .dynamics import DynamicsLimits
from .engine import ControlConfig, EngineConfig, EstimatorSettings, ScenarioConfig
from .errors import ConfigError
from .network import BurstLossModel, ChannelModel
from .scenario import (
    IntersectionSpec,
    LegSpec,
    RandomSpawnSpec,
    SpawnEvent,
    SpawnPlan,
)

_ENGINE_KEYS = {"sim_step_s", "duration_s", "seed", "record_every"}
_CHANNEL_KEYS = {
    "delay_mean_s",
    "delay_std_s",
    "loss_prob",
    "nlos_windows",
    "burst",
    "impaired_vehicles",
}
_BURST_KEYS = {"p_good_to_bad", "p_bad_to_good"}
_ESTIMATOR_KEYS = {
    "prediction_step_s",
    "horizon_s",
    "a_max",
    "sigma",
    "v_target",
    "implicit_solve",
}
_CONTROL_KEYS = {"k", "gamma", "time_gap_s", "gain_table"}
_GAIN_TABLE_KEYS = {"v_i_edges", "v_j_edges", "headway_edges", "entries"}
_DYNAMICS_KEYS = {"accel_max", "decel_max", "speed_max"}
_INTERSECTION_KEYS = {"id", "legs", "control_zone_radius_m", "conflict_zone_length_m"}
_LEG_KEYS = {"id", "approach_length_m"}
_SPAWNS_KEYS = {"events", "random", "min_spawn_gap_m"}
_EVENT_KEYS = {"time_s", "intersection", "leg", "speed_mps", "length_m", "start_offset_m"}
_RANDOM_KEYS = {"rate_per_leg", "speed_min_mps", "speed_max_mps", "length_m", "max_vehicles"}
_TOP_KEYS = {"engine", "channel", "estimator", "control", "dynamics", "intersections", "spawns"}


def _require_keys(section: Mapping[str, Any], allowed: set[str], path: str) -> None:
    if not isinstance(section, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {type(section).__name__}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


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


def _field(section: Mapping[str, Any], key: str, default: Any, path: str, kind: type = float):
    """Numeric key ``key`` of the section at ``path``, read through ``_number``."""
    return _number(section.get(key, default), f"{path}.{key}", kind)


def _build(cls, path: str, **kwargs):
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_engine(raw: Mapping[str, Any]) -> EngineConfig:
    _require_keys(raw, _ENGINE_KEYS, "engine")
    return _build(
        EngineConfig,
        "engine",
        sim_step=_field(raw, "sim_step_s", 0.1, "engine"),
        duration=_field(raw, "duration_s", 30.0, "engine"),
        seed=_field(raw, "seed", 42, "engine", int),
        record_every=_field(raw, "record_every", 1, "engine", int),
    )


def _parse_channel(raw: Mapping[str, Any]) -> ChannelModel:
    _require_keys(raw, _CHANNEL_KEYS, "channel")
    windows = raw.get("nlos_windows", [])
    if not isinstance(windows, list):
        raise ConfigError("channel.nlos_windows: expected a list of [start, end]")
    parsed_windows = []
    for i, win in enumerate(windows):
        if not isinstance(win, (list, tuple)) or len(win) != 2:
            raise ConfigError(f"channel.nlos_windows[{i}]: expected [start_s, end_s]")
        parsed_windows.append(
            (
                _number(win[0], f"channel.nlos_windows[{i}][0]"),
                _number(win[1], f"channel.nlos_windows[{i}][1]"),
            )
        )
    burst = None
    if raw.get("burst") is not None:
        _require_keys(raw["burst"], _BURST_KEYS, "channel.burst")
        burst = _build(
            BurstLossModel,
            "channel.burst",
            p_good_to_bad=_field(raw["burst"], "p_good_to_bad", 0.0, "channel.burst"),
            p_bad_to_good=_field(raw["burst"], "p_bad_to_good", 1.0, "channel.burst"),
        )
    impaired = raw.get("impaired_vehicles")
    if impaired is not None:
        if not isinstance(impaired, list):
            raise ConfigError("channel.impaired_vehicles: expected a list of vehicle ids")
        impaired = tuple(
            _number(v, f"channel.impaired_vehicles[{n}]", int) for n, v in enumerate(impaired)
        )
    return _build(
        ChannelModel,
        "channel",
        delay_mean=_field(raw, "delay_mean_s", 0.040, "channel"),
        delay_std=_field(raw, "delay_std_s", 0.0259, "channel"),
        loss_prob=_field(raw, "loss_prob", 0.1, "channel"),
        nlos_windows=tuple(parsed_windows),
        burst=burst,
        impaired_vehicles=impaired,
    )


def _parse_estimator(raw: Mapping[str, Any]) -> EstimatorSettings:
    _require_keys(raw, _ESTIMATOR_KEYS, "estimator")
    return _build(
        EstimatorSettings,
        "estimator",
        prediction_step=_field(raw, "prediction_step_s", 0.1, "estimator"),
        horizon_s=_field(raw, "horizon_s", 5.0, "estimator"),
        a_max=_field(raw, "a_max", 0.73, "estimator"),
        sigma=_field(raw, "sigma", 4.0, "estimator"),
        v_target=_field(raw, "v_target", 15.0, "estimator"),
        implicit_solve=bool(raw.get("implicit_solve", False)),
    )


def _parse_gain_table(raw: Mapping[str, Any]) -> GainTable:
    path = "control.gain_table"
    _require_keys(raw, _GAIN_TABLE_KEYS, path)

    def edges(key: str) -> tuple[float, ...]:
        values = raw.get(key, [0.0])
        if not isinstance(values, list):
            raise ConfigError(f"{path}.{key}: expected a list of numbers")
        return tuple(_number(e, f"{path}.{key}[{n}]") for n, e in enumerate(values))

    def gains(pair: Any, at: str) -> tuple[float, float]:
        return _number(pair[0], f"{at}[0]"), _number(pair[1], f"{at}[1]")

    try:
        entries = tuple(
            tuple(
                tuple(gains(pair, f"{path}.entries[{p}][{r}][{c}]") for c, pair in enumerate(row))
                for r, row in enumerate(plane)
            )
            for p, plane in enumerate(raw["entries"])
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ConfigError(f"{path}.entries: malformed ({exc})") from exc
    return _build(
        GainTable,
        path,
        v_i_edges=edges("v_i_edges"),
        v_j_edges=edges("v_j_edges"),
        headway_edges=edges("headway_edges"),
        entries=entries,
    )


def _parse_control(raw: Mapping[str, Any]) -> ControlConfig:
    _require_keys(raw, _CONTROL_KEYS, "control")
    k = _field(raw, "k", 0.5, "control")
    gamma = _field(raw, "gamma", 0.8, "control")
    if raw.get("gain_table") is not None:
        table = _parse_gain_table(raw["gain_table"])
    else:
        table = GainTable.single(k, gamma)
    return _build(
        ControlConfig,
        "control",
        time_gap=_field(raw, "time_gap_s", 1.5, "control"),
        gain_table=table,
    )


def _parse_dynamics(raw: Mapping[str, Any]) -> DynamicsLimits:
    _require_keys(raw, _DYNAMICS_KEYS, "dynamics")
    return _build(
        DynamicsLimits,
        "dynamics",
        accel_max=_field(raw, "accel_max", 3.0, "dynamics"),
        decel_max=_field(raw, "decel_max", 5.0, "dynamics"),
        speed_max=_field(raw, "speed_max", 20.0, "dynamics"),
    )


def _parse_intersections(raw: Any) -> tuple[IntersectionSpec, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("intersections: expected a non-empty list")
    specs = []
    for i, item in enumerate(raw):
        path = f"intersections[{i}]"
        _require_keys(item, _INTERSECTION_KEYS, path)
        legs_raw = item.get("legs")
        if not isinstance(legs_raw, list) or not legs_raw:
            raise ConfigError(f"{path}.legs: expected a non-empty list")
        legs = []
        for j, leg in enumerate(legs_raw):
            _require_keys(leg, _LEG_KEYS, f"{path}.legs[{j}]")
            legs.append(
                _build(
                    LegSpec,
                    f"{path}.legs[{j}]",
                    id=str(leg.get("id", j)),
                    approach_length=_field(leg, "approach_length_m", 200.0, f"{path}.legs[{j}]"),
                )
            )
        specs.append(
            _build(
                IntersectionSpec,
                path,
                id=str(item.get("id", i)),
                legs=tuple(legs),
                control_zone_radius=_field(item, "control_zone_radius_m", 150.0, path),
                conflict_zone_length=_field(item, "conflict_zone_length_m", 12.0, path),
            )
        )
    return tuple(specs)


def _parse_spawns(raw: Mapping[str, Any], default_intersection: str) -> SpawnPlan:
    _require_keys(raw, _SPAWNS_KEYS, "spawns")
    events = []
    for i, item in enumerate(raw.get("events", [])):
        path = f"spawns.events[{i}]"
        _require_keys(item, _EVENT_KEYS, path)
        events.append(
            _build(
                SpawnEvent,
                path,
                time=_field(item, "time_s", 0.0, path),
                intersection=str(item.get("intersection", default_intersection)),
                leg=str(item["leg"]) if "leg" in item else _missing(path, "leg"),
                speed=_field(item, "speed_mps", 10.0, path),
                length=_field(item, "length_m", 5.0, path),
                start_offset=_field(item, "start_offset_m", 0.0, path),
            )
        )
    random_spec = None
    if raw.get("random") is not None:
        _require_keys(raw["random"], _RANDOM_KEYS, "spawns.random")
        rr = raw["random"]
        max_vehicles = rr.get("max_vehicles")
        random_spec = _build(
            RandomSpawnSpec,
            "spawns.random",
            rate_per_leg=_field(rr, "rate_per_leg", 0.1, "spawns.random"),
            speed_min=_field(rr, "speed_min_mps", 8.0, "spawns.random"),
            speed_max=_field(rr, "speed_max_mps", 14.0, "spawns.random"),
            length=_field(rr, "length_m", 5.0, "spawns.random"),
            max_vehicles=(
                _number(max_vehicles, "spawns.random.max_vehicles", int)
                if max_vehicles is not None
                else None
            ),
        )
    return _build(
        SpawnPlan,
        "spawns",
        events=tuple(events),
        random=random_spec,
        min_spawn_gap=_field(raw, "min_spawn_gap_m", 10.0, "spawns"),
    )


def _missing(path: str, key: str):
    raise ConfigError(f"{path}.{key}: required key missing")


def parse_scenario(raw: Mapping[str, Any]) -> ScenarioConfig:
    """Build and cross-validate a ScenarioConfig from a parsed mapping."""
    if not isinstance(raw, Mapping):
        raise ConfigError("top level: expected a mapping of sections")
    _require_keys(raw, _TOP_KEYS, "top level")
    intersections = _parse_intersections(raw.get("intersections", [{"id": "x", "legs": [{"id": "a"}]}]))
    scenario = ScenarioConfig(
        engine=_parse_engine(raw.get("engine", {})),
        channel=_parse_channel(raw.get("channel", {})),
        estimator=_parse_estimator(raw.get("estimator", {})),
        control=_parse_control(raw.get("control", {})),
        limits=_parse_dynamics(raw.get("dynamics", {})),
        intersections=intersections,
        spawns=_parse_spawns(raw.get("spawns", {}), intersections[0].id),
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

    def encode(obj: Any) -> Any:
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {k: encode(v) for k, v in dataclasses.asdict(obj).items()}
        if isinstance(obj, tuple):
            return [encode(v) for v in obj]
        if isinstance(obj, dict):
            return {k: encode(v) for k, v in obj.items()}
        return obj

    return json.dumps(encode(scenario), indent=2, sort_keys=True)
