"""Shared scenario builders for the test suite."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import settings

from cavsim.engine import ControlConfig, EngineConfig, ScenarioConfig
from cavsim.estimation import EstimatorParams
from cavsim.network import ChannelModel
from cavsim.scenario import (
    IntersectionSpec,
    LegSpec,
    RandomSpawnSpec,
    SpawnEvent,
    SpawnPlan,
)

# Tier-1 is deterministic: every Hypothesis test draws the same examples on
# every run, and no example database carries a failure over to the next run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

PERFECT_CHANNEL = ChannelModel(
    delay_mean=0.0, delay_std=0.0, loss_prob=0.0, nlos_windows=()
)


def perfect_two_vehicle(
    duration: float = 60.0,
    seed: int = 7,
    leader_speed: float = 12.0,
    follower_speed: float = 11.0,
    gap: float = 27.0,
    sim_step: float = 0.1,
    prediction_step: float = 0.1,
) -> ScenarioConfig:
    """Two-vehicle chain on one long approach, ideal communication.

    The approach is long enough that neither vehicle reaches the crossing
    point within ``duration``, so the pair stays associated throughout.
    """
    spec = IntersectionSpec(
        id="x", legs=(LegSpec("a", 1200.0),), control_zone_radius=1150.0
    )
    head = 100.0
    return ScenarioConfig(
        engine=EngineConfig(sim_step=sim_step, duration=duration, seed=seed),
        channel=PERFECT_CHANNEL,
        estimator=EstimatorParams(
            prediction_step=prediction_step, horizon_s=5.0, v_target=15.0
        ),
        control=ControlConfig(),
        intersections=(spec,),
        spawns=SpawnPlan(
            events=(
                SpawnEvent(
                    time=0.0, intersection="x", leg="a",
                    speed=leader_speed, length=5.0, start_offset=head,
                ),
                SpawnEvent(
                    time=0.0, intersection="x", leg="a",
                    speed=follower_speed, length=5.0, start_offset=head - gap,
                ),
            )
        ),
    )


# Five-vehicle crossing with measured LTE-like delay, hybrid loss on the
# mid-chain vehicle's links, and two back-to-back NLOS windows. The initial
# speed spread keeps the string mid-maneuver while the windows are active.
_STRESS_LAYOUT = (
    ("a", 190.0, 15.0),
    ("b", 157.0, 8.0),
    ("c", 127.0, 16.0),
    ("a", 99.0, 7.5),
    ("c", 71.0, 16.0),
)
_STRESS_LEGS = {"a": 320.0, "b": 300.0, "c": 340.0}


def paper_stress(
    seed: int = 1,
    prediction_step: float = 0.01,
    duration: float = 30.0,
) -> ScenarioConfig:
    spec = IntersectionSpec(
        id="x",
        legs=tuple(LegSpec(lid, length) for lid, length in _STRESS_LEGS.items()),
        control_zone_radius=290.0,
    )
    crossing = max(_STRESS_LEGS.values())
    events = tuple(
        SpawnEvent(
            time=0.0,
            intersection="x",
            leg=leg,
            speed=speed,
            length=5.0,
            start_offset=s - (crossing - _STRESS_LEGS[leg]),
        )
        for leg, s, speed in _STRESS_LAYOUT
    )
    return ScenarioConfig(
        engine=EngineConfig(sim_step=0.02, duration=duration, seed=seed),
        channel=ChannelModel(
            delay_mean=0.040,
            delay_std=0.0259,
            loss_prob=0.1,
            nlos_windows=((4.0, 6.0), (6.0, 8.0)),
            impaired_vehicles=(2,),
        ),
        estimator=EstimatorParams(
            prediction_step=prediction_step, horizon_s=5.0, v_target=15.0
        ),
        control=ControlConfig(),
        intersections=(spec,),
        spawns=SpawnPlan(events=events),
    )


def nominal_twenty(seed: int = 42) -> ScenarioConfig:
    """Twenty vehicles over three legs, ideal communication."""
    spec = IntersectionSpec(
        id="x",
        legs=(LegSpec("a", 250.0), LegSpec("b", 230.0), LegSpec("c", 260.0)),
        control_zone_radius=150.0,
    )
    return ScenarioConfig(
        engine=EngineConfig(sim_step=0.1, duration=120.0, seed=seed),
        channel=PERFECT_CHANNEL,
        estimator=EstimatorParams(prediction_step=0.1, horizon_s=5.0, v_target=14.0),
        control=ControlConfig(),
        intersections=(spec,),
        spawns=SpawnPlan(
            random=RandomSpawnSpec(
                rate_per_leg=0.09,
                speed_min=10.0,
                speed_max=13.0,
                length=5.0,
                max_vehicles=20,
            ),
            min_spawn_gap=12.0,
        ),
    )


def timing_bench(duration: float = 2.0, prediction_step: float = 0.1) -> ScenarioConfig:
    """Wide chain with a long horizon, sized so the per-step cost of the
    estimator dominates host timing noise. Used only for the computational
    load trend."""
    spec = IntersectionSpec(
        id="x", legs=(LegSpec("a", 6000.0),), control_zone_radius=5900.0
    )
    events = []
    s = 4200.0
    for _ in range(150):
        events.append(
            SpawnEvent(
                time=0.0, intersection="x", leg="a",
                speed=13.0, length=5.0, start_offset=s,
            )
        )
        s -= 26.0
    return ScenarioConfig(
        engine=EngineConfig(sim_step=0.02, duration=duration, seed=3),
        channel=PERFECT_CHANNEL,
        estimator=EstimatorParams(
            prediction_step=prediction_step, horizon_s=40.0, v_target=13.5
        ),
        control=ControlConfig(),
        intersections=(spec,),
        spawns=SpawnPlan(events=tuple(events)),
    )


def with_seed(scenario: ScenarioConfig, seed: int) -> ScenarioConfig:
    return dataclasses.replace(
        scenario, engine=dataclasses.replace(scenario.engine, seed=seed)
    )


def with_prediction_step(scenario: ScenarioConfig, step: float) -> ScenarioConfig:
    return dataclasses.replace(
        scenario,
        estimator=dataclasses.replace(scenario.estimator, prediction_step=step),
    )


@pytest.fixture
def two_vehicle_scenario() -> ScenarioConfig:
    return perfect_two_vehicle()


@pytest.fixture
def stress_scenario() -> ScenarioConfig:
    return paper_stress()
