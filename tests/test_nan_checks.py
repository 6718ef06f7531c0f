"""NaN fails every constructor check and every raw-number check.

Each check is written ``not x > 0`` (or ``not x >= 0``, or a chained
comparison), the form that NaN fails; ``x <= 0`` would let it through. One
parametrized test per constructor, plus the exported functions that check a
raw number. The YAML path rejects NaN before any constructor sees it (exit
code 2, "expected a finite number"), so these are the library's own checks.
"""

import math

import pytest

from cavsim.control import ControlGains, consensus_accel
from cavsim.dynamics import DynamicsLimits, step_vehicle
from cavsim.engine import ControlConfig, EngineConfig
from cavsim.estimation import EstimatorParams, integrate_position, predict_leader_speed
from cavsim.network import ChannelModel
from cavsim.scenario import IntersectionSpec, LegSpec, RandomSpawnSpec, SpawnEvent
from cavsim.types import Beacon, TargetView, TrajectoryEstimate, VehicleState

NAN = math.nan


@pytest.mark.parametrize(
    "field", ["prediction_step", "horizon_s", "a_max", "sigma", "v_target"]
)
def test_estimator_params_reject_nan(field):
    with pytest.raises(ValueError, match=f"{field}.* must be .*nan"):
        EstimatorParams(**{field: NAN})


def test_trajectory_estimate_rejects_nan_step():
    with pytest.raises(ValueError, match="step must be > 0, got nan"):
        TrajectoryEstimate(0.0, NAN, 1.0, 0.0, (1.0,), (0.1,))


@pytest.mark.parametrize("field", ["k", "gamma"])
def test_control_gains_reject_nan(field):
    with pytest.raises(ValueError, match=f"{field}: must be"):
        ControlGains(**{"k": 0.5, "gamma": 0.8, field: NAN})


@pytest.mark.parametrize("field", ["sim_step", "duration"])
def test_engine_config_rejects_nan(field):
    with pytest.raises(ValueError, match=f"{field}_s: must be"):
        EngineConfig(**{field: NAN})


def test_control_config_rejects_nan_time_gap():
    with pytest.raises(ValueError, match="time_gap_s: must be > 0, got nan"):
        ControlConfig(time_gap=NAN)


@pytest.mark.parametrize(
    "fields",
    [
        {"delay_mean": NAN},
        {"delay_std": NAN},
        {"nlos_windows": ((NAN, 5.0),)},
        {"nlos_windows": ((4.0, NAN),)},
        {"nlos_windows": ((1.0, 2.0), (NAN, 5.0))},
    ],
    ids=["delay_mean", "delay_std", "window_start", "window_end", "second_window_start"],
)
def test_channel_model_rejects_nan(fields):
    with pytest.raises(ValueError):
        ChannelModel(**fields)


def test_beacon_rejects_nan_send_time():
    state = VehicleState(0.0, 1.0, 0.0, 5.0, "a")
    estimate = TrajectoryEstimate(1.0, 0.1, 1.0, 0.0, (1.0,), (0.1,))
    with pytest.raises(ValueError, match="send time nan"):
        Beacon(0, NAN, state, estimate)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LegSpec("a", NAN),
        lambda: IntersectionSpec("x", (LegSpec("a", 200.0),), control_zone_radius=NAN),
        lambda: SpawnEvent(0.0, "x", "a", speed=NAN),
        lambda: SpawnEvent(0.0, "x", "a", speed=10.0, length=NAN),
        lambda: SpawnEvent(0.0, "x", "a", speed=10.0, start_offset=NAN),
        lambda: RandomSpawnSpec(rate_per_leg=NAN, speed_min=8.0, speed_max=14.0),
    ],
    ids=["approach_length", "control_zone_radius", "speed", "length", "start_offset", "rate"],
)
def test_scenario_specs_reject_nan(build):
    with pytest.raises(ValueError, match="got nan"):
        build()


@pytest.mark.parametrize(
    "call",
    [
        lambda: step_vehicle(VehicleState(0.0, 1.0, 0.0, 5.0, "a"), 0.0, NAN, DynamicsLimits()),
        lambda: consensus_accel(
            VehicleState(0.0, 1.0, 0.0, 5.0, "a"),
            TargetView(10.0, 1.0, 5.0, NAN),
            ControlGains(0.5, 0.8),
        ),
        lambda: predict_leader_speed(EstimatorParams(), NAN),
        lambda: integrate_position(0.0, 1.0, [1.0], NAN),
    ],
    ids=["step_vehicle_dt", "consensus_time_gap", "leader_v_now", "integrate_step"],
)
def test_functions_reject_nan_raw_numbers(call):
    with pytest.raises(ValueError, match="got nan"):
        call()
