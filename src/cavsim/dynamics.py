"""High-level longitudinal plant.

Double-integrator kinematics advanced by explicit Euler, with the position
integrated from the pre-update speed. The motion estimator uses exactly the
same scheme, so under perfect communication the two stay bit-identical.
Commanded acceleration is tracked perfectly up to saturation; powertrain and
brake actuation are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NumericFault
from .types import VehicleState, check_bounds


@dataclass(frozen=True)
class DynamicsLimits:
    """Actuator saturation. ``decel_max`` is a magnitude; infinite limits are allowed."""

    accel_max: float = field(default=3.0, metadata={"key": "accel_max", "gt": 0})
    decel_max: float = field(default=5.0, metadata={"key": "decel_max", "gt": 0})
    speed_max: float = field(default=20.0, metadata={"key": "speed_max", "gt": 0})

    __post_init__ = check_bounds


def step_vehicle(
    state: VehicleState,
    accel_cmd: float,
    dt: float,
    limits: DynamicsLimits,
) -> VehicleState:
    """Advance one vehicle by one step of duration ``dt``.

    The applied acceleration is the command clamped into
    [-decel_max, +accel_max]; position advances with the pre-update speed;
    the new speed is clamped into [0, speed_max].
    """
    # Written as `not x > 0` so NaN fails.
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not math.isfinite(accel_cmd):
        raise NumericFault(f"non-finite acceleration command: {accel_cmd}")
    applied = accel_cmd
    if applied < -limits.decel_max:
        applied = -limits.decel_max
    elif applied > limits.accel_max:
        applied = limits.accel_max
    new_position = state.position + state.speed * dt
    new_speed = state.speed + applied * dt
    if new_speed < 0.0:
        new_speed = 0.0
    elif new_speed > limits.speed_max:
        new_speed = limits.speed_max
    # Positional: this runs once per vehicle and step, and keyword passing
    # costs a measurable share of the constructor.
    return VehicleState(new_position, new_speed, applied, state.length, state.leg)
