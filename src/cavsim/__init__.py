"""Consensus-controlled connected-vehicle simulator with motion estimation
under communication delay and packet loss."""

import logging

from .control import ControlGains, GainTable, consensus_accel, lookup_gains
from .dynamics import DynamicsLimits, step_vehicle
from .engine import (
    ControlConfig,
    EngineConfig,
    RunResult,
    ScenarioConfig,
    run,
    sweep_prediction_step,
)
from .errors import CavSimError, ColdStart, ConfigError, NumericFault
from .estimation import (
    EstimatorParams,
    integrate_position,
    predict_leader_speed,
    target_motion_for_control,
)
from .network import ChannelModel, transmit
from .scenario import (
    IntersectionSpec,
    LegSpec,
    SpawnEvent,
    SpawnPlan,
    assign_targets,
    project_to_virtual_lane,
    safety_check,
)
from .types import Beacon, TargetView, TrajectoryEstimate, VehicleState, lerp_trajectory

__version__ = "0.1.0"

# Library use stays silent unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())
