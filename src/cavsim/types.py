"""Shared domain types and trajectory-horizon access.

All times are seconds on the simulation clock; positions are meters along
the virtual lane; speeds m/s; accelerations m/s^2. A vehicle's ``position``
is its front bumper, so the bumper-to-bumper gap to a leading vehicle j is
``r_j - l_j - r_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import HorizonExhausted, NumericFault

SimTime = float
VehicleId = int

_INF = math.inf

# Relative tolerance used to snap horizon queries onto exact sample times.
_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class VehicleState:
    """Ground-truth longitudinal state of one vehicle on the virtual lane."""

    position: float
    speed: float
    acceleration: float
    length: float
    leg: str

    def __post_init__(self) -> None:
        # One chained comparison per field; NaN fails every comparison.
        if not 0.0 <= self.speed < _INF:
            if self.speed < 0.0:
                raise ValueError(f"speed must be >= 0, got {self.speed}")
            raise NumericFault(f"non-finite speed {self.speed}")
        if not -_INF < self.position < _INF:
            raise NumericFault(f"non-finite position {self.position}")
        if not -_INF < self.acceleration < _INF:
            raise NumericFault(f"non-finite acceleration {self.acceleration}")
        if not self.length > 0.0:
            raise ValueError(f"length must be > 0, got {self.length}")


@dataclass(frozen=True)
class TrajectoryEstimate:
    """Predicted future speeds and positions over a fixed horizon.

    ``speeds[k-1]`` is the predicted speed at ``anchor_time + k * step`` for
    k = 1..N; ``positions`` likewise. The anchor samples (``anchor_speed``,
    ``anchor_position``) are the producing vehicle's state at ``anchor_time``
    and serve as the base of both recursions, so interpolation between
    sample k-1 and k is defined down to k = 1. The anchors must be finite;
    the samples are not checked here, the estimator checks what it reads.

    A horizon is either a tuple of floats (the scalar recursions) or a
    read-only 1-D float64 view into the chain kernel's sample arrays
    (``estimation.chain_follower_horizons``), which a whole chain's
    estimates share. Read samples through ``speed_at``/``position_at``,
    which return Python floats for both, or hand the sequence to numpy.
    ``==`` and ``hash`` are undefined for a view-backed estimate, so code
    tells estimates apart by identity (``is``).
    """

    anchor_time: SimTime
    step: float
    anchor_speed: float
    anchor_position: float
    speeds: Sequence[float]
    positions: Sequence[float]

    def __post_init__(self) -> None:
        if self.step <= 0.0:
            raise ValueError("step must be > 0")
        if not -_INF < self.anchor_speed < _INF:
            raise NumericFault(f"non-finite anchor speed {self.anchor_speed}")
        if not -_INF < self.anchor_position < _INF:
            raise NumericFault(f"non-finite anchor position {self.anchor_position}")
        if len(self.speeds) != len(self.positions):
            raise ValueError("speeds and positions must have equal length")
        if len(self.speeds) == 0:
            raise ValueError("horizon must contain at least one sample")

    @property
    def horizon_len(self) -> int:
        return len(self.speeds)

    @property
    def end_time(self) -> SimTime:
        return self.anchor_time + self.horizon_len * self.step

    def speed_at(self, k: int) -> float:
        """Speed sample at index k, where k = 0 is the anchor."""
        return self.anchor_speed if k == 0 else float(self.speeds[k - 1])

    def position_at(self, k: int) -> float:
        """Position sample at index k, where k = 0 is the anchor."""
        return self.anchor_position if k == 0 else float(self.positions[k - 1])


@dataclass(frozen=True)
class Beacon:
    """One broadcast message: sender's ground truth plus its estimate.

    ``estimate.anchor_time <= send_time``: the estimate refreshes on
    prediction boundaries, which may be coarser than the beacon rate.
    """

    sender: VehicleId
    send_time: SimTime
    state: VehicleState
    estimate: TrajectoryEstimate

    def __post_init__(self) -> None:
        if self.estimate.anchor_time > self.send_time + 1e-12:
            raise ValueError("estimate anchored after beacon send time")


@dataclass
class TargetView:
    """Target-vehicle motion as supplied to the consensus controller."""

    position: float
    speed: float
    length: float
    time_gap: float


def _sample_index(est: TrajectoryEstimate, query_time: SimTime) -> tuple[int, float]:
    """Locate ``query_time`` on the horizon grid.

    Returns (k, w): the enclosing upper sample index k in 1..N and the
    interpolation weight w in (0, 1], with w == 1.0 meaning an exact hit
    on sample k. Queries within one part in 1e9 of a sample snap onto it.
    """
    x = (query_time - est.anchor_time) / est.step
    nearest = round(x)
    if math.isclose(x, nearest, rel_tol=_GRID_RTOL, abs_tol=_GRID_RTOL):
        x = float(nearest)
    if x <= 0.0:
        raise ValueError(
            f"query {query_time} not after anchor {est.anchor_time}"
        )
    if x > est.horizon_len:
        raise HorizonExhausted(
            f"query {query_time} beyond horizon end {est.end_time}"
        )
    k = math.ceil(x)
    w = x - (k - 1)
    return k, w


def lerp_trajectory(est: TrajectoryEstimate, query_time: SimTime) -> tuple[float, float]:
    """Read (speed, position) from a horizon at an arbitrary time.

    Exact sample times return the stored samples; times between samples
    k-1 and k interpolate linearly. Queries at or before the anchor are
    rejected, queries past ``anchor_time + N*step`` raise HorizonExhausted.
    """
    k, w = _sample_index(est, query_time)
    if w == 1.0:
        return est.speed_at(k), est.position_at(k)
    v0, v1 = est.speed_at(k - 1), est.speed_at(k)
    r0, r1 = est.position_at(k - 1), est.position_at(k)
    return v0 + w * (v1 - v0), r0 + w * (r1 - r0)
