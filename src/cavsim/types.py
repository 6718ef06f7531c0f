"""Shared domain types, trajectory-horizon access and config-field bounds.

All times are seconds on the simulation clock; positions are meters along
the virtual lane; speeds m/s; accelerations m/s^2. A vehicle's ``position``
is its front bumper, so the bumper-to-bumper gap to a leading vehicle j is
``r_j - l_j - r_i``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

from .errors import BoundError, NumericFault

SimTime = float
VehicleId = int

_INF = math.inf
_new_tuple = tuple.__new__
_setattr = object.__setattr__

# Relative tolerance of the sample grid (``snap_to_grid``) and step clock (``grid_cutoff``).
_GRID_RTOL = 1e-9

# A field's bounds are its metadata entries "gt", "ge" and "le"; all must hold.
_BOUND_OPS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "le": (operator.le, "<=")}


@functools.cache
def _bounds(cls) -> tuple[tuple[str, str, tuple], ...]:
    """(field name, key, ((test, symbol, limit), ...)) for each bounded field
    of ``cls``; the key is ``metadata["key"]``, else the field's name."""
    return tuple(
        (f.name, f.metadata.get("key", f.name), bounds)
        for f in dataclasses.fields(cls)
        if (bounds := tuple((*_BOUND_OPS[b], f.metadata[b]) for b in _BOUND_OPS if b in f.metadata))
    )


def check_bounds(obj) -> None:
    """Raise BoundError naming the key and value of the first field of the
    config dataclass ``obj`` outside its declared bounds. Every bound must
    hold as written, so NaN fails it; None (an absent optional key) has none."""
    for name, key, bounds in _bounds(type(obj)):
        value = getattr(obj, name)
        if value is not None and not all(test(value, limit) for test, _, limit in bounds):
            rule = " and ".join(f"{symbol} {limit}" for _, symbol, limit in bounds)
            raise BoundError(key, f"must be {rule}, got {value}")


@dataclass(frozen=True, init=False)
class VehicleState:
    """Ground-truth longitudinal state of one vehicle on the virtual lane.

    A frozen dataclass whose constructor is written by hand, since the plant
    builds one per vehicle and step: it checks the arguments themselves and
    stores them with a pre-bound ``object.__setattr__``, without the
    generated constructor's per-field attribute lookup and its
    ``__post_init__`` call. It does not write ``__dict__`` directly, which
    would turn every later field read into a dict lookup. Construction,
    ``repr``, ``==``, ``hash``, ``dataclasses.replace``/``asdict``, ``vars``
    and pickling behave as the generated ones do.
    """

    position: float
    speed: float
    acceleration: float
    length: float
    leg: str

    def __init__(
        self, position: float, speed: float, acceleration: float, length: float, leg: str
    ) -> None:
        # One chained comparison per field; NaN fails every comparison.
        if not 0.0 <= speed < _INF:
            if speed < 0.0:
                raise ValueError(f"speed must be >= 0, got {speed}")
            raise NumericFault(f"non-finite speed {speed}")
        if not -_INF < position < _INF:
            raise NumericFault(f"non-finite position {position}")
        if not -_INF < acceleration < _INF:
            raise NumericFault(f"non-finite acceleration {acceleration}")
        if not length > 0.0:
            raise ValueError(f"length must be > 0, got {length}")
        _setattr(self, "position", position)
        _setattr(self, "speed", speed)
        _setattr(self, "acceleration", acceleration)
        _setattr(self, "length", length)
        _setattr(self, "leg", leg)


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
        # Written as `not x > 0` so NaN fails.
        if not self.step > 0.0:
            raise ValueError(f"step must be > 0, got {self.step}")
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


class Beacon(namedtuple("Beacon", ("sender", "send_time", "state", "estimate"))):
    """One broadcast message: sender's ground truth plus its estimate.

    ``estimate.anchor_time <= send_time`` on the step clock (``grid_cutoff``):
    the estimate refreshes on prediction boundaries, which may be coarser
    than the beacon rate. A NaN send time fails the check too.

    An immutable named tuple, with the check in ``__new__``: every vehicle
    with a follower builds one per step. Fields are read by name.
    """

    __slots__ = ()

    def __new__(
        cls,
        sender: VehicleId,
        send_time: SimTime,
        state: VehicleState,
        estimate: TrajectoryEstimate,
    ) -> "Beacon":
        anchor = estimate.anchor_time
        if not anchor <= grid_cutoff(send_time):
            raise ValueError(f"estimate anchored at {anchor}, after beacon send time {send_time}")
        return _new_tuple(cls, (sender, send_time, state, estimate))

    @classmethod
    def _make(cls, iterable) -> "Beacon":
        # The named tuple's own ``_make`` (and so ``_replace``) would skip
        # the check.
        return cls(*iterable)


@dataclass
class TargetView:
    """Target-vehicle motion as supplied to the consensus controller;
    ``horizon_exhausted`` if read past the end of the target's horizon."""

    position: float
    speed: float
    length: float
    time_gap: float
    horizon_exhausted: bool = False


def snap_to_grid(x: float) -> float:
    """A fractional sample index, snapped onto the nearest whole sample
    when within one part in 1e9 of it, so a time that is a whole number of
    steps past the anchor in exact arithmetic reads that sample.
    ``lerp_trajectory``, the follower's compensated read, the controller
    view's one-step age test and the step-ratio check all decide through it."""
    nearest = round(x)
    if math.isclose(x, nearest, rel_tol=_GRID_RTOL, abs_tol=_GRID_RTOL):
        return float(nearest)
    return x


def grid_cutoff(now: SimTime) -> SimTime:
    """The latest time at or before ``now`` on the step clock: ``now`` plus
    ``snap_to_grid``'s tolerance, one part in 1e9 of ``now`` (of 1 s below 1 s)."""
    return now + _GRID_RTOL * (now if now > 1.0 else 1.0)


def lerp_trajectory(est: TrajectoryEstimate, query_time: SimTime) -> tuple[float, float]:
    """Read (speed, position) from a horizon at an arbitrary time: the one
    scalar read of a broadcast horizon.

    The query is placed on the sample grid by ``snap_to_grid``, so exact
    sample times return the stored samples, and times between samples k-1
    and k interpolate linearly. Past ``end_time`` the final speed is held
    and the position dead-reckoned at it. Queries at or before the anchor
    are rejected.
    """
    x = snap_to_grid((query_time - est.anchor_time) / est.step)
    if x <= 0.0:
        raise ValueError(f"query {query_time} not after anchor {est.anchor_time}")
    n = est.horizon_len
    if x > n:
        v = est.speed_at(n)
        return v, est.position_at(n) + v * (query_time - est.end_time)
    k = math.ceil(x)
    w = x - (k - 1)
    if w == 1.0:
        return est.speed_at(k), est.position_at(k)
    v0, v1 = est.speed_at(k - 1), est.speed_at(k)
    r0, r1 = est.position_at(k - 1), est.position_at(k)
    return v0 + w * (v1 - v0), r0 + w * (r1 - r0)
