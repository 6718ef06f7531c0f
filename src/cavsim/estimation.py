"""Future-trajectory estimation and stale-data compensation.

Each vehicle predicts its own motion over a horizon of N samples spaced
``prediction_step`` apart and broadcasts the result. There is one
forward-Euler recursion per vehicle role. A chain leader predicts free
driving toward a preset target speed (``_leader_horizon``); a follower
propagates the consensus law along the horizon using its target's latest
broadcast (``follower_estimate``). When no beacon arrives, the previous
estimate is held: shifted to the new anchor, down to its final sample,
which is never dropped. A broadcast horizon is read by one rule: at the
time it is needed, snapped onto the sample grid, interpolated between
samples, with the final speed held and the position dead-reckoned at it
past the end (``types.lerp_trajectory`` is its scalar form).
The controller's view of the target (``target_motion_for_control``) reads
it at the current time once the latest beacon is a prediction step old, an
age also snapped onto the grid (its ground truth before that); a
follower's transition k reads it at the time the transition steps from,
which compensates the horizon's age.

The file's ``estimator`` section is read as ``EstimatorParams``. The
functions here keep no state; the engine's vehicle record holds it.

Conventions shared with the plant: forward Euler, positions integrated from
the pre-update speed, speeds clamped into the actuator envelope
(unbounded unless limits are given). Clamps are written as ``if x < lo`` /
``elif x > hi`` branches, which return the same float as
``min(max(x, lo), hi)`` for every input, NaN and signed zeros included,
at a fraction of the interpreter cost. The follower recursion applies the
consensus law to the previous-sample pair of both vehicles, which makes the
one-step-ahead estimate bit-identical to the plant under zero delay, zero
loss, and matching steps.

A wide chain refreshed on a channel that neither delays nor drops can
compute all its followers' horizons in one pass (``chain_follower_horizons``):
each follower then consumes its target's horizon of the same step, the
head's included, so every target horizon is aged 0 and read as it is, and
transition k of every follower needs only sample k-1 of its target; one
loop over the samples steps the whole chain as one vector. Every vector
operation is the scalar loop's operation in the same order, with the lower
speed clamp as a masked copy that keeps -0.0 as the branch does, so each
horizon is byte-identical to ``follower_estimate``'s. The engine decides
when to use it (see ``engine.CHAIN_BATCH_MIN``).

Delay compensation is written once, in ``follower_estimate``, as the
targets read before its loop; the chain kernel needs none.

A free-driving refresh usually finds the vehicle exactly (the same bits)
at the first sample of its previous horizon: with the simulation step equal
to the prediction step, the plant takes the very step the recursion
predicted. The recursion depends on the anchor pair (v, r) alone, so the
new horizon is the previous one without its first sample plus one step
from its last (``leader_estimate``'s ``previous``). The horizon is still a
full tuple of N samples; the update only skips recomputing N - 1 of them.

Horizons are tuples of Python floats, except the chain kernel's, which are
read-only float64 views into its sample arrays (no per-sample float is
allocated for a wide chain). Readers go through
``TrajectoryEstimate.speed_at``/``position_at``, which return Python floats,
or turn a view into Python floats first, as ``follower_estimate`` and the
held shift do, so no numpy scalar reaches an output row.

The scalar per-sample forms of the compensated read and the follower
transition live in the test suite as the reference oracle; tests pin the
recursions here, the batched one included, to them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import accumulate, repeat
from typing import Iterator, Sequence

import numpy as np

from .control import ControlGains
from .dynamics import DynamicsLimits
from .errors import ColdStart, NumericFault
from .types import (
    Beacon,
    SimTime,
    TargetView,
    TrajectoryEstimate,
    VehicleState,
    check_bounds,
    lerp_trajectory,
    snap_to_grid,
)

_NON_FINITE_TARGET = "non-finite sample in the received target horizon"


@dataclass(frozen=True)
class EstimatorParams:
    """The file's ``estimator`` section: horizon geometry and the leader's
    free-driving model constants. ``horizon_len`` is ``horizon_s`` in whole
    prediction steps, at least one.

    ``limits`` is the ego vehicle's own actuator envelope (a vehicle knows
    what its plant can deliver), which keeps estimates aligned with the
    saturated plant. It is an init-only argument, not a field, so ``==`` and
    the ``validate`` dump leave it out; ``dataclasses.replace`` carries it
    over. The default is the unbounded envelope ``DynamicsLimits(inf, inf,
    inf)``.
    """

    prediction_step: float = field(default=0.1, metadata={"key": "prediction_step_s", "gt": 0})
    horizon_s: float = field(default=5.0, metadata={"key": "horizon_s", "gt": 0})
    a_max: float = field(default=0.73, metadata={"key": "a_max", "gt": 0})
    sigma: float = field(default=4.0, metadata={"key": "sigma", "gt": 0})
    v_target: float = field(default=15.0, metadata={"key": "v_target", "gt": 0})
    limits: InitVar[DynamicsLimits] = DynamicsLimits(math.inf, math.inf, math.inf)

    def __post_init__(self, limits: DynamicsLimits) -> None:
        check_bounds(self)
        if not isinstance(limits, DynamicsLimits):
            raise TypeError("limits must be a DynamicsLimits; the default is unbounded")
        object.__setattr__(self, "limits", limits)

    @property
    def horizon_len(self) -> int:
        return max(1, round(self.horizon_s / self.prediction_step))


def idm_free_accel(v: float, params: EstimatorParams) -> float:
    """Free-road acceleration toward the preset target speed."""
    return params.a_max * (1.0 - (v / params.v_target) ** params.sigma)


def predict_leader_speed(params: EstimatorParams, v_now: float) -> list[float]:
    """Speed horizon of a vehicle with no target: ``_leader_horizon``'s speeds."""
    if not v_now >= 0:
        raise ValueError(f"v_now must be >= 0, got {v_now}")
    return _leader_horizon(params, v_now, 0.0, params.horizon_len)[0]


def _leader_horizon(
    params: EstimatorParams, v_now: float, r_now: float, n: int
) -> tuple[list[float], list[float]]:
    """The first n speeds and positions of a vehicle with no target,
    converging to v_target.

    Recursion: v[k] = v[k-1] + a_max * (1 - (v[k-1]/v_target)^sigma) * dt,
    with the acceleration and the speed clamped exactly as the plant clamps
    them, and v[0] = v_now; positions follow ``integrate_position``'s
    pre-update convention from r[0] = r_now. The next speed is a function
    of the previous one alone, so once a step returns its input (the same
    bits: -0.0 and 0.0 are not equated) every later speed is that float and
    every later position advances by the same ``v * dt``; the loop stops
    there and fills the rest, bit for bit what it would have computed.
    """
    a_max = params.a_max
    sigma = params.sigma
    v_target = params.v_target
    dt = params.prediction_step
    neg_decel = -params.limits.decel_max
    accel_max = params.limits.accel_max
    speed_max = params.limits.speed_max
    speeds: list[float] = []
    positions: list[float] = []
    v = v_now
    r = r_now
    for k in range(n):
        r = r + v * dt
        accel = a_max * (1.0 - (v / v_target) ** sigma)
        if accel < neg_decel:
            accel = neg_decel
        elif accel > accel_max:
            accel = accel_max
        v_next = v + accel * dt
        if v_next < 0.0:
            v_next = 0.0
        elif v_next > speed_max:
            v_next = speed_max
        if v_next == v and math.copysign(1.0, v_next) == math.copysign(1.0, v):
            speeds.extend(repeat(v, n - k))
            positions.extend(accumulate(repeat(v * dt, n - k - 1), initial=r))
            break
        speeds.append(v_next)
        positions.append(r)
        v = v_next
    return speeds, positions


def integrate_position(
    r_now: float, v_now: float, speeds: Sequence[float], step: float
) -> list[float]:
    """Cumulative positions from a speed horizon, pre-update convention.

    r[k] = r[k-1] + v[k-1] * step with r[0] = r_now and v[0] = v_now, so the
    last horizon speed never enters the returned positions.
    """
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    positions: list[float] = []
    r = r_now
    prev_v = v_now
    for v in speeds:
        r = r + prev_v * step
        positions.append(r)
        prev_v = v
    return positions


def follower_estimate(
    now: SimTime,
    own: VehicleState,
    beacon: Beacon,
    gains: ControlGains,
    t_gap: float,
    params: EstimatorParams,
) -> TrajectoryEstimate:
    """Full horizon of a follower from a freshly received target beacon.

    Each transition applies the consensus law to the previous-sample pair,
    in the exact operation order of ``control.consensus_accel``, and steps
    the speed as the plant does, so the loop stays bit-compatible with both.

    Delay compensation is the view's rule (``target_motion_for_control``):
    transition k, which steps from ``now + (k-1)*dt``, reads the received
    horizon at that time, that is at index ``k-1+c`` with ``c = (now -
    anchor_time)/dt`` snapped onto the sample grid by ``snap_to_grid``.
    The age is that of the received horizon itself: with per-step refresh
    it equals the beacon age, while with coarse prediction steps it also
    covers the sender's anchor being older than the beacon. Between samples
    the read interpolates linearly; past the end of the received horizon it
    holds the final speed and dead-reckons the position at that speed. At
    age 0 transition k reads sample k-1 as it is.

    A non-finite sample that is read raises NumericFault. It makes every
    later sample non-finite unless a clamp absorbs it, so each clamp branch
    checks the target speed and position it read, and the final check
    covers the rest.

    Engine-internal: ``ControlConfig`` owns ``t_gap > 0``, and the channel
    delivers a beacon no earlier than its send time, so neither is
    re-checked here.
    """
    target = beacon.estimate
    dt = params.prediction_step
    n = params.horizon_len
    t_speeds = target.speeds
    t_positions = target.positions
    if isinstance(t_speeds, np.ndarray):
        # A chain-kernel view: the loop runs on Python floats.
        t_speeds = t_speeds.tolist()
        t_positions = t_positions.tolist()
    n_t = len(t_speeds)
    # Sample j of the received horizon; the anchor is sample 0.
    t_speeds = [target.anchor_speed, *t_speeds]
    t_positions = [target.anchor_position, *t_positions]
    c = snap_to_grid((now - target.anchor_time) / dt)
    i = math.floor(c)
    w = c - i
    # Transitions 1..m read inside the received horizon, from index i on.
    m = max(0, min(n, n_t - i + (w == 0.0)))
    v_targets = t_speeds[i : i + m]
    r_targets = t_positions[i : i + m]
    if w:
        v_targets = [a + w * (b - a) for a, b in zip(v_targets, t_speeds[i + 1 : i + 1 + m])]
        r_targets = [a + w * (b - a) for a, b in zip(r_targets, t_positions[i + 1 : i + 1 + m])]
    if m < n:
        v_last = t_speeds[n_t]
        r_last = t_positions[n_t]
        v_targets += [v_last] * (n - m)
        r_targets += [r_last + v_last * ((k + c - n_t) * dt) for k in range(m, n)]
    l_target = beacon.state.length
    gamma = gains.gamma
    neg_gain = -gains.alpha * gains.k
    neg_decel = -params.limits.decel_max
    accel_max = params.limits.accel_max
    speed_max = params.limits.speed_max
    isfinite = math.isfinite
    speeds: list[float] = []
    positions: list[float] = []
    v = own.speed
    r = own.position
    for v_t, r_t in zip(v_targets, r_targets):
        spacing = r - r_t + l_target + v * t_gap
        accel = neg_gain * (spacing + gamma * (v - v_t))
        if accel < neg_decel:
            if not (isfinite(v_t) and isfinite(r_t)):
                raise NumericFault(_NON_FINITE_TARGET)
            accel = neg_decel
        elif accel > accel_max:
            if not (isfinite(v_t) and isfinite(r_t)):
                raise NumericFault(_NON_FINITE_TARGET)
            accel = accel_max
        r = r + v * dt
        v = v + accel * dt
        if v < 0.0:
            if not (isfinite(v_t) and isfinite(r_t)):
                raise NumericFault(_NON_FINITE_TARGET)
            v = 0.0
        elif v > speed_max:
            if not (isfinite(v_t) and isfinite(r_t)):
                raise NumericFault(_NON_FINITE_TARGET)
            v = speed_max
        speeds.append(v)
        positions.append(r)
    # A non-finite speed or position stays non-finite along the recursion,
    # so checking the final sample covers the whole horizon.
    if not (isfinite(v) and isfinite(r)):
        raise NumericFault("follower horizon prediction diverged to non-finite")
    return TrajectoryEstimate(
        anchor_time=now,
        step=dt,
        anchor_speed=own.speed,
        anchor_position=own.position,
        speeds=tuple(speeds),
        positions=tuple(positions),
    )


def chain_follower_horizons(
    now: SimTime,
    beacon: Beacon,
    followers: Sequence[tuple[VehicleState, ControlGains]],
    t_gap: float,
    params: EstimatorParams,
) -> Iterator[TrajectoryEstimate | None]:
    """Horizons of a chain of followers refreshed at ``now``.

    Follower 1 follows ``beacon``; follower i+1 follows follower i's horizon
    of this step. Precondition, owned by the engine's call site (an order
    head's fresh horizon under the ``_batch_chains`` gate) and not
    re-checked: ``beacon.estimate.anchor_time == now`` and
    ``beacon.estimate.horizon_len == params.horizon_len``. So every target
    horizon is aged 0 and full length, and its samples are the targets as
    they are. Transition k of every follower needs only sample k-1 of its
    target, and one loop over the samples steps the whole chain as one
    vector, in the operation order of ``follower_estimate``'s transition.
    Each result equals the estimate ``follower_estimate`` returns for that
    follower from the previous follower's, bit for bit.

    The scalar operands (time gap, step, bounds and the zero of the lower
    clamp) are 0-d float64 arrays, built once per call: numpy then converts
    no Python float per operation, and the results are the same bits.

    The estimates come in chain order and each is built when it is asked
    for. Their samples are read-only column views of the pass's two sample
    arrays, which the whole chain's estimates share, so a refresh allocates
    no per-sample Python float. A follower whose final sample is not finite
    gets None: its scalar refresh raises the NumericFault.
    """
    n = params.horizon_len
    m = len(followers)
    dt = params.prediction_step
    head = beacon.estimate
    # Row k holds sample k, column 0 the first target's samples and column i
    # follower i's, so row k's targets are the view [k, :-1].
    speeds = np.empty((n + 1, m + 1))
    positions = np.empty((n + 1, m + 1))
    speeds[0, 0] = head.anchor_speed
    positions[0, 0] = head.anchor_position
    speeds[1:n, 0] = head.speeds[:-1]
    positions[1:n, 0] = head.positions[:-1]
    speeds[0, 1:] = [state.speed for state, _ in followers]
    positions[0, 1:] = [state.position for state, _ in followers]
    l_target = np.array([beacon.state.length, *(state.length for state, _ in followers[:-1])])
    neg_gain = np.array([-gains.alpha * gains.k for _, gains in followers])
    gamma = np.array([gains.gamma for _, gains in followers])
    t_gap, step, zero = np.array(t_gap), np.array(dt), np.array(0.0)
    neg_decel = np.array(-params.limits.decel_max)
    accel_max = np.array(params.limits.accel_max)
    speed_max = np.array(params.limits.speed_max)
    accel = np.empty(m)
    term = np.empty(m)
    below_zero = np.empty(m, dtype=bool)
    add, subtract, multiply = np.add, np.subtract, np.multiply
    maximum, minimum, less = np.maximum, np.minimum, np.less
    # A diverging row is left to the scalar path, which raises; until then
    # the overflow must not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        # Row k's followers and their targets, then row k+1's followers.
        for v, r, v_t, r_t, v_next, r_next in zip(
            speeds[:-1, 1:],
            positions[:-1, 1:],
            speeds[:-1, :-1],
            positions[:-1, :-1],
            speeds[1:, 1:],
            positions[1:, 1:],
        ):
            # spacing = r - r_t + l_target + v * t_gap
            subtract(r, r_t, accel)
            add(accel, l_target, accel)
            multiply(v, t_gap, term)
            add(accel, term, accel)
            # accel = neg_gain * (spacing + gamma * (v - v_t))
            subtract(v, v_t, term)
            multiply(term, gamma, term)
            add(accel, term, accel)
            multiply(accel, neg_gain, accel)
            # Both bounds are non-zero, so max/min equal the scalar branches.
            maximum(accel, neg_decel, out=accel)
            minimum(accel, accel_max, out=accel)
            multiply(v, step, r_next)
            add(r_next, r, r_next)
            multiply(accel, step, accel)
            add(v, accel, v_next)
            # A masked copy keeps -0.0 as `if v < 0.0` does; maximum would not.
            less(v_next, zero, below_zero)
            v_next[below_zero] = zero
            minimum(v_next, speed_max, out=v_next)
    finite = np.isfinite(speeds[n, 1:]) & np.isfinite(positions[n, 1:])
    # Views taken after this are read-only; the estimates share the arrays.
    speeds.flags.writeable = False
    positions.flags.writeable = False
    return (
        TrajectoryEstimate(
            anchor_time=now,
            step=dt,
            anchor_speed=state.speed,
            anchor_position=state.position,
            speeds=speeds[1:, i],
            positions=positions[1:, i],
        )
        if finite[i - 1]
        else None
        for i, (state, _) in enumerate(followers, start=1)
    )


def leader_estimate(
    now: SimTime,
    own: VehicleState,
    params: EstimatorParams,
    previous: TrajectoryEstimate | None = None,
) -> TrajectoryEstimate:
    """Horizon of a vehicle with no target vehicle.

    ``previous`` is the vehicle's last horizon from this function under the
    same ``params``, if it has one. The recursion depends only on the
    anchor pair (v, r), so a vehicle standing exactly (the same bits) at its
    first sample is predicted by the rest of that horizon plus one step from
    its final sample; anything else is predicted from scratch.
    """
    v_now = own.speed
    r_now = own.position
    if (
        previous is not None
        and previous.speeds[0] == v_now
        and previous.positions[0] == r_now
        and math.copysign(1.0, previous.speeds[0]) == math.copysign(1.0, v_now)
        and math.copysign(1.0, previous.positions[0]) == math.copysign(1.0, r_now)
    ):
        (v_end,), (r_end,) = _leader_horizon(
            params, previous.speeds[-1], previous.positions[-1], 1
        )
        speeds = previous.speeds[1:] + (v_end,)
        positions = previous.positions[1:] + (r_end,)
    else:
        speeds, positions = map(tuple, _leader_horizon(params, v_now, r_now, params.horizon_len))
    return TrajectoryEstimate(
        anchor_time=now,
        step=params.prediction_step,
        anchor_speed=v_now,
        anchor_position=r_now,
        speeds=speeds,
        positions=positions,
    )


def shift_held_estimate(
    now: SimTime, own: VehicleState, previous: TrajectoryEstimate
) -> TrajectoryEstimate:
    """Carry a follower's estimate through a step with no information update.

    Speed samples whose times have passed are dropped, but never the final
    one: the rest keep their absolute meaning under the advanced anchor, and
    past its end a held estimate holds its final speed, as every read past
    a horizon's end does. Positions are re-integrated from the vehicle's own
    ground truth.
    """
    step = previous.step
    steps_past = max(0, round((now - previous.anchor_time) / step))
    remaining = previous.speeds[min(steps_past, previous.horizon_len - 1) :]
    if isinstance(remaining, np.ndarray):
        # A chain-kernel view: the new estimate holds Python floats.
        remaining = remaining.tolist()
    return TrajectoryEstimate(
        anchor_time=now,
        step=step,
        anchor_speed=own.speed,
        anchor_position=own.position,
        speeds=tuple(remaining),
        positions=tuple(integrate_position(own.position, own.speed, remaining, step)),
    )


def target_motion_for_control(
    beacon: Beacon | None,
    now: SimTime,
    t_gap: float,
    params: EstimatorParams,
) -> TargetView:
    """Target motion fed to the consensus controller at time ``now``, from
    the latest beacon received from the target.

    One rule on the beacon age ``tau = now - beacon.send_time``, counted in
    prediction steps and snapped onto the sample grid by ``snap_to_grid``,
    as the horizon reads are: an age of exactly one step in exact arithmetic
    is one step, whatever the float noise. Below one step: the beacon's
    carried ground truth, its position advanced at its speed over ``tau``.
    Otherwise: the target's broadcast horizon read at ``now`` by
    ``lerp_trajectory``, which past the horizon end holds the final speed
    and dead-reckons the position at it; the view is then marked
    ``horizon_exhausted`` for the metrics recorder, from the same snapped
    sample index as the read.

    The link state takes no part: the engine marks a link down only once its
    last arrival is more than one prediction step old, so a down link's
    beacon always reads its horizon.
    """
    if beacon is None:
        raise ColdStart("no beacon ever received from target")
    target = beacon.state
    tau = now - beacon.send_time
    if snap_to_grid(tau / params.prediction_step) < 1.0:
        return TargetView(target.position + target.speed * tau, target.speed, target.length, t_gap)
    est = beacon.estimate
    v_view, r_view = lerp_trajectory(est, now)
    exhausted = snap_to_grid((now - est.anchor_time) / est.step) > est.horizon_len
    return TargetView(r_view, v_view, target.length, t_gap, exhausted)
