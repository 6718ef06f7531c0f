"""Reference forms of the estimator's operations.

``cavsim.estimation`` computes whole horizons in one loop per vehicle role.
The functions here state one transition at a time, in the operation order
of the published recursion: ``compensate_delay`` is the read of the
received horizon that one transition consumes, and ``follower_speeds``
composes a follower's horizon from it. The tests compare the fast loops
against these forms bit for bit.
"""

from __future__ import annotations

import math

from cavsim.control import ControlGains
from cavsim.errors import NumericFault
from cavsim.estimation import EstimatorParams
from cavsim.types import TrajectoryEstimate, snap_to_grid


def consensus_accel_raw(
    r_i: float,
    v_i: float,
    r_j: float,
    v_j: float,
    l_j: float,
    t_gap: float,
    alpha: int,
    k: float,
    gamma: float,
) -> float:
    """Scalar form of the consensus law, in the operation order of
    ``cavsim.control.consensus_accel``."""
    spacing = r_i - r_j + l_j + v_i * t_gap
    accel = -alpha * k * (spacing + gamma * (v_i - v_j))
    if not math.isfinite(accel):
        raise NumericFault(
            f"consensus law produced non-finite acceleration from "
            f"r_i={r_i} v_i={v_i} r_j={r_j} v_j={v_j}"
        )
    return accel


def step_speed(params: EstimatorParams, v: float, accel: float) -> float:
    """One forward-Euler speed step under the configured envelope.

    Mirrors the plant's clamp expressions exactly so that estimator and
    plant transitions agree bit-for-bit.
    """
    limits = params.limits
    applied = min(max(accel, -limits.decel_max), limits.accel_max)
    return min(max(v + applied * params.prediction_step, 0.0), limits.speed_max)


def compensate_delay(
    target_est: TrajectoryEstimate,
    k: int,
    tau: float,
    params: EstimatorParams,
) -> tuple[float, float]:
    """Delay-compensated target speed and position for horizon transition k.

    The transition from sample k-1 to k steps from ``tau + (k-1)*dt`` past
    the received horizon's anchor, and reads the horizon there: at index
    ``x = k-1+c``, with ``c = tau/dt`` snapped onto the sample grid. A whole
    index reads that sample; between samples j and j+1 the read is

        v = S[j] + w * (S[j+1] - S[j]),  r = P[j] + w * (P[j+1] - P[j])

    with ``w = c - floor(c)``; past the last sample N it holds the final
    speed and dead-reckons the position at it:

        v = S[N],  r = P[N] + S[N] * ((x - N) * dt)
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if k < 1:
        raise ValueError(f"horizon index {k} below 1")
    dt = params.prediction_step
    n_t = target_est.horizon_len
    c = snap_to_grid(tau / dt)
    i = math.floor(c)
    w = c - i
    j = k - 1 + i
    if j + (w > 0.0) > n_t:
        v_last = target_est.speed_at(n_t)
        return v_last, target_est.position_at(n_t) + v_last * ((k - 1 + c - n_t) * dt)
    if w == 0.0:
        return target_est.speed_at(j), target_est.position_at(j)
    v0, v1 = target_est.speed_at(j), target_est.speed_at(j + 1)
    r0, r1 = target_est.position_at(j), target_est.position_at(j + 1)
    return v0 + w * (v1 - v0), r0 + w * (r1 - r0)


def predict_follower_speed(
    prev_v: float,
    prev_r: float,
    target_v_adj: float,
    target_r_adj: float,
    gains: ControlGains,
    l_target: float,
    t_gap: float,
    params: EstimatorParams,
) -> float:
    """One speed-horizon transition of a following vehicle.

    Default (explicit) form applies the consensus law to the previous-sample
    pair and steps forward by the prediction step:

        v_next = prev_v + u(prev_r, prev_v, r_adj, v_adj) * dt

    clamped at zero. The implicit variant solves the published fixed-point
    form (next speed on both sides, follower position advanced) in closed
    form.
    """
    for name, value in (
        ("prev_v", prev_v),
        ("prev_r", prev_r),
        ("target_v_adj", target_v_adj),
        ("target_r_adj", target_r_adj),
    ):
        if not math.isfinite(value):
            raise NumericFault(f"non-finite estimator input {name}={value}")
    if t_gap <= 0:
        raise ValueError("t_gap must be > 0")
    dt = params.prediction_step
    if params.implicit_solve:
        a = gains.alpha * gains.k * dt
        r_next = prev_r + prev_v * dt
        numer = prev_v - a * (r_next - target_r_adj + l_target - gains.gamma * target_v_adj)
        v_solved = numer / (1.0 + a * (t_gap + gains.gamma))
        accel = (v_solved - prev_v) / dt
    else:
        accel = consensus_accel_raw(
            prev_r,
            prev_v,
            target_r_adj,
            target_v_adj,
            l_target,
            t_gap,
            gains.alpha,
            gains.k,
            gains.gamma,
        )
    v_next = step_speed(params, prev_v, accel)
    if not math.isfinite(v_next):
        raise NumericFault("follower speed prediction diverged to non-finite")
    return v_next


def follower_speeds(
    own_speed: float,
    own_position: float,
    target_est: TrajectoryEstimate,
    tau: float,
    gains: ControlGains,
    l_target: float,
    t_gap: float,
    params: EstimatorParams,
) -> list[float]:
    """A follower's speed horizon composed sample by sample from
    ``compensate_delay`` and ``predict_follower_speed``; a non-finite
    target sample that is read raises NumericFault."""
    dt = params.prediction_step
    v = own_speed
    r = own_position
    speeds = []
    for k in range(1, params.horizon_len + 1):
        v_adj, r_adj = compensate_delay(target_est, k, tau, params)
        v_next = predict_follower_speed(v, r, v_adj, r_adj, gains, l_target, t_gap, params)
        r = r + v * dt
        v = v_next
        speeds.append(v_next)
    return speeds
