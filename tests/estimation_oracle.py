"""Reference forms of the estimator's operations.

``cavsim.estimation`` computes whole horizons in one loop per vehicle role.
Most functions here state one transition at a time, in the operation order
of the published recursion. ``_compensated_target_arrays`` is delay
compensation in vector form, a whole received horizon compensated up front
in numpy, and ``array_compensated_follower`` is the follower loop over its
result; ``cavsim.estimation`` compensates inside ``follower_estimate``'s
loop only, since the chain kernel reads age-0 horizons as they are. The
tests compare the fast loops against these forms bit for bit.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from cavsim.control import ControlGains
from cavsim.errors import NumericFault
from cavsim.estimation import _NON_FINITE_TARGET, EstimatorParams
from cavsim.types import Beacon, TrajectoryEstimate, VehicleState

log = logging.getLogger(__name__)


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

    The transition from sample k-1 to k consumes the target's sample k-1,
    so the lookup baselines there. For tau below one prediction step the
    stale speed is held unchanged; for larger tau it is extrapolated forward
    by (tau/dt) per-step speed deltas (first-order hold) and clamped at
    zero, as ``cavsim.estimation.follower_estimate`` does. The position is
    the previous sample advanced by the compensated speed over the delay:

        r_adj = r[k-1] + v_adj * tau

    A delay exceeding k prediction steps means even the anchor predates the
    requested time; the extrapolation still runs but is logged.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if not 1 <= k <= target_est.horizon_len:
        raise ValueError(f"horizon index {k} outside 1..{target_est.horizon_len}")
    dt = target_est.step
    base = k - 1
    if tau < dt:
        v_adj = target_est.speed_at(base)
    else:
        if tau > k * dt:
            log.debug(
                "delay %.4f s predates the estimate anchor at horizon index %d; "
                "extrapolating from the oldest usable sample",
                tau,
                k,
            )
        delta = target_est.speed_at(base + 1) - target_est.speed_at(base)
        v_adj = target_est.speed_at(base) + (tau / dt) * delta
        # max() would turn NaN and -inf into 0 m/s.
        if not math.isfinite(v_adj):
            raise NumericFault(f"non-finite compensated target speed {v_adj}")
        v_adj = max(0.0, v_adj)
    r_adj = target_est.position_at(k - 1) + v_adj * tau
    return v_adj, r_adj


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
    """A follower's speed horizon composed sample by sample.

    Past the end of the target's horizon its final sample is held and
    dead-reckoned forward; a non-finite final sample raises NumericFault.
    """
    dt = params.prediction_step
    n_t = target_est.horizon_len
    v = own_speed
    r = own_position
    speeds = []
    for k in range(1, params.horizon_len + 1):
        if k <= n_t:
            v_adj, r_adj = compensate_delay(target_est, k, tau, params)
        else:
            v_last = target_est.speed_at(n_t)
            if not math.isfinite(v_last):
                raise NumericFault(f"non-finite final target sample {v_last}")
            v_adj = max(0.0, v_last)
            r_adj = target_est.position_at(n_t) + v_adj * ((k - 1 - n_t) * dt + tau)
        v_next = predict_follower_speed(v, r, v_adj, r_adj, gains, l_target, t_gap, params)
        r = r + v * dt
        v = v_next
        speeds.append(v_next)
    return speeds


def _compensated_target_arrays(
    target_est: TrajectoryEstimate,
    tau: float,
    horizon_len: int,
    dt: float,
) -> tuple[list[float], list[float]]:
    """Delay-compensated target speed and position for every transition.

    Transition k (1..horizon_len) consumes the target's sample k-1. For a
    delay below one prediction step that speed is held; for a longer delay
    it is extrapolated forward by (tau/dt) per-step speed deltas
    (first-order hold) and clamped at zero. The position is the sample k-1
    position advanced by the compensated speed over the delay. When the
    received horizon is shorter than ours, its final sample is held and
    dead-reckoned forward. A non-finite final sample or result raises
    NumericFault.
    """
    n_t = target_est.horizon_len
    samples = np.empty(n_t + 1)
    samples[0] = target_est.anchor_speed
    samples[1:] = target_est.speeds
    pos = np.empty(n_t + 1)
    pos[0] = target_est.anchor_position
    pos[1:] = target_est.positions
    n = min(horizon_len, n_t)
    base_v = samples[:n]
    if tau < dt:
        v_adj = base_v.copy()
    else:
        v_adj = base_v + (tau / dt) * (samples[1 : n + 1] - base_v)
        # The clamp would turn -inf into 0 m/s.
        if (v_adj == -math.inf).any():
            raise NumericFault(_NON_FINITE_TARGET)
        np.maximum(v_adj, 0.0, out=v_adj)
    r_adj = pos[:n] + v_adj * tau
    if horizon_len > n_t:
        v_last = samples[n_t]
        # max() would turn a NaN final speed into 0 m/s.
        if not math.isfinite(v_last):
            raise NumericFault("non-finite final sample in the received target horizon")
        r_last = pos[n_t]
        ks = np.arange(n_t + 1, horizon_len + 1, dtype=float)
        v_pad = np.full(horizon_len - n_t, max(0.0, v_last))
        r_pad = r_last + v_pad * ((ks - 1 - n_t) * dt + tau)
        v_adj = np.concatenate([v_adj, v_pad])
        r_adj = np.concatenate([r_adj, r_pad])
    # Every speed enters a position, so a finite r_adj implies a finite v_adj.
    if not np.isfinite(r_adj).all():
        raise NumericFault(_NON_FINITE_TARGET)
    return v_adj.tolist(), r_adj.tolist()


def array_compensated_follower(
    now: float,
    own: VehicleState,
    beacon: Beacon,
    gains: ControlGains,
    t_gap: float,
    params: EstimatorParams,
) -> tuple[list[float], list[float]]:
    """A follower's speeds and positions, with every transition's
    compensated target sample computed first, in numpy, by
    ``_compensated_target_arrays``."""
    dt = params.prediction_step
    v_adj, r_adj = _compensated_target_arrays(
        beacon.estimate, now - beacon.estimate.anchor_time, params.horizon_len, dt
    )
    l_target = beacon.state.length
    a = gains.alpha * gains.k * dt
    denom = 1.0 + a * (t_gap + gains.gamma)
    neg_gain = -gains.alpha * gains.k
    limits = params.limits
    speeds = []
    positions = []
    v = own.speed
    r = own.position
    for v_t, r_t in zip(v_adj, r_adj):
        if params.implicit_solve:
            numer = v - a * (r + v * dt - r_t + l_target - gains.gamma * v_t)
            accel = (numer / denom - v) / dt
        else:
            spacing = r - r_t + l_target + v * t_gap
            accel = neg_gain * (spacing + gains.gamma * (v - v_t))
        if accel < -limits.decel_max:
            accel = -limits.decel_max
        elif accel > limits.accel_max:
            accel = limits.accel_max
        r = r + v * dt
        v = v + accel * dt
        if v < 0.0:
            v = 0.0
        elif v > limits.speed_max:
            v = limits.speed_max
        speeds.append(v)
        positions.append(r)
    if not (math.isfinite(v) and math.isfinite(r)):
        raise NumericFault("follower horizon prediction diverged to non-finite")
    return speeds, positions
