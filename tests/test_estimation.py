import dataclasses
import logging
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cavsim.estimation as estimation_module
from cavsim.control import ControlGains, consensus_accel
from cavsim.dynamics import DynamicsLimits, step_vehicle
from cavsim.engine import SimulationEngine, _SimVehicle
from cavsim.errors import ColdStart, NumericFault
from cavsim.estimation import (
    EstimatorParams,
    chain_follower_horizons,
    follower_estimate,
    idm_free_accel,
    integrate_position,
    leader_estimate,
    predict_leader_speed,
    shift_held_estimate,
    target_motion_for_control,
)
from cavsim.types import Beacon, TargetView, TrajectoryEstimate, VehicleState, lerp_trajectory

from conftest import perfect_two_vehicle
from estimation_oracle import (
    compensate_delay,
    follower_speeds,
    predict_follower_speed,
    step_speed,
)

GAINS = ControlGains(k=0.5, gamma=0.8, alpha=1)
# The default envelope of EstimatorParams: no clamp ever binds.
UNBOUNDED = DynamicsLimits(accel_max=math.inf, decel_max=math.inf, speed_max=math.inf)
# Tight enough that both acceleration clamps and the speed cap bind in the
# randomized follower cases below.
TIGHT_LIMITS = DynamicsLimits(accel_max=1.0, decel_max=2.0, speed_max=18.0)
# Below the leader model's a_max and above its v_target, so the leader loop
# saturates acceleration, deceleration and speed too (pinned in
# test_saturating_limits_bind).
SATURATING = DynamicsLimits(accel_max=0.2, decel_max=0.3, speed_max=18.0)
LIMIT_CASES = pytest.mark.parametrize(
    "limits", [UNBOUNDED, TIGHT_LIMITS, SATURATING], ids=["unbounded", "bounded", "saturating"]
)


def bits(values):
    """The IEEE-754 bytes of a float sequence, so -0.0 and NaN compare exactly."""
    return struct.pack(f"<{len(values)}d", *values)


def params(horizon_len=50, **kw):
    """Estimator params whose horizon is ``horizon_len`` samples."""
    defaults = dict(prediction_step=0.1, a_max=0.73, sigma=4.0, v_target=15.0)
    defaults.update(kw)
    p = EstimatorParams(horizon_s=horizon_len * defaults["prediction_step"], **defaults)
    assert p.horizon_len == horizon_len
    return p


def vstate(r=0.0, v=10.0, length=5.0):
    return VehicleState(position=r, speed=v, acceleration=0.0, length=length, leg="a")


def unchecked(cls, **fields):
    """An instance of a frozen dataclass built without its constructor's checks."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def estimate_from(speeds, anchor_time=0.0, step=0.1, anchor_speed=None, anchor_position=0.0):
    anchor_speed = anchor_speed if anchor_speed is not None else speeds[0]
    positions = integrate_position(anchor_position, anchor_speed, speeds, step)
    return TrajectoryEstimate(
        anchor_time=anchor_time,
        step=step,
        anchor_speed=anchor_speed,
        anchor_position=anchor_position,
        speeds=tuple(speeds),
        positions=tuple(positions),
    )


def leader_oracle(p, v_now):
    """The leader horizon stepped through the oracle's min/max clamps."""
    expected = []
    v = v_now
    for _ in range(p.horizon_len):
        v = step_speed(p, v, idm_free_accel(v, p))
        expected.append(v)
    return expected


class TestLeaderPrediction:
    def test_fixed_point_at_target_speed(self):
        p = params(v_target=15.0, horizon_len=30)
        speeds = predict_leader_speed(p, 15.0)
        assert all(abs(v - 15.0) < 1e-12 for v in speeds)

    def test_first_sample_from_standstill(self):
        p = params(a_max=0.73, prediction_step=0.1)
        speeds = predict_leader_speed(p, 0.0)
        assert speeds[0] == pytest.approx(0.073, abs=1e-12)

    def test_hand_evaluated_sample(self):
        p = params(v_target=30.0, sigma=4.0, a_max=0.73, prediction_step=0.1)
        speeds = predict_leader_speed(p, 15.0)
        # 15 + 0.73 * (1 - 0.5^4) * 0.1
        assert speeds[0] == pytest.approx(15.0684375, abs=1e-9)

    @given(
        ratio=st.floats(0.0, 2.0),
        v_target=st.floats(2.0, 30.0),
    )
    @settings(max_examples=200)
    def test_monotone_approach_and_bound(self, ratio, v_target):
        # Monotone approach holds where the discrete recursion contracts;
        # far above the target the sigma-powered bracket overshoots, so
        # draw from the stable envelope v_now <= 2 * v_target.
        v_now = ratio * v_target
        p = params(v_target=v_target, horizon_len=40)
        speeds = predict_leader_speed(p, v_now)
        seq = [v_now, *speeds]
        bound = p.a_max * p.prediction_step
        if v_now < v_target:
            for a, b in zip(seq, seq[1:]):
                assert a < b + 1e-15
                assert b <= v_target + 1e-9
                assert b - a <= bound + 1e-12
        elif v_now > v_target:
            for a, b in zip(seq, seq[1:]):
                assert b < a + 1e-15
                assert b >= v_target - 1e-9

    def test_speeds_clamped_at_zero(self):
        p = params(v_target=1.0, prediction_step=1.0, horizon_len=5)
        speeds = predict_leader_speed(p, 30.0)
        assert all(v >= 0.0 for v in speeds)

    def test_respects_ego_envelope_when_configured(self):
        p = params(limits=DynamicsLimits(accel_max=3.0, decel_max=5.0, speed_max=12.0))
        speeds = predict_leader_speed(p, 11.9)
        assert all(v <= 12.0 for v in speeds)

    @LIMIT_CASES
    @given(v_now=st.floats(0.0, 40.0), dt=st.sampled_from([0.01, 0.1, 0.5, 1.0]))
    @settings(max_examples=100)
    def test_matches_scalar_recursion(self, limits, v_now, dt):
        p = params(prediction_step=dt, horizon_len=30, limits=limits)
        assert bits(predict_leader_speed(p, v_now)) == bits(leader_oracle(p, v_now))

    @LIMIT_CASES
    @given(
        v_target=st.floats(2.0, 30.0),
        ratio=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0), st.floats(1.0, 2.5)),
        r_now=st.floats(-500.0, 500.0),
        dt=st.sampled_from([0.01, 0.1, 0.5, 1.0]),
        n=st.integers(1, 600),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_estimate_matches_full_loop(self, limits, v_target, ratio, r_now, dt, n):
        # The fused loop stops at a fixed point and fills the rest; the full
        # loop steps every sample, and both give the same bits. Speeds start
        # at, below and above v_target, so fixed points are reached from
        # both sides and under every clamp.
        p = params(v_target=v_target, prediction_step=dt, horizon_len=n, limits=limits)
        v_now = ratio * v_target
        own = vstate(r=r_now, v=v_now)
        est = leader_estimate(0.0, own, p)
        expected = leader_oracle(p, v_now)
        assert bits(est.speeds) == bits(expected)
        assert bits(est.positions) == bits(integrate_position(r_now, v_now, expected, dt))
        assert bits(predict_leader_speed(p, v_now)) == bits(expected)

    def test_fixed_point_compares_bits(self):
        # From -0.0 an underflowing acceleration returns +0.0, equal but not
        # the same float: the loop must step on, or it fills with -0.0.
        p = params(a_max=5e-324, horizon_len=4)
        est = leader_estimate(0.0, vstate(r=0.0, v=-0.0), p)
        assert bits(est.speeds) == bits(leader_oracle(p, -0.0)) == bits([0.0] * 4)


class TestIntegratePosition:
    def test_constant_speed(self):
        assert integrate_position(100.0, 20.0, [20.0, 20.0, 20.0], 0.1) == pytest.approx(
            [102.0, 104.0, 106.0]
        )

    def test_stationary(self):
        assert integrate_position(7.0, 0.0, [0.0, 0.0], 0.5) == [7.0, 7.0]

    def test_pre_update_speed_convention(self):
        # v_now=10 drives the first step; speeds[0]=10 drives the second.
        assert integrate_position(0.0, 10.0, [10.0, 12.0], 0.5) == pytest.approx([5.0, 10.0])

    def test_bad_step(self):
        with pytest.raises(ValueError):
            integrate_position(0.0, 1.0, [1.0], 0.0)


class TestCompensateDelay:
    def test_short_delay_interpolates_speed(self):
        # c = 0.2: transition 2 reads 20 % of the way from sample 1 to 2.
        est = estimate_from([10.0, 10.5, 11.0], anchor_speed=9.5)
        v_adj, _ = compensate_delay(est, 2, 0.02, params())
        assert v_adj == pytest.approx(10.1, abs=1e-12)

    def test_whole_step_delay_reads_a_later_sample(self):
        # Two steps of delay shift transition 2's read from sample 1 to 3.
        est = estimate_from([10.0, 10.05, 10.1], anchor_speed=9.95)
        v_adj, _ = compensate_delay(est, 2, 0.2, params())
        assert v_adj == est.speeds[2]

    def test_position_is_read_from_the_horizon(self):
        est = estimate_from([10.0, 10.05, 10.1], anchor_speed=9.95, anchor_position=49.0)
        est = TrajectoryEstimate(
            anchor_time=est.anchor_time, step=est.step,
            anchor_speed=est.anchor_speed, anchor_position=est.anchor_position,
            speeds=est.speeds, positions=(50.0, 51.0, 52.0),
        )
        v_adj, r_adj = compensate_delay(est, 2, 0.2, params())
        assert (v_adj, r_adj) == (10.1, 52.0)
        _, r_half = compensate_delay(est, 2, 0.15, params())
        assert r_half == pytest.approx(51.5, abs=1e-12)

    def test_zero_delay_returns_previous_sample_pair(self):
        est = estimate_from([10.0, 11.0], anchor_speed=9.0, anchor_position=100.0)
        v_adj, r_adj = compensate_delay(est, 1, 0.0, params())
        assert v_adj == 9.0
        assert r_adj == 100.0

    def test_index_and_delay_bounds(self):
        est = estimate_from([10.0, 11.0])
        with pytest.raises(ValueError):
            compensate_delay(est, 0, 0.0, params())
        with pytest.raises(ValueError):
            compensate_delay(est, 1, -0.1, params())

    def test_past_the_end_holds_final_speed(self):
        # Transition 3 at one step of delay reads index 3 of a 2-sample
        # horizon: one step past its end.
        est = estimate_from([10.0, 11.0], anchor_speed=9.0, anchor_position=100.0)
        v_adj, r_adj = compensate_delay(est, 3, 0.1, params())
        assert v_adj == 11.0
        assert r_adj == pytest.approx(est.positions[-1] + 11.0 * 0.1, abs=1e-12)

    @given(
        tau=st.one_of(st.sampled_from([0.0, 0.1, 0.3]), st.floats(0.0, 2.0)),
        k=st.integers(1, 30),
    )
    @settings(max_examples=100)
    def test_reads_where_the_view_reads(self, tau, k):
        # One rule for reading a broadcast horizon: the read of transition k
        # equals the horizon read at the time the transition steps from, and
        # past the end the view's final-speed hold.
        est = estimate_from([10.0 + 0.3 * j for j in range(12)], anchor_time=1.0,
                            anchor_speed=9.8, anchor_position=40.0)
        query = est.anchor_time + tau + (k - 1) * est.step
        v_adj, r_adj = compensate_delay(est, k, tau, params())
        if query == est.anchor_time:
            expected = (est.anchor_speed, est.anchor_position)
        elif query > est.end_time + 1e-9:
            v_end = est.speeds[-1]
            expected = (v_end, est.positions[-1] + v_end * (query - est.end_time))
        else:
            expected = lerp_trajectory(est, query)
        assert (v_adj, r_adj) == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestPredictFollowerSpeed:
    def test_consensus_equilibrium_keeps_speed(self):
        # spacing term zero and equal speeds
        out = predict_follower_speed(
            prev_v=10.0, prev_r=0.0,
            target_v_adj=10.0, target_r_adj=0.0 + 5.0 + 15.0,
            gains=GAINS, l_target=5.0, t_gap=1.5, params=params(),
        )
        assert out == pytest.approx(10.0, abs=1e-12)

    def test_hand_evaluated_transition(self):
        out = predict_follower_speed(
            prev_v=10.0, prev_r=0.0,
            target_v_adj=10.0, target_r_adj=19.0,
            gains=GAINS, l_target=5.0, t_gap=1.5, params=params(),
        )
        # spacing error = 0 - 19 + 5 + 15 = +1 -> 10 - 0.5*0.1*1
        assert out == pytest.approx(9.95, abs=1e-12)

    def test_alpha_zero_holds_speed(self):
        gains = ControlGains(k=0.5, gamma=0.8, alpha=0)
        out = predict_follower_speed(
            prev_v=10.0, prev_r=0.0, target_v_adj=3.0, target_r_adj=500.0,
            gains=gains, l_target=5.0, t_gap=1.5, params=params(),
        )
        assert out == 10.0

    def test_clamped_at_zero(self):
        out = predict_follower_speed(
            prev_v=0.5, prev_r=100.0, target_v_adj=0.0, target_r_adj=0.0,
            gains=GAINS, l_target=5.0, t_gap=1.5, params=params(prediction_step=1.0),
        )
        assert out == 0.0


# Speeds with both zeros, which the speed clamps must keep apart.
SPEEDS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 20.0))


def read_only(values):
    """A read-only float64 array, as the chain kernel hands out its samples."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


def stored(est, storage):
    """``est`` with its samples held as ``storage`` holds them, unchecked."""
    return unchecked(
        TrajectoryEstimate,
        **{**vars(est), "speeds": storage(est.speeds), "positions": storage(est.positions)},
    )


# A received horizon is tuple-backed, or view-backed when its sender's
# horizon came from the chain kernel; the follower loop reads both alike.
STORAGES = pytest.mark.parametrize("storage", [tuple, read_only], ids=["tuple", "view"])


@st.composite
def received_case(draw):
    """A received target horizon, its age, and a follower behind it.

    Samples jump by up to 20 m/s and include both zeros and, rarely,
    negative speeds; the received horizon may be shorter than the
    follower's, so the read runs past its end.
    """
    n_target = draw(st.integers(1, 12))
    n_own = draw(st.integers(1, 16))
    anchor_speed = draw(SPEEDS)
    samples = st.one_of(SPEEDS, st.floats(-5.0, -1e-3)) if draw(st.booleans()) else SPEEDS
    speeds = draw(st.lists(samples, min_size=n_target, max_size=n_target))
    target_r = draw(st.floats(-50.0, 50.0))
    est = estimate_from(speeds, anchor_time=1.0, anchor_speed=anchor_speed,
                        anchor_position=target_r)
    # Whole steps (exactly zero included), which read samples as they are,
    # and fractions of a step, which interpolate.
    tau = draw(st.one_of(st.sampled_from([0.0, 0.03, 0.1, 0.25, 1.3]), st.floats(0.0, 2.0)))
    gap = draw(st.one_of(st.just(0.0), st.floats(-2.0, 40.0)))
    own = vstate(r=target_r - 5.0 - gap, v=draw(SPEEDS))
    gains = ControlGains(
        k=draw(st.floats(0.1, 2.0)),
        gamma=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        alpha=draw(st.sampled_from([0, 1])),
    )
    return est, tau, own, gains, n_own


class TestFollowerEstimateEquivalence:
    """``follower_estimate`` reads every transition's target before its
    loop; its horizons equal the per-sample oracle's, bit for bit."""

    @LIMIT_CASES
    @STORAGES
    @given(case=received_case())
    @settings(max_examples=150, deadline=None)
    def test_fast_path_matches_scalar_composition(self, storage, limits, case):
        est, tau, own, gains, n_own = case
        est = stored(est, storage)
        p = params(horizon_len=n_own, limits=limits)
        now = est.anchor_time + tau
        beacon = Beacon(sender=0, send_time=now, state=vstate(r=est.anchor_position),
                        estimate=est)
        fast = follower_estimate(now, own, beacon, gains, 1.5, p)
        assert all(type(x) is float for x in (*fast.speeds, *fast.positions))
        expected = follower_speeds(
            own.speed, own.position, est, now - est.anchor_time, gains, 5.0, 1.5, p
        )
        assert bits(fast.speeds) == bits(expected)
        assert bits(fast.positions) == bits(
            integrate_position(own.position, own.speed, expected, p.prediction_step)
        )

    # With only the speed bounded, an infinite acceleration reaches the
    # speed clamps.
    @pytest.mark.parametrize(
        "limits",
        [UNBOUNDED, TIGHT_LIMITS, DynamicsLimits(math.inf, math.inf, 18.0)],
        ids=["unbounded", "bounded", "speed_only"],
    )
    @STORAGES
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "where, tau, n_own",
        [
            ("first", 0.0, 8),
            ("first", 0.25, 8),
            ("middle", 0.03, 8),
            ("middle", 0.25, 8),
            # Only a read shifted by a delay reaches the last speed of a
            # horizon as long as its own.
            ("last", 0.25, 8),
            # A shorter horizon's last position is read only at and past
            # its end.
            ("tail", 0.0, 12),
            ("tail", 0.25, 12),
        ],
    )
    def test_non_finite_target_sample_raises(self, storage, limits, bad, where, tau, n_own):
        # One received sample is corrupt: its speed, and its position where
        # the follower reads that position. "first" is the first sample the
        # read uses: the anchor at age 0, sample 2 at 2.5 steps of age.
        speeds = [10.0] * 8
        positions = integrate_position(50.0, 10.0, speeds, 0.1)
        anchor_speed, anchor_position = 10.0, 50.0
        if where == "first" and tau == 0.0:
            anchor_speed = anchor_position = bad
        elif where == "first":
            speeds[1] = positions[1] = bad
        elif where == "middle":
            speeds[3] = positions[3] = bad
        elif where == "last":
            speeds[7] = bad
        else:
            positions[7] = bad
        est = unchecked(
            TrajectoryEstimate, anchor_time=0.0, step=0.1, anchor_speed=anchor_speed,
            anchor_position=anchor_position, speeds=storage(speeds), positions=storage(positions),
        )
        p = params(horizon_len=n_own, limits=limits)
        beacon = Beacon(sender=0, send_time=tau, state=vstate(r=50.0), estimate=est)
        own = vstate(r=20.0, v=10.0)
        with pytest.raises(NumericFault):
            follower_speeds(own.speed, own.position, est, tau, GAINS, 5.0, 1.5, p)
        with pytest.raises(NumericFault):
            follower_estimate(tau, own, beacon, GAINS, 1.5, p)

    @pytest.mark.parametrize("limits", [UNBOUNDED, TIGHT_LIMITS], ids=["unbounded", "bounded"])
    @STORAGES
    @pytest.mark.parametrize(
        "own_r, own_v, target_r",
        [
            (math.inf, 10.0, 100.0),
            (math.nan, 10.0, 100.0),
            (50.0, math.inf, 100.0),
            (50.0, 10.0, math.inf),
        ],
    )
    def test_non_finite_input_raises(self, storage, limits, own_r, own_v, target_r):
        # The oracle rejects these inputs; the horizon loop must not clamp
        # them into a finite-looking estimate. The constructors reject them
        # too, so they are built unchecked to reach the loop's own guard.
        p = params(horizon_len=10, limits=limits)
        est = leader_estimate(0.0, vstate(r=0.0, v=10.0), p)
        est = unchecked(
            TrajectoryEstimate,
            **{
                **vars(est),
                "anchor_position": target_r,
                "speeds": storage(est.speeds),
                "positions": storage([target_r + x for x in est.positions]),
            },
        )
        target = unchecked(VehicleState, **{**vars(vstate(v=10.0)), "position": target_r})
        beacon = Beacon(sender=0, send_time=0.0, state=target, estimate=est)
        own = unchecked(VehicleState, **{**vars(vstate()), "position": own_r, "speed": own_v})
        with pytest.raises(NumericFault):
            follower_estimate(0.0, own, beacon, GAINS, 1.5, p)

    @STORAGES
    def test_saturating_limits_bind(self, storage):
        # Each clamp of both loops is reached, and the loops still match the
        # oracle's min/max form bit for bit.
        p = params(horizon_len=40, limits=SATURATING)
        dt = p.prediction_step
        up, down, capped = (predict_leader_speed(p, v) for v in (0.0, 17.0, 30.0))
        assert up[0] == SATURATING.accel_max * dt  # unclamped: 0.073
        assert down[0] == 17.0 - SATURATING.decel_max * dt  # unclamped: 16.953
        assert capped[0] == SATURATING.speed_max
        for v_now, horizon in ((0.0, up), (17.0, down), (30.0, capped)):
            assert bits(horizon) == bits(leader_oracle(p, v_now))

        def follow(own_r, own_v, target_r, target_v):
            est = estimate_from([target_v] * 40, anchor_speed=target_v, anchor_position=target_r)
            est = stored(est, storage)
            beacon = Beacon(sender=0, send_time=0.0, state=vstate(r=target_r, v=target_v),
                            estimate=est)
            fast = follower_estimate(0.0, vstate(r=own_r, v=own_v), beacon, GAINS, 1.5, p)
            expected = follower_speeds(own_v, own_r, est, 0.0, GAINS, 5.0, 1.5, p)
            assert bits(fast.speeds) == bits(expected)
            return fast.speeds

        assert follow(0.0, 5.0, 100.0, 15.0)[0] == 5.0 + SATURATING.accel_max * dt
        assert follow(0.0, 17.0, 20.0, 5.0)[0] == 17.0 - SATURATING.decel_max * dt
        assert follow(0.0, 20.0, 60.0, 20.0)[0] == SATURATING.speed_max

    @pytest.mark.parametrize("limits", [UNBOUNDED, TIGHT_LIMITS], ids=["unbounded", "bounded"])
    @STORAGES
    @pytest.mark.parametrize("v_last", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_final_target_sample_raises(self, storage, limits, v_last):
        # The final speed never enters the target's positions, so only a
        # read at or past the end of a short received horizon reads it.
        est = stored(
            estimate_from([10.0, 10.0, v_last], anchor_speed=10.0, anchor_position=50.0), storage
        )
        assert all(math.isfinite(r) for r in est.positions)
        p = params(horizon_len=6, limits=limits)
        beacon = Beacon(sender=0, send_time=0.0, state=vstate(r=50.0, v=10.0), estimate=est)
        with pytest.raises(NumericFault):
            follower_estimate(0.0, vstate(r=20.0, v=10.0), beacon, GAINS, 1.5, p)
        with pytest.raises(NumericFault):
            follower_speeds(10.0, 20.0, est, 0.0, GAINS, 5.0, 1.5, p)

    def test_uses_estimate_anchor_age_not_beacon_age(self):
        # Estimate anchored one full step before the beacon: the recursion
        # must dead-reckon the target a step forward, not read stale data.
        speeds = [10.0, 10.0, 10.0, 10.0]
        est = estimate_from(speeds, anchor_time=1.0, step=0.1,
                            anchor_speed=10.0, anchor_position=100.0)
        beacon = Beacon(
            sender=0, send_time=1.1,
            state=vstate(r=101.0, v=10.0), estimate=est,
        )
        own = vstate(r=100.0 - 20.0, v=10.0)
        p = params(horizon_len=4)
        out = follower_estimate(1.1, own, beacon, GAINS, 1.5, p)
        # constant-speed target: transition 1 reads sample 1, the anchor
        # position one step (tau = 0.1) on
        v_adj, r_adj = compensate_delay(est, 1, 0.1, p)
        assert r_adj == pytest.approx(101.0, abs=1e-12)
        assert out.anchor_time == 1.1


class TestLeaderUpdate:
    """A free-driving vehicle standing exactly at its first predicted sample
    advances its previous horizon by one sample."""

    @staticmethod
    def _count_lengths(monkeypatch):
        """The sample counts ``_leader_horizon`` is asked for, in call order."""
        lengths = []
        full = estimation_module._leader_horizon

        def counted(p, v_now, r_now, n):
            lengths.append(n)
            return full(p, v_now, r_now, n)

        monkeypatch.setattr(estimation_module, "_leader_horizon", counted)
        return lengths

    @pytest.mark.parametrize("limits", [UNBOUNDED, SATURATING], ids=["unbounded", "saturating"])
    # From standstill, approaching, at the fixed point (v_target is 15 m/s),
    # and braking from above it and from above the speed cap.
    @pytest.mark.parametrize("v_now", [0.0, 9.0, 15.0, 17.0, 30.0])
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_updates_equal_full_recomputations(self, limits, v_now, n, monkeypatch):
        p = params(horizon_len=n, limits=limits)
        lengths = self._count_lengths(monkeypatch)
        est = leader_estimate(0.0, vstate(r=-3.0, v=v_now), p)
        for step in range(1, 61):
            own = vstate(r=est.positions[0], v=est.speeds[0])
            updated = leader_estimate(step * 0.1, own, p, previous=est)
            fresh = leader_estimate(step * 0.1, own, p)
            assert isinstance(updated.speeds, tuple) and isinstance(updated.positions, tuple)
            assert bits(updated.speeds) == bits(fresh.speeds)
            assert bits(updated.positions) == bits(fresh.positions)
            assert (updated.anchor_time, updated.step) == (fresh.anchor_time, fresh.step)
            assert bits([updated.anchor_speed, updated.anchor_position]) == bits(
                [own.speed, own.position]
            )
            est = updated
        # One full horizon, then per step one new sample for the update and
        # a full horizon for the comparison.
        assert lengths == [n] + [1, n] * 60

    def test_any_other_state_is_predicted_from_scratch(self, monkeypatch):
        p = params(horizon_len=5)
        est = leader_estimate(0.0, vstate(r=0.0, v=0.0), p)
        v1, r1 = est.speeds[0], est.positions[0]
        assert bits([r1]) == bits([0.0])
        lengths = self._count_lengths(monkeypatch)
        # One bit off in the speed, the position, or the position's sign.
        for v, r in ((math.nextafter(v1, 1.0), r1), (v1, math.nextafter(r1, 1.0)), (v1, -0.0)):
            leader_estimate(0.1, vstate(r=r, v=v), p, previous=est)
        assert lengths == [5, 5, 5]
        leader_estimate(0.1, vstate(r=r1, v=v1), p, previous=est)
        assert lengths == [5, 5, 5, 1]


@st.composite
def chain_case(draw):
    """The head's horizon of this step and a chain of 1-8 followers behind it.

    The kernel reads that horizon as it is: age 0 and full length. Aged and
    short received horizons are compared with the oracle in
    ``TestFollowerEstimateEquivalence``. A follower at -0.0 m/s that
    touches its target (gap 0) gets accel -0.0 and keeps -0.0, which only
    the masked lower speed clamp preserves.
    """
    n = draw(st.integers(1, 12))
    anchor_speed = draw(SPEEDS)
    speeds = []
    v = anchor_speed
    for d in draw(st.lists(st.floats(-0.4, 0.4), min_size=n, max_size=n)):
        v = max(0.0, v + d)
        speeds.append(v)
    head_r = draw(st.floats(-50.0, 50.0))
    target = estimate_from(speeds, anchor_time=1.0, anchor_speed=anchor_speed, anchor_position=head_r)
    followers = []
    r, length = head_r, 5.0
    for _ in range(draw(st.integers(1, 8))):
        gap = draw(st.one_of(st.just(0.0), st.floats(1.0, 40.0)))
        r -= length + gap
        length = draw(st.floats(3.0, 6.0))
        gains = ControlGains(
            k=draw(st.floats(0.1, 2.0)),
            gamma=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
            alpha=draw(st.sampled_from([0, 1])),
        )
        followers.append((vstate(r=r, v=draw(SPEEDS), length=length), gains))
    return target, n, followers


class TestChainFollowerHorizons:
    @LIMIT_CASES
    @given(case=chain_case())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_matches_scalar_chain_and_oracle(self, limits, case):
        target, n, followers = case
        p = params(horizon_len=n, limits=limits)
        now = target.anchor_time
        beacon = Beacon(sender=0, send_time=now, state=vstate(r=target.anchor_position),
                        estimate=target)
        rows = list(chain_follower_horizons(now, beacon, followers, 1.5, p))
        assert len(rows) == len(followers)
        # The oracle composes each transition from compensate_delay and
        # predict_follower_speed; every target, the first included, is a
        # horizon of this step, aged 0.
        oracle_target, l_target = target, 5.0
        for (own, gains), row in zip(followers, rows):
            scalar = follower_estimate(now, own, beacon, gains, 1.5, p)
            expected = follower_speeds(
                own.speed, own.position, oracle_target, 0.0, gains, l_target, 1.5, p
            )
            expected_positions = integrate_position(own.position, own.speed, expected, 0.1)
            assert bits(row.speeds) == bits(scalar.speeds) == bits(expected)
            assert bits(row.positions) == bits(scalar.positions) == bits(expected_positions)
            assert (row.anchor_time, row.step) == (scalar.anchor_time, scalar.step)
            assert bits([row.anchor_speed, row.anchor_position]) == bits([own.speed, own.position])
            beacon = Beacon(sender=1, send_time=now, state=own, estimate=scalar)
            oracle_target = estimate_from(
                expected, anchor_time=now, anchor_speed=own.speed, anchor_position=own.position
            )
            l_target = own.length

    def test_non_finite_row_is_left_to_the_scalar_path(self):
        # Follower 1's position overflows in its first transition: its
        # scalar refresh raises, and the kernel hands back None for it.
        p = params(horizon_len=5)
        target = estimate_from([10.0] * 5, anchor_speed=10.0, anchor_position=1.79e308)
        beacon = Beacon(sender=0, send_time=0.0, state=vstate(r=1.79e308), estimate=target)
        followers = [(vstate(r=1.75e308, v=1e308), GAINS), (vstate(r=1.7e308), GAINS)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, _ = chain_follower_horizons(0.0, beacon, followers, 1.5, p)
        assert first is None
        with pytest.raises(NumericFault):
            follower_estimate(0.0, followers[0][0], beacon, GAINS, 1.5, p)


class TestAlphaZeroLaw:
    """At ``alpha = 0`` every form of the law computes ``0.0 * bracket``, a
    zero of the bracket's sign: the plant's ``consensus_accel``, both
    horizon loops and the oracle."""

    @pytest.mark.parametrize(
        "target_r, expected", [(50.0, 0.0), (100.0, -0.0)], ids=["touching", "negative_bracket"]
    )
    def test_every_form_agrees_bit_for_bit(self, target_r, expected):
        gains = ControlGains(k=0.5, gamma=0.8, alpha=0)
        p = params(horizon_len=3)
        own = vstate(r=48.0, v=-0.0)
        target = estimate_from([0.0] * 3, anchor_speed=0.0, anchor_position=target_r)
        beacon = Beacon(sender=0, send_time=0.0, state=vstate(r=target_r, v=0.0), estimate=target)
        scalar = follower_estimate(0.0, own, beacon, gains, 1.5, p)
        (row,) = chain_follower_horizons(0.0, beacon, [(own, gains)], 1.5, p)
        oracle = follower_speeds(own.speed, own.position, target, 0.0, gains, 5.0, 1.5, p)
        accel = consensus_accel(own, TargetView(target_r, 0.0, 5.0, 1.5), gains)
        plant = step_vehicle(own, accel, p.prediction_step, p.limits)
        assert bits(scalar.speeds) == bits(row.speeds) == bits(oracle) == bits([expected] * 3)
        assert bits([plant.speed]) == bits([expected])
        assert bits(scalar.positions) == bits(row.positions) == bits([48.0] * 3)
        assert bits([plant.position]) == bits([48.0])


def _batched_and_scalar(n=6):
    """The first follower's batched horizon and its scalar twin."""
    p = params(horizon_len=n)
    target = estimate_from([10.0 + 0.1 * k for k in range(n)], anchor_time=1.0,
                           anchor_speed=10.0, anchor_position=100.0)
    beacon = Beacon(sender=0, send_time=1.0, state=vstate(r=100.0), estimate=target)
    followers = [(vstate(r=70.0, v=11.0), GAINS), (vstate(r=40.0, v=9.0), GAINS)]
    row = next(chain_follower_horizons(1.0, beacon, followers, 1.5, p))
    scalar = follower_estimate(1.0, followers[0][0], beacon, GAINS, 1.5, p)
    return p, row, scalar


class TestBatchedHorizonViews:
    """The chain kernel's estimates carry read-only float64 views."""

    def test_samples_are_read_only(self):
        _, row, _ = _batched_and_scalar()
        for samples in (row.speeds, row.positions):
            assert samples.dtype == np.float64 and samples.ndim == 1
            with pytest.raises(ValueError):
                samples[0] = 0.0

    def test_sample_readers_return_python_floats(self):
        _, row, scalar = _batched_and_scalar()
        for est in (row, scalar):
            for k in range(est.horizon_len + 1):
                assert type(est.speed_at(k)) is float
                assert type(est.position_at(k)) is float
            assert all(type(x) is float for x in lerp_trajectory(est, 1.25))
        assert bits([row.speed_at(k) for k in range(7)]) == bits(
            [scalar.speed_at(k) for k in range(7)]
        )

    @pytest.mark.parametrize("now", [1.0, 1.2, 1.5, 1.7], ids=["same", "two", "last", "expired"])
    def test_shift_returns_python_floats_equal_to_tuple_twin(self, now):
        p, row, scalar = _batched_and_scalar()
        own = vstate(r=75.0, v=10.5)
        shifted = shift_held_estimate(now, own, row)
        twin = shift_held_estimate(now, own, scalar)
        assert isinstance(shifted.speeds, tuple) and isinstance(shifted.positions, tuple)
        assert all(type(x) is float for x in (*shifted.speeds, *shifted.positions))
        assert bits(shifted.speeds) == bits(twin.speeds)
        assert bits(shifted.positions) == bits(twin.positions)


class TestHoldAndShift:
    def test_shift_drops_leading_sample(self):
        prev = estimate_from([5.0, 6.0, 7.0], anchor_time=2.0, step=0.1)
        own = vstate(r=50.0, v=5.5)
        shifted = shift_held_estimate(2.1, own, prev)
        assert shifted.anchor_time == pytest.approx(2.1)
        assert shifted.speeds == (6.0, 7.0)
        assert shifted.anchor_speed == 5.5
        assert shifted.anchor_position == 50.0

    def test_shift_multiple_steps(self):
        prev = estimate_from([5.0, 6.0, 7.0, 8.0], anchor_time=2.0, step=0.1)
        shifted = shift_held_estimate(2.3, vstate(), prev)
        assert shifted.speeds == (8.0,)

    def test_exhausted_hold_keeps_final_sample(self, caplog):
        # Past its end a held horizon holds its final speed, as every read
        # past a horizon's end does; it neither warns nor predicts anew.
        prev = estimate_from([5.0], anchor_time=2.0, step=0.1)
        with caplog.at_level(logging.DEBUG, logger="cavsim"):
            out = shift_held_estimate(2.5, vstate(r=40.0, v=10.0), prev)
        assert not caplog.records
        assert out.anchor_time == 2.5
        assert out.speeds == (5.0,)
        assert out.positions == (40.0 + 10.0 * 0.1,)
        assert (out.anchor_speed, out.anchor_position) == (10.0, 40.0)

    def test_shift_past_the_end_keeps_only_the_final_sample(self):
        prev = estimate_from([5.0, 6.0, 7.0], anchor_time=2.0, step=0.1)
        for now in (2.2, 2.3, 2.9):
            assert shift_held_estimate(now, vstate(), prev).speeds == (7.0,)


class TestTargetMotionForControl:
    def _beacon(self, est, send_time, state):
        return Beacon(sender=0, send_time=send_time, state=state, estimate=est)

    def test_zero_age_returns_ground_truth(self):
        est = estimate_from([10.0, 10.5], anchor_time=5.0)
        truth = vstate(r=123.0, v=10.0)
        beacon = self._beacon(est, 5.0, truth)
        view = target_motion_for_control(beacon, 5.0, 1.5, params())
        assert view.position == truth.position
        assert view.speed == truth.speed
        assert view.length == truth.length

    def test_link_down_reads_horizon(self):
        # The engine marks a link down only once its beacon is at least one
        # prediction step old; here it is two.
        est = estimate_from([10.0, 11.0, 12.0], anchor_time=4.8, step=0.1)
        beacon = self._beacon(est, 4.8, vstate(r=est.anchor_position, v=est.anchor_speed))
        view = target_motion_for_control(beacon, 5.0, 1.5, params())
        speed, position = lerp_trajectory(est, 5.0)
        assert view.speed == speed
        assert view.position == position

    def test_horizon_exhausted_holds_final_speed(self):
        est = estimate_from([10.0, 11.0], anchor_time=4.9, step=0.1)
        beacon = self._beacon(est, 4.9, vstate())
        view = target_motion_for_control(beacon, 6.0, 1.5, params())
        assert view.horizon_exhausted
        assert view.speed == est.speeds[-1]
        assert view.position == est.positions[-1] + est.speeds[-1] * (6.0 - est.end_time)

    def test_cold_start_raises(self):
        with pytest.raises(ColdStart):
            target_motion_for_control(None, 0.0, 1.5, params())

    def test_aged_link_reads_horizon(self):
        # beacon age of two prediction steps on a ramping profile, link up
        est = estimate_from([10.1, 10.2, 10.3, 10.4], anchor_time=5.0, anchor_speed=10.0)
        truth = vstate(r=est.anchor_position, v=10.0)
        beacon = self._beacon(est, 5.0, truth)
        view = target_motion_for_control(beacon, 5.2, 1.5, params())
        assert (view.speed, view.position) == lerp_trajectory(est, 5.2)
        assert not view.horizon_exhausted

    def test_age_just_under_one_step_gives_the_truth(self):
        est = estimate_from([10.1, 10.2, 10.3, 10.4], anchor_time=5.0, anchor_speed=10.0)
        truth = vstate(r=7.0, v=10.0)
        beacon = self._beacon(est, 5.0, truth)
        view = target_motion_for_control(beacon, 5.0999, 1.5, params())
        assert view.speed == truth.speed
        assert view.position == truth.position + truth.speed * (5.0999 - 5.0)

    def test_age_of_one_step_in_float_noise_reads_the_horizon(self):
        # 8 * 0.1 - 7 * 0.1 computes as 0.0999...87, under the step; on the
        # sample grid the age is one step, so the view reads the horizon.
        send = 7 * 0.1
        est = estimate_from([10.1, 10.2, 10.3], anchor_time=send, anchor_speed=10.0)
        beacon = self._beacon(est, send, vstate(r=7.0, v=10.0))
        assert 8 * 0.1 - send < 0.1
        view = target_motion_for_control(beacon, 8 * 0.1, 1.5, params())
        assert (view.speed, view.position) == (est.speeds[0], est.positions[0])
        assert not view.horizon_exhausted


class TestUpdateEstimates:
    """The engine's per-vehicle estimate refresh, the simulator's one chain pass."""

    @staticmethod
    def _vehicle(vid, state, target=None, **memory):
        return _SimVehicle(
            vid=vid,
            intersection="x",
            state=state,
            target=target,
            gains=GAINS if target is not None else None,
            **memory,
        )

    def test_leader_at_target_speed_extrapolates_constantly(self):
        engine = SimulationEngine(perfect_two_vehicle())
        leader = self._vehicle(0, vstate(r=0.0, v=15.0))
        engine._refresh_estimate(leader, 0.0)
        out = leader.own_estimate
        assert out.horizon_len == engine.params.horizon_len
        assert all(abs(v - 15.0) < 1e-12 for v in out.speeds)

    def test_link_down_holds_previous(self):
        engine = SimulationEngine(perfect_two_vehicle())
        prev = estimate_from([9.0, 9.5, 10.0], anchor_time=0.0, step=0.1)
        # The only beacon on hand was consumed by the previous refresh.
        beacon = Beacon(sender=0, send_time=0.0, state=vstate(r=30.0), estimate=prev)
        follower = self._vehicle(
            1, vstate(r=0.0, v=9.2), target=0,
            own_estimate=prev, last_target_beacon=beacon, refreshed_send_time=0.0,
        )
        engine._refresh_estimate(follower, 0.1)
        out = follower.own_estimate
        assert out.anchor_time == pytest.approx(0.1)
        assert out.speeds == (9.5, 10.0)

    def test_cold_start_falls_back_to_leader_estimate(self):
        engine = SimulationEngine(perfect_two_vehicle())
        truth = vstate(r=0.0, v=9.0)
        expected = leader_estimate(0.0, truth, engine.params)
        consumed = Beacon(sender=0, send_time=0.0, state=vstate(r=30.0), estimate=expected)
        # Not yet admitted (no beacon), and admitted with its one beacon
        # already consumed but no own estimate to hold.
        for memory in ({}, {"last_target_beacon": consumed, "refreshed_send_time": 0.0}):
            follower = self._vehicle(1, truth, target=0, **memory)
            engine._refresh_estimate(follower, 0.0)
            assert follower.own_estimate.speeds == expected.speeds

    def test_linked_follower_consumes_beacon(self):
        engine = SimulationEngine(perfect_two_vehicle())
        leader_truth = vstate(r=30.0, v=10.0)
        lead_est = leader_estimate(0.0, leader_truth, engine.params)
        beacon = Beacon(sender=0, send_time=0.0, state=leader_truth, estimate=lead_est)
        truth = vstate(r=5.0, v=10.0)
        follower = self._vehicle(
            1, truth, target=0, last_target_beacon=beacon, last_arrival=0.0
        )
        engine._refresh_estimate(follower, 0.0)
        expected = follower_estimate(0.0, truth, beacon, GAINS, engine.t_gap, engine.params)
        assert follower.own_estimate.speeds == expected.speeds
        assert follower.refreshed_send_time == 0.0
        # No newer beacon: the next refresh holds the consumed one's horizon.
        engine._refresh_estimate(follower, 0.1)
        assert follower.own_estimate.speeds == expected.speeds[1:]


def test_idm_free_accel_signs():
    p = params(v_target=15.0)
    assert idm_free_accel(10.0, p) > 0.0
    assert idm_free_accel(15.0, p) == pytest.approx(0.0, abs=1e-12)
    assert idm_free_accel(20.0, p) < 0.0


def test_estimator_params_validation():
    with pytest.raises(ValueError):
        EstimatorParams(prediction_step=0.0)
    with pytest.raises(ValueError):
        EstimatorParams(horizon_s=0.0)
    with pytest.raises(ValueError):
        EstimatorParams(v_target=-1.0)


def test_estimator_params_default_to_the_unbounded_envelope():
    assert EstimatorParams().limits == UNBOUNDED
    with pytest.raises(TypeError, match="limits must be a DynamicsLimits"):
        EstimatorParams(limits=None)


def test_estimator_params_limits_is_no_field_and_replace_carries_it():
    p = EstimatorParams(limits=TIGHT_LIMITS)
    assert p == EstimatorParams()
    assert "limits" not in dataclasses.asdict(p)
    assert dataclasses.replace(p, a_max=0.5).limits == TIGHT_LIMITS


def test_leader_estimate_anchors_at_ground_truth():
    p = params(horizon_len=5)
    own = vstate(r=42.0, v=13.0)
    est = leader_estimate(3.0, own, p)
    assert est.anchor_position == 42.0
    assert est.anchor_speed == 13.0
    assert est.anchor_time == 3.0
    assert est.positions[0] == pytest.approx(42.0 + 13.0 * p.prediction_step)
