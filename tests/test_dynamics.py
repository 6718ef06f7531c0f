import math
import struct

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cavsim.dynamics import DynamicsLimits, step_vehicle
from cavsim.errors import NumericFault
from cavsim.types import VehicleState

LIMITS = DynamicsLimits(accel_max=3.0, decel_max=5.0, speed_max=20.0)


def state(r=0.0, v=10.0, a=0.0):
    return VehicleState(position=r, speed=v, acceleration=a, length=5.0, leg="a")


class TestDynamicsLimits:
    @pytest.mark.parametrize("field", ["accel_max", "decel_max", "speed_max"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field}: must be > 0"):
            DynamicsLimits(**{field: value})

    def test_unbounded_limits_allowed(self):
        DynamicsLimits(math.inf, math.inf, math.inf)


class TestStepVehicle:
    def test_constant_speed(self):
        out = step_vehicle(state(r=0.0, v=10.0), 0.0, 0.1, LIMITS)
        assert out.position == pytest.approx(1.0)
        assert out.speed == pytest.approx(10.0)

    def test_position_uses_pre_update_speed(self):
        roomy = DynamicsLimits(accel_max=3.0, decel_max=3.0, speed_max=30.0)
        out = step_vehicle(state(r=100.0, v=20.0), 2.0, 0.1, roomy)
        assert out.position == pytest.approx(102.0)
        assert out.speed == pytest.approx(20.2)

    def test_speed_floor_at_zero(self):
        out = step_vehicle(state(v=0.05), -3.0, 0.1, LIMITS)
        assert out.speed == 0.0

    def test_saturation(self):
        out = step_vehicle(state(v=10.0), 99.0, 0.1, LIMITS)
        assert out.acceleration == LIMITS.accel_max
        out = step_vehicle(state(v=10.0), -99.0, 0.1, LIMITS)
        assert out.acceleration == -LIMITS.decel_max

    def test_non_finite_command_raises(self):
        with pytest.raises(NumericFault):
            step_vehicle(state(), float("nan"), 0.1, LIMITS)
        with pytest.raises(NumericFault):
            step_vehicle(state(), float("inf"), 0.1, LIMITS)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            step_vehicle(state(), 0.0, 0.0, LIMITS)

    @given(
        v0=st.floats(0.0, 20.0),
        commands=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=60),
    )
    def test_speed_always_in_bounds(self, v0, commands):
        cur = state(v=v0)
        for cmd in commands:
            cur = step_vehicle(cur, cmd, 0.1, LIMITS)
            assert 0.0 <= cur.speed <= LIMITS.speed_max
            assert -LIMITS.decel_max <= cur.acceleration <= LIMITS.accel_max

    @given(v=st.floats(0.5, 20.0), k=st.integers(1, 500))
    def test_no_position_drift_at_constant_speed(self, v, k):
        cur = state(r=0.0, v=v)
        for _ in range(k):
            cur = step_vehicle(cur, 0.0, 0.1, LIMITS)
        assert cur.position == pytest.approx(k * v * 0.1, abs=1e-9)
        assert cur.speed == v


def branch_clamp(x, lo, hi):
    """The clamp form that the plant and the horizon loops write inline."""
    if x < lo:
        x = lo
    elif x > hi:
        x = hi
    return x


def bits(x):
    return struct.pack("<d", x)


SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308]
)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | SPECIAL_FLOATS


class TestBranchClamp:
    @given(x=ANY_FLOAT, lo=ANY_FLOAT, hi=ANY_FLOAT)
    @settings(max_examples=2000)
    @example(x=-0.0, lo=0.0, hi=1.0)
    @example(x=0.0, lo=-0.0, hi=0.0)
    @example(x=math.nan, lo=0.0, hi=1.0)
    @example(x=math.inf, lo=-5.0, hi=3.0)
    @example(x=-math.inf, lo=0.0, hi=math.inf)
    @example(x=5e-324, lo=0.0, hi=5e-324)
    @example(x=-5e-324, lo=-0.0, hi=20.0)
    def test_equals_min_max_bit_for_bit(self, x, lo, hi):
        # Every clamp in cavsim has lo <= hi (-decel_max < accel_max and
        # 0 < speed_max); only an inverted interval tells the forms apart.
        assume(not hi < lo)
        assert bits(branch_clamp(x, lo, hi)) == bits(min(max(x, lo), hi))

    @given(
        v=st.floats(0.0, 25.0) | st.sampled_from([0.0, 5e-324, 20.0]),
        cmd=st.floats(-50.0, 50.0) | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 3.0, -5.0]),
        dt=st.sampled_from([0.01, 0.02, 0.1, 1.0]),
    )
    @settings(max_examples=500)
    def test_plant_matches_min_max_form(self, v, cmd, dt):
        out = step_vehicle(state(r=3.0, v=v), cmd, dt, LIMITS)
        applied = min(max(cmd, -LIMITS.decel_max), LIMITS.accel_max)
        speed = min(max(v + applied * dt, 0.0), LIMITS.speed_max)
        assert bits(out.acceleration) == bits(applied)
        assert bits(out.speed) == bits(speed)
        assert bits(out.position) == bits(3.0 + v * dt)


def test_position_overflow_raises_numeric_fault():
    # The plant's new state rejects a non-finite position, so an overflow
    # ends a run with exit code 3 like any other numeric fault.
    with pytest.raises(NumericFault):
        step_vehicle(state(r=1.7e308, v=20.0), 0.0, 1e307, LIMITS)


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        DynamicsLimits(accel_max=0.0)
    with pytest.raises(ValueError):
        DynamicsLimits(decel_max=-1.0)
    with pytest.raises(ValueError):
        DynamicsLimits(speed_max=0.0)


def test_euler_matches_closed_form_under_constant_accel():
    cur = state(r=0.0, v=5.0)
    dt = 0.1
    n = 40
    for _ in range(n):
        cur = step_vehicle(cur, 1.0, dt, LIMITS)
    t = n * dt
    # position integrates pre-update speed: r = v0*t + a*dt^2*(0+1+..+n-1)
    expected = 5.0 * t + 1.0 * dt * dt * (n * (n - 1) / 2)
    assert cur.position == pytest.approx(expected, abs=1e-9)
    assert cur.speed == pytest.approx(5.0 + 1.0 * t, abs=1e-12)
    assert math.isfinite(cur.position)
