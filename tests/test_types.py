import dataclasses
import inspect
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from cavsim.errors import NumericFault
from cavsim.types import Beacon, TrajectoryEstimate, VehicleState, lerp_trajectory


def make_estimate(speeds, anchor_time=10.0, step=0.1, anchor_speed=None, anchor_position=0.0):
    anchor_speed = anchor_speed if anchor_speed is not None else speeds[0]
    positions = []
    r = anchor_position
    prev = anchor_speed
    for v in speeds:
        r += prev * step
        positions.append(r)
        prev = v
    return TrajectoryEstimate(
        anchor_time=anchor_time,
        step=step,
        anchor_speed=anchor_speed,
        anchor_position=anchor_position,
        speeds=tuple(speeds),
        positions=tuple(positions),
    )


class TestLerpTrajectory:
    def test_exact_sample_hit(self):
        est = make_estimate([5.0, 6.0, 7.0])
        speed, _ = lerp_trajectory(est, 10.1)
        assert speed == 5.0

    def test_midpoint_interpolation(self):
        est = make_estimate([5.0, 6.0, 7.0])
        speed, _ = lerp_trajectory(est, 10.15)
        assert speed == pytest.approx(5.5, abs=1e-12)

    def test_beyond_horizon_holds_final_speed(self):
        est = make_estimate([5.0, 6.0, 7.0])  # ends at 10.3
        speed, position = lerp_trajectory(est, 10.5)
        assert speed == est.speeds[-1]
        assert position == est.positions[-1] + est.speeds[-1] * (10.5 - est.end_time)

    def test_query_at_anchor_rejected(self):
        est = make_estimate([5.0, 6.0, 7.0])
        with pytest.raises(ValueError):
            lerp_trajectory(est, 10.0)
        with pytest.raises(ValueError):
            lerp_trajectory(est, 9.9)

    def test_end_of_horizon_is_valid(self):
        est = make_estimate([5.0, 6.0, 7.0])
        speed, _ = lerp_trajectory(est, est.end_time)
        assert speed == 7.0

    @given(
        speeds=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=30),
        k=st.integers(1, 30),
    )
    def test_exact_sample_times_return_stored_samples(self, speeds, k):
        k = min(k, len(speeds))
        est = make_estimate(speeds, anchor_speed=10.0)
        speed, position = lerp_trajectory(est, est.anchor_time + k * est.step)
        assert speed == est.speeds[k - 1]
        assert position == est.positions[k - 1]

    @given(
        speeds=st.lists(st.floats(0.0, 40.0), min_size=2, max_size=30),
        x=st.floats(0.01, 0.99),
        eps=st.floats(0.001, 0.05),
    )
    def test_continuity(self, speeds, x, eps):
        est = make_estimate(speeds, anchor_speed=12.0)
        samples = [est.anchor_speed, *est.speeds]
        max_adjacent = max(
            abs(b - a) for a, b in zip(samples, samples[1:])
        )
        t0 = est.anchor_time + (x + 0.005) * est.step * (len(speeds) - 1) + est.step * 0.001
        t0 = min(max(t0, est.anchor_time + 1e-6), est.end_time - eps * est.step)
        v0, _ = lerp_trajectory(est, t0)
        v1, _ = lerp_trajectory(est, t0 + eps * est.step)
        assert abs(v1 - v0) <= max_adjacent + 1e-9


class TestInvariants:
    def test_vehicle_state_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            VehicleState(position=0.0, speed=-1.0, acceleration=0.0, length=5.0, leg="a")

    def test_vehicle_state_rejects_zero_length(self):
        with pytest.raises(ValueError):
            VehicleState(position=0.0, speed=1.0, acceleration=0.0, length=0.0, leg="a")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("position", math.nan),
            ("position", math.inf),
            ("position", -math.inf),
            ("speed", math.nan),
            ("speed", math.inf),
            ("acceleration", math.nan),
            ("acceleration", -math.inf),
        ],
    )
    def test_vehicle_state_rejects_non_finite(self, field, value):
        fields = dict(position=0.0, speed=1.0, acceleration=0.0, length=5.0, leg="a")
        fields[field] = value
        with pytest.raises(NumericFault):
            VehicleState(**fields)

    @pytest.mark.parametrize("speed", [-1.0, -5e-324, -math.inf])
    def test_vehicle_state_negative_speed_is_value_error(self, speed):
        with pytest.raises(ValueError):
            VehicleState(position=0.0, speed=speed, acceleration=0.0, length=5.0, leg="a")

    @pytest.mark.parametrize("length", [0.0, -0.0, -3.0])
    def test_vehicle_state_non_positive_length_is_value_error(self, length):
        with pytest.raises(ValueError):
            VehicleState(position=0.0, speed=1.0, acceleration=0.0, length=length, leg="a")

    def test_vehicle_state_nan_length_is_value_error(self):
        with pytest.raises(ValueError, match="length must be > 0, got nan"):
            VehicleState(position=0.0, speed=1.0, acceleration=0.0, length=math.nan, leg="a")

    def test_vehicle_state_accepts_zero_speed_and_negative_position(self):
        VehicleState(position=-1e300, speed=0.0, acceleration=-5.0, length=5.0, leg="a")
        VehicleState(position=0.0, speed=-0.0, acceleration=0.0, length=5.0, leg="a")

    @pytest.mark.parametrize("field", ["anchor_speed", "anchor_position"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_estimate_rejects_non_finite_anchor(self, field, value):
        fields = dict(
            anchor_time=0.0, step=0.1, anchor_speed=1.0, anchor_position=0.0,
            speeds=(1.0,), positions=(0.1,),
        )
        fields[field] = value
        with pytest.raises(NumericFault):
            TrajectoryEstimate(**fields)

    def test_estimate_samples_are_not_checked(self):
        # Only the anchors are checked, never per sample; the estimator
        # checks the samples it reads.
        TrajectoryEstimate(
            anchor_time=0.0, step=0.1, anchor_speed=1.0, anchor_position=0.0,
            speeds=(math.nan,), positions=(math.inf,),
        )

    def test_estimate_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            TrajectoryEstimate(
                anchor_time=0.0, step=0.1, anchor_speed=1.0, anchor_position=0.0,
                speeds=(1.0, 2.0), positions=(1.0,),
            )

    def test_estimate_rejects_empty_horizon(self):
        with pytest.raises(ValueError):
            TrajectoryEstimate(
                anchor_time=0.0, step=0.1, anchor_speed=1.0, anchor_position=0.0,
                speeds=(), positions=(),
            )

    def test_positions_nondecreasing_for_nonnegative_speeds(self):
        est = make_estimate([3.0, 0.0, 5.0], anchor_speed=2.0)
        assert list(est.positions) == sorted(est.positions)

    def test_beacon_rejects_future_anchor(self):
        est = make_estimate([5.0], anchor_time=10.0)
        state = VehicleState(position=0.0, speed=5.0, acceleration=0.0, length=5.0, leg="a")
        with pytest.raises(ValueError):
            Beacon(sender=0, send_time=9.0, state=state, estimate=est)

    def test_beacon_allows_anchor_at_or_before_send(self):
        est = make_estimate([5.0], anchor_time=10.0)
        state = VehicleState(position=0.0, speed=5.0, acceleration=0.0, length=5.0, leg="a")
        Beacon(sender=0, send_time=10.0, state=state, estimate=est)
        Beacon(sender=0, send_time=10.5, state=state, estimate=est)

    def test_beacon_compares_anchor_and_send_time_on_the_step_clock(self):
        # Past 16,384 s one ulp exceeds 1e-12 s; an anchor one ulp after the
        # send time is the same step, one step after it is not.
        send_time = 546_136 * 0.03
        state = VehicleState(position=0.0, speed=5.0, acceleration=0.0, length=5.0, leg="a")
        assert 16384.08 > send_time
        Beacon(0, send_time, state, make_estimate([5.0], anchor_time=16384.08))
        with pytest.raises(ValueError):
            Beacon(0, send_time, state, make_estimate([5.0], anchor_time=send_time + 0.03))


class TestBeaconTuple:
    """Beacon is an immutable named tuple; every way to build one checks it."""

    def beacon(self, send_time=10.0):
        est = make_estimate([5.0], anchor_time=10.0)
        state = VehicleState(position=0.0, speed=5.0, acceleration=0.0, length=5.0, leg="a")
        return Beacon(0, send_time, state, est)

    def test_fields_by_name_and_position(self):
        b = self.beacon()
        assert Beacon._fields == ("sender", "send_time", "state", "estimate")
        assert (b.sender, b.send_time) == (0, 10.0) == tuple(b)[:2]
        assert b == Beacon(sender=0, send_time=10.0, state=b.state, estimate=b.estimate)

    def test_immutable(self):
        b = self.beacon()
        with pytest.raises(AttributeError):
            b.send_time = 11.0
        with pytest.raises(AttributeError):
            b.note = "x"

    def test_replace_make_and_pickle_keep_the_check(self):
        b = self.beacon()
        assert b._replace(send_time=10.5).send_time == 10.5
        with pytest.raises(ValueError):
            b._replace(send_time=9.0)
        with pytest.raises(ValueError):
            Beacon._make((0, 9.0, b.state, b.estimate))
        assert pickle.loads(pickle.dumps(b)) == b


class TestVehicleStateDataclass:
    """VehicleState keeps every frozen-dataclass behaviour."""

    FIELDS = dict(position=1.5, speed=2.0, acceleration=-0.5, length=4.5, leg="b")

    def test_constructor_takes_the_declared_fields_in_order(self):
        # The constructor takes the declared fields in order.
        parameters = list(inspect.signature(VehicleState).parameters)
        assert parameters == [f.name for f in dataclasses.fields(VehicleState)]

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = VehicleState(**self.FIELDS)
        by_position = VehicleState(1.5, 2.0, -0.5, 4.5, "b")
        assert by_keyword == by_position
        assert hash(by_keyword) == hash(by_position)
        assert by_keyword != VehicleState(**{**self.FIELDS, "speed": 2.5})

    def test_repr_asdict_and_replace(self):
        st = VehicleState(**self.FIELDS)
        assert repr(st) == (
            "VehicleState(position=1.5, speed=2.0, acceleration=-0.5, length=4.5, leg='b')"
        )
        assert dataclasses.asdict(st) == self.FIELDS
        assert vars(st) == self.FIELDS
        moved = dataclasses.replace(st, position=9.0)
        assert moved.position == 9.0 and moved.leg == "b"
        with pytest.raises(ValueError):
            dataclasses.replace(st, speed=-1.0)

    def test_frozen(self):
        st = VehicleState(**self.FIELDS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.speed = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del st.leg

    def test_missing_or_unknown_argument_is_type_error(self):
        with pytest.raises(TypeError):
            VehicleState(position=0.0, speed=1.0, acceleration=0.0, length=5.0)
        with pytest.raises(TypeError):
            VehicleState(**self.FIELDS, colour="red")

    def test_pickle_round_trip(self):
        st = VehicleState(**self.FIELDS)
        assert pickle.loads(pickle.dumps(st)) == st


def test_sample_accessors():
    est = make_estimate([5.0, 6.0], anchor_speed=4.0, anchor_position=100.0)
    assert est.speed_at(0) == 4.0
    assert est.speed_at(1) == 5.0
    assert est.position_at(0) == 100.0
    assert math.isclose(est.end_time, est.anchor_time + 2 * est.step)
