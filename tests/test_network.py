import pytest
from hypothesis import given, settings, strategies as st

from cavsim.estimation import integrate_position
from cavsim.network import (
    DROPPED,
    BurstLossModel,
    ChannelModel,
    Dropped,
    InFlightQueue,
    V2XChannel,
    link_stream,
    transmit,
)
from cavsim.types import Beacon, TrajectoryEstimate, VehicleState


def beacon(sender=0, send_time=0.0, position=0.0, speed=10.0):
    positions = integrate_position(position, speed, [speed], 0.1)
    est = TrajectoryEstimate(
        anchor_time=send_time, step=0.1, anchor_speed=speed,
        anchor_position=position, speeds=(speed,), positions=tuple(positions),
    )
    state = VehicleState(position=position, speed=speed, acceleration=0.0, length=5.0, leg="a")
    return Beacon(sender=sender, send_time=send_time, state=state, estimate=est)


class TestTransmit:
    def test_nlos_window_drops_with_certainty(self):
        channel = ChannelModel(loss_prob=0.0, nlos_windows=((4.0, 6.0),), seed=1)
        stream = link_stream(channel, 0, 1)
        for t in (4.0, 5.0, 5.999):
            assert isinstance(transmit(channel, beacon(send_time=t), t, stream), Dropped)
        assert not isinstance(transmit(channel, beacon(send_time=6.0), 6.0, stream), Dropped)

    def test_zero_loss_zero_delay_is_passthrough(self):
        channel = ChannelModel(delay_mean=0.0, delay_std=0.0, loss_prob=0.0, seed=1)
        stream = link_stream(channel, 0, 1)
        for t in (0.0, 0.1, 0.2):
            assert transmit(channel, beacon(send_time=t), t, stream) == t

    def test_negative_draws_clamp_to_zero(self):
        channel = ChannelModel(delay_mean=0.0, delay_std=0.5, loss_prob=0.0, seed=2)
        stream = link_stream(channel, 0, 1)
        results = [transmit(channel, beacon(send_time=1.0), 1.0, stream) for _ in range(200)]
        assert all(r >= 1.0 for r in results)
        assert any(r == 1.0 for r in results)  # at least one clamped draw
        assert any(r > 1.0 for r in results)

    def test_determinism_per_link(self):
        channel = ChannelModel(seed=42)
        a = link_stream(channel, 3, 4)
        b = link_stream(channel, 3, 4)
        outs_a = [transmit(channel, beacon(send_time=t * 0.1), t * 0.1, a) for t in range(50)]
        outs_b = [transmit(channel, beacon(send_time=t * 0.1), t * 0.1, b) for t in range(50)]
        assert [repr(x) for x in outs_a] == [repr(x) for x in outs_b]

    def test_distinct_links_are_independent(self):
        channel = ChannelModel(seed=42, loss_prob=0.0)
        a = link_stream(channel, 0, 1)
        b = link_stream(channel, 1, 2)
        outs_a = [transmit(channel, beacon(send_time=0.0), 0.0, a) for _ in range(10)]
        outs_b = [transmit(channel, beacon(send_time=0.0), 0.0, b) for _ in range(10)]
        assert outs_a != outs_b

    def test_impaired_scoping(self):
        channel = ChannelModel(
            loss_prob=1.0, nlos_windows=((0.0, 100.0),), seed=5, impaired_vehicles=(7,)
        )
        clean = link_stream(channel, 0, 1)
        dirty = link_stream(channel, 7, 8)
        assert not isinstance(transmit(channel, beacon(sender=0), 1.0, clean, receiver=1), Dropped)
        assert isinstance(transmit(channel, beacon(sender=7), 1.0, dirty, receiver=8), Dropped)
        # receiver side of the impaired vehicle is impaired too
        inbound = link_stream(channel, 3, 7)
        assert isinstance(transmit(channel, beacon(sender=3), 1.0, inbound, receiver=7), Dropped)

    def test_burst_model_state_machine(self):
        channel = ChannelModel(
            loss_prob=0.0, delay_std=0.0, delay_mean=0.0, seed=1,
            burst=BurstLossModel(p_good_to_bad=1.0, p_bad_to_good=1.0),
        )
        stream = link_stream(channel, 0, 1)
        first = transmit(channel, beacon(send_time=0.0), 0.0, stream)
        second = transmit(channel, beacon(send_time=0.1), 0.1, stream)
        assert isinstance(first, Dropped)       # good -> bad, dropped
        assert second == 0.1                    # bad -> good, delivered


class TestQueue:
    def test_order_by_delivery_time(self):
        q = InFlightQueue()
        q.push(5.03, 1, beacon(sender=0, send_time=5.0))
        q.push(5.01, 1, beacon(sender=2, send_time=5.0))
        out = [b for _, b in q.pop_due(5.05)]
        assert [b.sender for b in out] == [2, 0]

    def test_only_due_entries_pop(self):
        q = InFlightQueue()
        q.push(5.01, 1, beacon(send_time=5.0))
        q.push(5.2, 1, beacon(send_time=5.1))
        assert len(list(q.pop_due(5.05))) == 1
        assert len(q) == 1

    def test_empty_queue(self):
        assert list(InFlightQueue().pop_due(10.0)) == []

    def test_sender_then_send_time_tiebreak(self):
        q = InFlightQueue()
        q.push(5.0, 1, beacon(sender=4, send_time=4.9))
        q.push(5.0, 1, beacon(sender=4, send_time=4.8))
        q.push(5.0, 1, beacon(sender=1, send_time=4.95))
        out = [b for _, b in q.pop_due(5.0)]
        assert [(b.sender, b.send_time) for b in out] == [(1, 4.95), (4, 4.8), (4, 4.9)]


class TestV2XChannel:
    def test_freshest_wins_per_sender(self):
        channel = V2XChannel(ChannelModel(delay_mean=0.0, delay_std=0.0, loss_prob=0.0, seed=1))
        channel.queue.push(5.0, 1, beacon(sender=0, send_time=4.9))
        channel.queue.push(5.0, 1, beacon(sender=0, send_time=5.0))
        got = channel.deliver_to(1, 5.0)
        assert got[0].send_time == 5.0

    def test_stale_beacons_discarded(self):
        channel = V2XChannel(ChannelModel(delay_mean=0.0, delay_std=0.0, loss_prob=0.0, seed=1))
        channel.queue.push(5.0, 1, beacon(sender=0, send_time=5.0))
        assert channel.deliver_to(1, 5.0)[0].send_time == 5.0
        # an out-of-order older beacon arrives later
        channel.queue.push(5.1, 1, beacon(sender=0, send_time=4.7))
        assert channel.deliver_to(1, 5.1) == {}

    def test_send_and_deliver_roundtrip(self):
        channel = V2XChannel(ChannelModel(delay_mean=0.0, delay_std=0.0, loss_prob=0.0, seed=1))
        assert channel.send(beacon(sender=0, send_time=1.0), 1, 1.0)
        got = channel.deliver_to(1, 1.0)
        assert got[0].sender == 0


def full_drain(channel, receiver, now):
    """``deliver_to`` without its early return: drain, buffer, then consume."""
    for rcv, b in channel.queue.pop_due(now):
        bucket = channel._pending.setdefault(rcv, {})
        held = bucket.get(b.sender)
        if held is None or b.send_time > held.send_time:
            bucket[b.sender] = b
    out = {}
    for sender, b in channel._pending.pop(receiver, {}).items():
        last = channel._last_consumed.get((sender, receiver))
        if last is not None and b.send_time <= last:
            continue
        channel._last_consumed[(sender, receiver)] = b.send_time
        out[sender] = b
    return out


vehicle = st.integers(0, 3)


@settings(max_examples=150, deadline=None)
@given(
    schedule=st.lists(
        st.tuples(st.lists(st.tuples(vehicle, vehicle), max_size=4), st.lists(vehicle, max_size=5)),
        max_size=30,
    ),
    seed=st.integers(0, 2**16),
)
def test_deliver_to_equals_full_drain(schedule, seed):
    model = ChannelModel(delay_mean=0.15, delay_std=0.1, loss_prob=0.2, seed=seed)
    fast, full = V2XChannel(model), V2XChannel(model)
    for k, (sends, polls) in enumerate(schedule):
        now = k * 0.1
        for sender, receiver in sends:
            b = beacon(sender=sender, send_time=now)
            assert fast.send(b, receiver, now) == full.send(b, receiver, now)
        for receiver in polls:
            assert fast.deliver_to(receiver, now) == full_drain(full, receiver, now)
    assert len(fast.queue) == len(full.queue)


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(delay_mean=-0.1)
    with pytest.raises(ValueError):
        ChannelModel(loss_prob=1.5)
    with pytest.raises(ValueError):
        ChannelModel(nlos_windows=((4.0, 4.0),))
    with pytest.raises(ValueError):
        ChannelModel(nlos_windows=((4.0, 6.0), (5.0, 7.0)))


def test_dropped_repr():
    assert repr(DROPPED) == "Dropped"
