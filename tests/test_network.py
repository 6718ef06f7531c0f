import heapq
import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cavsim.estimation import integrate_position
from cavsim.network import (
    DROPPED,
    BurstLossModel,
    ChannelModel,
    Dropped,
    V2XChannel,
    link_stream,
    seeded_stream,
    transmit,
)
from cavsim.types import Beacon, TrajectoryEstimate, VehicleState, grid_cutoff


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

    def test_ideal_model_draws_nothing(self):
        # No stream is needed: NLOS still drops, the rest arrive after
        # delay_mean, exactly when the draws would deliver them.
        channel = ChannelModel(delay_mean=0.05, delay_std=0.0, loss_prob=0.0,
                               nlos_windows=((4.0, 6.0),), seed=1)
        assert channel.draws_nothing
        assert isinstance(transmit(channel, beacon(send_time=5.0), 5.0, None), Dropped)
        stream = link_stream(channel, 0, 1)
        for t in (0.0, 0.1, 7.3):
            assert transmit(channel, beacon(send_time=t), t, None) == t + 0.05
            assert reference_transmit(channel, beacon(send_time=t), t, stream, None) == t + 0.05
        v2x = V2XChannel(channel)
        assert v2x.send(beacon(sender=0, send_time=1.0), 1, 1.0)
        assert not v2x.send(beacon(sender=0, send_time=5.0), 1, 5.0)
        assert v2x._streams == {}

    @pytest.mark.parametrize("change", [
        {"loss_prob": 0.2},
        {"delay_std": 0.01},
        {"burst": BurstLossModel(p_good_to_bad=0.0, p_bad_to_good=1.0)},
    ], ids=["loss", "spread", "burst"])
    def test_any_randomness_keeps_the_draws(self, change):
        # Loss with zero spread still draws: its loss draws move the stream.
        channel = ChannelModel(**{"delay_mean": 0.0, "delay_std": 0.0, "loss_prob": 0.0, **change})
        assert not channel.draws_nothing
        v2x = V2XChannel(channel)
        v2x.send(beacon(sender=0, send_time=1.0), 1, 1.0)
        assert list(v2x._streams) == [(0, 1)]

    def test_nlos_window_edges_are_on_the_step_clock(self):
        # 3 * 0.3 computes as 0.8999999999999999 and 6 * 0.3 as
        # 1.7999999999999998, yet [0.9, 1.8) covers steps 3-5 exactly.
        channel = ChannelModel(delay_mean=0.0, delay_std=0.0, loss_prob=0.0,
                               nlos_windows=((0.9, 1.8),))
        dropped = [i for i in range(10)
                   if transmit(channel, beacon(send_time=i * 0.3), i * 0.3, None) is DROPPED]
        assert dropped == [3, 4, 5]

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


def reference_transmit(channel, b, now, stream, receiver):
    """``transmit`` drawing its loss decisions with ``uniform()``.

    numpy computes ``uniform(0, 1)`` as ``0 + 1 * next_double``, which is the
    double ``random()`` returns, so both forms decide every beacon alike.
    """
    if channel.link_impaired(b.sender, receiver):
        if channel.in_nlos(now):
            return DROPPED
        if channel.burst is not None:
            if stream.in_bad_state:
                if stream.rng.uniform() < channel.burst.p_bad_to_good:
                    stream.in_bad_state = False
                else:
                    return DROPPED
            elif stream.rng.uniform() < channel.burst.p_good_to_bad:
                stream.in_bad_state = True
                return DROPPED
        if stream.rng.uniform() < channel.loss_prob:
            return DROPPED
    tau = channel.delay_mean + channel.delay_std * stream.rng.standard_normal()
    return now + max(0.0, tau)


class ReferenceChannel:
    """The channel as a single in-flight queue (reference oracle).

    Every beacon waits in one queue ordered by (delivery time, sender, send
    time, send order). Polling any receiver pops everything due into
    per-receiver buffers that keep the freshest beacon per sender; the polled
    receiver then takes its buffer, minus beacons no newer than one it
    already consumed on that link. Link randomness comes from the same
    ``link_stream`` as ``V2XChannel``, drawn by ``reference_transmit``.
    """

    def __init__(self, model):
        self.model = model
        self.queue = []
        self.sent = itertools.count()
        self.streams = {}
        self.pending = {}
        self.last_consumed = {}

    def send(self, b, receiver, now):
        key = (b.sender, receiver)
        if key not in self.streams:
            self.streams[key] = link_stream(self.model, *key)
        result = reference_transmit(self.model, b, now, self.streams[key], receiver)
        if isinstance(result, Dropped):
            return False
        entry = (result, b.sender, b.send_time, next(self.sent), receiver, b)
        heapq.heappush(self.queue, entry)
        return True

    def deliver_to(self, receiver, now):
        # Due: at or before ``now`` on the step clock.
        while self.queue and self.queue[0][0] <= grid_cutoff(now):
            *_, rcv, b = heapq.heappop(self.queue)
            bucket = self.pending.setdefault(rcv, {})
            held = bucket.get(b.sender)
            if held is None or b.send_time > held.send_time:
                bucket[b.sender] = b
        out = {}
        for sender, b in self.pending.pop(receiver, {}).items():
            last = self.last_consumed.get((sender, receiver))
            if last is None or b.send_time > last:
                self.last_consumed[(sender, receiver)] = b.send_time
                out[sender] = b
        return out


IDEAL = ChannelModel(delay_mean=0.0, delay_std=0.0, loss_prob=0.0, seed=1)


def both(model=IDEAL):
    return V2XChannel(model), ReferenceChannel(model)


def send_both(channels, b, receiver, now):
    """Send on both channels; on an ideal channel ``now`` is the delivery time."""
    sent = [channel.send(b, receiver, now) for channel in channels]
    assert sent[0] == sent[1]
    return sent[0]


def deliver_both(channels, receiver, now):
    """Poll both channels. No beacon is delivered before its send time: the
    follower estimator relies on that and does not check it again."""
    got = [channel.deliver_to(receiver, now) for channel in channels]
    assert got[0] == got[1]
    assert all(b.send_time <= now for b in got[0].values())
    return got[0]


class TestQueue:
    def test_order_by_delivery_time(self):
        channels = both()
        send_both(channels, beacon(sender=0, send_time=5.0), 1, 5.03)
        send_both(channels, beacon(sender=2, send_time=5.0), 1, 5.01)
        assert sorted(deliver_both(channels, 1, 5.05)) == [0, 2]

    def test_only_due_entries_pop(self):
        channels = both()
        send_both(channels, beacon(send_time=5.0), 1, 5.01)
        send_both(channels, beacon(send_time=5.1), 1, 5.2)
        assert deliver_both(channels, 1, 5.05)[0].send_time == 5.0
        assert deliver_both(channels, 1, 5.1) == {}
        assert deliver_both(channels, 1, 5.2)[0].send_time == 5.1

    def test_empty_queue(self):
        assert deliver_both(both(), 1, 10.0) == {}

    def test_sender_then_send_time_tiebreak(self):
        channels = both()
        send_both(channels, beacon(sender=4, send_time=4.9), 1, 5.0)
        send_both(channels, beacon(sender=4, send_time=4.8), 1, 5.0)
        send_both(channels, beacon(sender=1, send_time=4.95), 1, 5.0)
        got = deliver_both(channels, 1, 5.0)
        assert {s: b.send_time for s, b in got.items()} == {1: 4.95, 4: 4.9}


class TestV2XChannel:
    def test_freshest_wins_per_sender(self):
        channels = both()
        send_both(channels, beacon(sender=0, send_time=4.9), 1, 5.0)
        send_both(channels, beacon(sender=0, send_time=5.0), 1, 5.0)
        assert deliver_both(channels, 1, 5.0)[0].send_time == 5.0

    def test_stale_beacons_discarded(self):
        channels = both()
        send_both(channels, beacon(sender=0, send_time=5.0), 1, 5.0)
        assert deliver_both(channels, 1, 5.0)[0].send_time == 5.0
        # an out-of-order older beacon arrives later
        send_both(channels, beacon(sender=0, send_time=4.7), 1, 5.1)
        assert deliver_both(channels, 1, 5.1) == {}

    def test_send_and_deliver_roundtrip(self):
        channels = both()
        assert send_both(channels, beacon(sender=0, send_time=1.0), 1, 1.0)
        assert deliver_both(channels, 1, 1.0)[0].sender == 0

    def test_other_receivers_keep_their_beacons(self):
        channels = both()
        send_both(channels, beacon(sender=0, send_time=1.0), 1, 1.0)
        send_both(channels, beacon(sender=0, send_time=1.0), 2, 1.0)
        assert deliver_both(channels, 1, 2.0)[0].send_time == 1.0
        assert deliver_both(channels, 2, 3.0)[0].send_time == 1.0

    @pytest.mark.parametrize("delay, dt", [(0.04, 0.02), (0.1, 0.1), (0.1, 0.02)])
    def test_whole_step_delay_delivers_that_many_steps_after_sending(self, delay, dt):
        """A draw-free delay of m steps delivers every beacon exactly m steps
        after its send, on the engine's clock ``now = i * dt``, though ``i *
        dt + delay`` often computes above ``(i + m) * dt``: a bare ``<=``
        delivered 34, 132 and 324 of these 1,500 sends a step late."""
        m = round(delay / dt)
        channel = V2XChannel(ChannelModel(delay_mean=delay, delay_std=0.0, loss_prob=0.0))
        delivered = {}
        for i in range(1500 + m):
            for b in channel.deliver_to(1, i * dt).values():
                delivered[i] = round(b.send_time / dt)
            if i < 1500:
                channel.send(beacon(sender=0, send_time=i * dt), 1, i * dt)
        assert delivered == {i + m: i for i in range(1500)}


vehicle = st.integers(0, 3)
# Every step, 0 -> 1 and 1 -> 2 send and both receivers poll, over 2 s.
DRAW_FREE_SCHEDULE = [([(0, 1), (1, 2)], [1, 2])] * 20


@settings(max_examples=150, deadline=None)
@given(
    schedule=st.lists(
        st.tuples(st.lists(st.tuples(vehicle, vehicle), max_size=4), st.lists(vehicle, max_size=5)),
        max_size=30,
    ),
    seed=st.integers(0, 2**16),
    # 0.1 s and 0.2 s are whole steps of the 0.1 s schedule.
    delay_mean=st.sampled_from([0.0, 0.05, 0.1, 0.15, 0.2]),
    delay_std=st.sampled_from([0.0, 0.1]),
    loss_prob=st.sampled_from([0.0, 0.2]),
    burst=st.sampled_from([None, BurstLossModel(p_good_to_bad=0.3, p_bad_to_good=0.5)]),
    nlos_windows=st.sampled_from([(), ((1.0, 1.5),)]),
)
# Draw-free models: a delay over one step, and an NLOS window.
@example(schedule=DRAW_FREE_SCHEDULE, seed=1, delay_mean=0.15, delay_std=0.0, loss_prob=0.0,
         burst=None, nlos_windows=())
@example(schedule=DRAW_FREE_SCHEDULE, seed=1, delay_mean=0.05, delay_std=0.0, loss_prob=0.0,
         burst=None, nlos_windows=((1.0, 1.5),))
def test_channel_matches_reference(
    schedule, seed, delay_mean, delay_std, loss_prob, burst, nlos_windows
):
    """Delays up to several steps reorder deliveries, and each step polls only
    the listed receivers (any order, repeats allowed), so beacons wait
    across steps for receivers that are not polled. The reference keeps its
    draws on a model that ``draws_nothing``, which pins that skipping them
    changes no delivery."""
    model = ChannelModel(
        delay_mean=delay_mean, delay_std=delay_std, loss_prob=loss_prob, seed=seed,
        burst=burst, nlos_windows=nlos_windows,
    )
    channels = both(model)
    for k, (sends, polls) in enumerate(schedule):
        now = k * 0.1
        for sender, receiver in sends:
            send_both(channels, beacon(sender=sender, send_time=now), receiver, now)
        for receiver in polls:
            deliver_both(channels, receiver, now)
    for receiver in range(4):
        deliver_both(channels, receiver, math.inf)


def test_random_draws_the_double_uniform_draws():
    # transmit's loss draws rest on this: both consume one double per call.
    a = link_stream(ChannelModel(seed=3), 0, 1).rng
    b = link_stream(ChannelModel(seed=3), 0, 1).rng
    assert [a.uniform() for _ in range(10_000)] == [b.random() for _ in range(10_000)]


def test_seeded_streams_draw_as_the_inline_constructions():
    """First draws recorded from the inline
    ``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key)))`` that
    ``link_stream`` and the random spawns each built before ``seeded_stream``
    owned it."""
    link = [0.9284435459532332, 0.18310307633426282, 0.8088385325234915]
    assert seeded_stream(7, (1, 3, 4)).random(3).tolist() == link
    assert link_stream(ChannelModel(seed=7), 3, 4).rng.random(3).tolist() == link
    assert seeded_stream(7, (1, 3, 4)).standard_normal(2).tolist() == [
        1.1257846158660902,
        0.5366778731550937,
    ]
    assert seeded_stream(42, (2,)).exponential(1.0 / 0.09, 3).tolist() == [
        2.0948045634151162,
        3.9168310761567273,
        1.4351451090782892,
    ]


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
