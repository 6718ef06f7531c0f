"""V2X channel emulation.

Beacons suffer a per-transmission stochastic delay (normal, clamped at
zero), random Bernoulli loss, and total loss inside configured
non-line-of-sight windows. Every directed vehicle pair owns an independent
RNG sub-stream derived from the scenario seed, so drop decisions and delay
draws never depend on send ordering.
"""

from __future__ import annotations

from heapq import heappop, heappush
from dataclasses import dataclass, field

import numpy as np

from .types import Beacon, SimTime, VehicleId, check_bounds, grid_cutoff


@dataclass(frozen=True)
class BurstLossModel:
    """Optional Gilbert-Elliott two-state loss, off by default.

    While in the bad state every packet drops; transitions are sampled per
    transmission from the link's own stream.
    """

    p_good_to_bad: float = field(
        metadata={"key": "p_good_to_bad", "default": 0.0, "ge": 0, "le": 1}
    )
    p_bad_to_good: float = field(
        metadata={"key": "p_bad_to_good", "default": 1.0, "ge": 0, "le": 1}
    )

    __post_init__ = check_bounds


@dataclass(frozen=True)
class ChannelModel:
    """Stochastic delay plus a hybrid loss model.

    Delay applies to every link. Loss (random and NLOS) applies to every
    link by default; when ``impaired_vehicles`` is set it applies only to
    links touching one of those vehicles, modeling an obstructed or
    degraded radio on specific vehicles while the rest of the fleet
    communicates cleanly.

    ``draws_nothing`` (not a field) is true for a model with no random
    loss, no delay spread and no burst state: a send's fate is then fixed
    by the clock, and ``transmit`` takes no draw.
    """

    # A NaN delay would deliver as a zero delay; the bounds reject it.
    delay_mean: float = field(default=0.040, metadata={"key": "delay_mean_s", "ge": 0})
    delay_std: float = field(default=0.0259, metadata={"key": "delay_std_s", "ge": 0})
    loss_prob: float = field(default=0.1, metadata={"key": "loss_prob", "ge": 0, "le": 1})
    nlos_windows: tuple[tuple[float, float], ...] = field(
        default=(), metadata={"key": "nlos_windows"}
    )
    seed: int = 0
    burst: BurstLossModel | None = field(default=None, metadata={"key": "burst"})
    impaired_vehicles: tuple[VehicleId, ...] | None = field(
        default=None, metadata={"key": "impaired_vehicles"}
    )

    def __post_init__(self) -> None:
        check_bounds(self)
        ordered = sorted(self.nlos_windows)
        for start, end in ordered:
            if not start < end:
                raise ValueError(f"NLOS window [{start}, {end}) is empty or inverted")
        for (_, prev_end), (next_start, _) in zip(ordered, ordered[1:]):
            if not next_start >= prev_end:
                raise ValueError("NLOS windows must not overlap")
        # Set once here: a cached property's write to ``__dict__`` would turn
        # every later field read on the model into a dict lookup.
        object.__setattr__(
            self,
            "draws_nothing",
            self.loss_prob == 0.0 and self.delay_std == 0.0 and self.burst is None,
        )

    def in_nlos(self, t: SimTime) -> bool:
        t = grid_cutoff(t)
        for start, end in self.nlos_windows:
            if start <= t < end:
                return True
        return False

    def link_impaired(self, sender: VehicleId, receiver: VehicleId | None) -> bool:
        if self.impaired_vehicles is None:
            return True
        if sender in self.impaired_vehicles:
            return True
        return receiver is not None and receiver in self.impaired_vehicles


class Dropped:
    """Sentinel result of a lost transmission."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "Dropped"


DROPPED = Dropped()


@dataclass
class LinkStream:
    """Per-link randomness plus burst-loss state."""

    rng: np.random.Generator
    in_bad_state: bool = False


def seeded_stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """The run's independent random stream named by ``key``.

    Every seeded draw in a run comes from one of these, and each consumer
    owns a key namespace, told apart by the key's first element:
    ``(1, sender, receiver)`` is a directed link's stream, and ``(2,)`` the
    random spawns' stream. A new consumer takes a new first element.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def link_stream(channel: ChannelModel, sender: VehicleId, receiver: VehicleId) -> LinkStream:
    return LinkStream(rng=seeded_stream(channel.seed, (1, sender, receiver)))


def transmit(
    channel: ChannelModel,
    beacon: Beacon,
    now: SimTime,
    stream: LinkStream | None,
    receiver: VehicleId | None = None,
) -> SimTime | Dropped:
    """Decide one beacon's fate: a delivery time, or Dropped.

    On an impaired link, a send inside an NLOS window is dropped with
    certainty (consuming no randomness), and otherwise one Bernoulli draw
    decides random loss. Surviving beacons get one normal delay draw
    clamped at zero.

    A model that ``draws_nothing`` skips both draws and needs no stream: it
    delivers at ``now + delay_mean``, the time the draws would give, since
    ``random() < 0.0`` never holds and ``delay_mean + 0.0 * z`` is
    ``delay_mean`` (non-negative, as ``ChannelModel`` checks). A model with
    loss but no delay spread still draws: its loss draws move the stream.

    The link is looked up only where its answer matters: inside an NLOS
    window, and before the draws. A draw-free model without NLOS windows,
    such as the ideal channel, decides a send from the clock alone.
    """
    if (
        channel.nlos_windows
        and channel.in_nlos(now)
        and channel.link_impaired(beacon.sender, receiver)
    ):
        return DROPPED
    if channel.draws_nothing:
        return now + channel.delay_mean
    if channel.link_impaired(beacon.sender, receiver):
        if channel.burst is not None:
            if stream.in_bad_state:
                if stream.rng.random() < channel.burst.p_bad_to_good:
                    stream.in_bad_state = False
                else:
                    return DROPPED
            elif stream.rng.random() < channel.burst.p_good_to_bad:
                stream.in_bad_state = True
                return DROPPED
        if stream.rng.random() < channel.loss_prob:
            return DROPPED
    tau = channel.delay_mean + channel.delay_std * stream.rng.standard_normal()
    return now + max(0.0, tau)


class V2XChannel:
    """Engine-facing channel: per-link streams and one inbox per receiver.

    An inbox is a heap of ``(delivery time, sender, send time, sequence
    number, beacon)`` entries, kept with the send time of the beacon last
    consumed from each sender. A receiver consumes at most one beacon per
    sender per poll (the due one with the latest send time), and beacons no
    newer than one already consumed on their link are discarded so
    estimator state stays monotone in send time.
    """

    def __init__(self, model: ChannelModel) -> None:
        self.model = model
        self._streams: dict[tuple[VehicleId, VehicleId], LinkStream] = {}
        # receiver -> (heap, {sender: send time last consumed})
        self._inboxes: dict[VehicleId, tuple[list[tuple], dict[VehicleId, SimTime]]] = {}
        self._sent = 0

    def send(self, beacon: Beacon, receiver: VehicleId, now: SimTime) -> bool:
        """Transmit to one receiver; returns False when dropped.

        A link's stream is made on its first send. A model that draws
        nothing gets no per-link stream.
        """
        model = self.model
        stream = None
        if not model.draws_nothing:
            key = (beacon.sender, receiver)
            stream = self._streams.get(key)
            if stream is None:
                stream = self._streams[key] = link_stream(model, *key)
        result = transmit(model, beacon, now, stream, receiver)
        if result is DROPPED:
            return False
        self._sent += 1
        inbox = self._inboxes.get(receiver)
        if inbox is None:
            inbox = self._inboxes[receiver] = ([], {})
        heappush(inbox[0], (result, beacon.sender, beacon.send_time, self._sent, beacon))
        return True

    def deliver_to(self, receiver: VehicleId, now: SimTime) -> dict[VehicleId, Beacon]:
        """Pop the beacons due for one receiver, freshest per sender."""
        out: dict[VehicleId, Beacon] = {}
        inbox = self._inboxes.get(receiver)
        if inbox is None:
            return out
        heap, consumed = inbox
        cutoff = grid_cutoff(now)
        while heap and heap[0][0] <= cutoff:
            _, sender, send_time, _, beacon = heappop(heap)
            last = consumed.get(sender)
            if last is None or send_time > last:
                consumed[sender] = send_time
                out[sender] = beacon
        return out
