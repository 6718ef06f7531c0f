"""V2X channel emulation.

Beacons suffer a per-transmission stochastic delay (normal, clamped at
zero), random Bernoulli loss, and total loss inside configured
non-line-of-sight windows. Every directed vehicle pair owns an independent
RNG sub-stream derived from the scenario seed, so drop decisions and delay
draws never depend on send ordering.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .types import Beacon, SimTime, VehicleId


@dataclass(frozen=True)
class BurstLossModel:
    """Optional Gilbert-Elliott two-state loss, off by default.

    While in the bad state every packet drops; transitions are sampled per
    transmission from the link's own stream.
    """

    p_good_to_bad: float = field(metadata={"key": "p_good_to_bad", "default": 0.0})
    p_bad_to_good: float = field(metadata={"key": "p_bad_to_good", "default": 1.0})

    def __post_init__(self) -> None:
        for name, p in (
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


@dataclass(frozen=True)
class ChannelModel:
    """Stochastic delay plus a hybrid loss model.

    Delay applies to every link. Loss (random and NLOS) applies to every
    link by default; when ``impaired_vehicles`` is set it applies only to
    links touching one of those vehicles, modeling an obstructed or
    degraded radio on specific vehicles while the rest of the fleet
    communicates cleanly.
    """

    delay_mean: float = field(default=0.040, metadata={"key": "delay_mean_s"})
    delay_std: float = field(default=0.0259, metadata={"key": "delay_std_s"})
    loss_prob: float = field(default=0.1, metadata={"key": "loss_prob"})
    nlos_windows: tuple[tuple[float, float], ...] = field(
        default=(), metadata={"key": "nlos_windows"}
    )
    seed: int = 0
    burst: BurstLossModel | None = field(default=None, metadata={"key": "burst"})
    impaired_vehicles: tuple[VehicleId, ...] | None = field(
        default=None, metadata={"key": "impaired_vehicles"}
    )

    def __post_init__(self) -> None:
        if self.delay_mean < 0 or self.delay_std < 0:
            raise ValueError("delay parameters must be >= 0")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must be in [0, 1]")
        ordered = sorted(self.nlos_windows)
        for start, end in ordered:
            if start >= end:
                raise ValueError(f"NLOS window [{start}, {end}) is empty or inverted")
        for (_, prev_end), (next_start, _) in zip(ordered, ordered[1:]):
            if next_start < prev_end:
                raise ValueError("NLOS windows must not overlap")

    @cached_property
    def draws_nothing(self) -> bool:
        """No random loss, no delay spread and no burst state: a send's fate
        is fixed by the clock, so ``transmit`` takes no draw."""
        return self.loss_prob == 0.0 and self.delay_std == 0.0 and self.burst is None

    def in_nlos(self, t: SimTime) -> bool:
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


def link_stream(channel: ChannelModel, sender: VehicleId, receiver: VehicleId) -> LinkStream:
    seq = np.random.SeedSequence(entropy=channel.seed, spawn_key=(1, sender, receiver))
    return LinkStream(rng=np.random.Generator(np.random.PCG64(seq)))


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
    ``delay_mean``. A model with loss but no delay spread still draws: its
    loss draws move the stream.
    """
    impaired = channel.link_impaired(beacon.sender, receiver)
    if impaired and channel.in_nlos(now):
        return DROPPED
    if channel.draws_nothing:
        return now + max(0.0, channel.delay_mean)
    if impaired:
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
    number, beacon)`` entries. A receiver consumes at most one beacon per
    sender per poll (the due one with the latest send time), and beacons no
    newer than one already consumed on their link are discarded so
    estimator state stays monotone in send time.
    """

    def __init__(self, model: ChannelModel) -> None:
        self.model = model
        self._streams: dict[tuple[VehicleId, VehicleId], LinkStream] = {}
        self._last_consumed: dict[tuple[VehicleId, VehicleId], SimTime] = {}
        self._inboxes: dict[VehicleId, list[tuple]] = {}
        self._sent = 0

    def stream_for(self, sender: VehicleId, receiver: VehicleId) -> LinkStream:
        key = (sender, receiver)
        if key not in self._streams:
            self._streams[key] = link_stream(self.model, sender, receiver)
        return self._streams[key]

    def send(self, beacon: Beacon, receiver: VehicleId, now: SimTime) -> bool:
        """Transmit to one receiver; returns False when dropped.

        A model that draws nothing gets no per-link stream.
        """
        stream = None if self.model.draws_nothing else self.stream_for(beacon.sender, receiver)
        result = transmit(self.model, beacon, now, stream, receiver)
        if isinstance(result, Dropped):
            return False
        self._sent += 1
        entry = (result, beacon.sender, beacon.send_time, self._sent, beacon)
        heapq.heappush(self._inboxes.setdefault(receiver, []), entry)
        return True

    def deliver_to(self, receiver: VehicleId, now: SimTime) -> dict[VehicleId, Beacon]:
        """Pop the beacons due for one receiver, freshest per sender."""
        inbox = self._inboxes.get(receiver)
        out: dict[VehicleId, Beacon] = {}
        while inbox and inbox[0][0] <= now:
            _, sender, send_time, _, beacon = heapq.heappop(inbox)
            last = self._last_consumed.get((sender, receiver))
            if last is None or send_time > last:
                self._last_consumed[(sender, receiver)] = send_time
                out[sender] = beacon
        return out
