"""Intersection geometry, virtual-lane projection, and crossing order.

Vehicles approach a shared crossing point from several legs. Each leg's
position is projected onto a single virtual lane by distance to the
crossing point, which turns the coordination problem into the one-lane
string the controller expects. Crossing order is first-come-first-served
by control-zone entry time, with vehicle id breaking ties; the engine keeps
it as one list of vehicle ids per intersection (``SimulationEngine.orders``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .network import seeded_stream
from .types import VehicleId, VehicleState, check_bounds


@dataclass(frozen=True)
class LegSpec:
    id: str = field(metadata={"key": "id"})
    approach_length: float = field(metadata={"key": "approach_length_m", "default": 200.0, "gt": 0})

    __post_init__ = check_bounds


@dataclass(frozen=True)
class IntersectionSpec:
    """Geometry of one intersection on its own virtual lane.

    The crossing point sits at virtual coordinate ``crossing_coord`` (the
    longest approach, so every spawn point maps to a non-negative
    coordinate). The conflict zone is the interval ``[zone_lo, zone_hi]`` of
    ``conflict_zone_length`` centred on the crossing point. The spec is
    frozen, so these three are computed once per spec, on construction;
    they are not fields, so ``dataclasses.asdict`` and the normalised
    scenario leave them out.
    """

    id: str = field(metadata={"key": "id"})
    legs: tuple[LegSpec, ...] = field(metadata={"key": "legs"})
    control_zone_radius: float = field(
        default=150.0, metadata={"key": "control_zone_radius_m", "gt": 0}
    )
    conflict_zone_length: float = field(
        default=12.0, metadata={"key": "conflict_zone_length_m", "gt": 0}
    )

    def __post_init__(self) -> None:
        if not self.legs:
            raise ValueError("intersection needs at least one leg")
        if len({leg.id for leg in self.legs}) != len(self.legs):
            raise ValueError("duplicate leg ids")
        check_bounds(self)
        for leg in self.legs:
            if leg.approach_length < self.control_zone_radius:
                raise ValueError(
                    f"leg {leg.id}: approach_length {leg.approach_length} shorter "
                    f"than control_zone_radius {self.control_zone_radius}"
                )
        # Set once here: a cached property's write to ``__dict__`` would turn
        # every later field read on the spec into a dict lookup.
        crossing = max(leg.approach_length for leg in self.legs)
        half = self.conflict_zone_length / 2.0
        object.__setattr__(self, "crossing_coord", crossing)
        object.__setattr__(self, "zone_lo", crossing - half)
        object.__setattr__(self, "zone_hi", crossing + half)

    def leg(self, leg_id: str) -> LegSpec:
        for leg in self.legs:
            if leg.id == leg_id:
                return leg
        raise KeyError(f"unknown leg {leg_id!r}")


def project_to_virtual_lane(
    leg_position: float, leg: LegSpec, spec: IntersectionSpec
) -> float:
    """Virtual coordinate of a vehicle ``leg_position`` meters into its leg.

    Equal distances to the crossing point map to equal virtual coordinates
    regardless of leg: s = crossing_coord - (approach_length - leg_position).
    """
    distance_to_cross = leg.approach_length - leg_position
    return spec.crossing_coord - distance_to_cross


@dataclass(frozen=True)
class SpawnEvent:
    time: float = field(metadata={"key": "time_s", "default": 0.0})
    intersection: str = field(metadata={"key": "intersection"})
    leg: str = field(metadata={"key": "leg"})
    speed: float = field(metadata={"key": "speed_mps", "default": 10.0, "ge": 0})
    length: float = field(default=5.0, metadata={"key": "length_m", "gt": 0})
    start_offset: float = field(default=0.0, metadata={"key": "start_offset_m", "ge": 0})

    __post_init__ = check_bounds


@dataclass(frozen=True)
class RandomSpawnSpec:
    """Seeded Poisson arrivals per leg, expanded to events at load time."""

    rate_per_leg: float = field(metadata={"key": "rate_per_leg", "default": 0.1, "gt": 0})
    speed_min: float = field(metadata={"key": "speed_min_mps", "default": 8.0, "ge": 0})
    speed_max: float = field(metadata={"key": "speed_max_mps", "default": 14.0})
    length: float = field(default=5.0, metadata={"key": "length_m", "gt": 0})
    max_vehicles: int | None = field(default=None, metadata={"key": "max_vehicles", "ge": 0})

    def __post_init__(self) -> None:
        check_bounds(self)
        if not self.speed_min <= self.speed_max:
            raise ValueError("need speed_min <= speed_max")


@dataclass(frozen=True)
class SpawnPlan:
    events: tuple[SpawnEvent, ...] = field(default=(), metadata={"key": "events"})
    random: RandomSpawnSpec | None = field(default=None, metadata={"key": "random"})
    min_spawn_gap: float = field(default=10.0, metadata={"key": "min_spawn_gap_m"})


def expand_random_spawns(
    plan: SpawnPlan,
    intersections: tuple[IntersectionSpec, ...],
    duration: float,
    seed: int,
) -> tuple[SpawnEvent, ...]:
    """Materialize the full spawn-event list, deterministic in the seed."""
    events = list(plan.events)
    spec = plan.random
    if spec is not None:
        rng = seeded_stream(seed, (2,))
        generated: list[SpawnEvent] = []
        for intersection in intersections:
            for leg in intersection.legs:
                t = 0.0
                while True:
                    t += rng.exponential(1.0 / spec.rate_per_leg)
                    if t >= duration:
                        break
                    speed = rng.uniform(spec.speed_min, spec.speed_max)
                    generated.append(
                        SpawnEvent(
                            time=t,
                            intersection=intersection.id,
                            leg=leg.id,
                            speed=float(speed),
                            length=spec.length,
                        )
                    )
        generated.sort(key=lambda e: (e.time, e.intersection, e.leg))
        if spec.max_vehicles is not None:
            generated = generated[: spec.max_vehicles]
        events.extend(generated)
    # Stable by time only: simultaneous events keep their listed order, so
    # vehicle ids (and the FCFS id tie-break) follow the author's ordering.
    events.sort(key=lambda e: e.time)
    return tuple(events)


def assign_targets(order: list[VehicleId]) -> Iterator[tuple[VehicleId, VehicleId | None]]:
    """(vehicle, target) over a crossing order: each vehicle's target is its
    immediate predecessor; the head has none."""
    return zip(order, [None, *order[:-1]])


class SafetyViolation(NamedTuple):
    kind: str  # "rear_end" or "conflict_zone"
    vehicle_a: VehicleId
    vehicle_b: VehicleId
    detail: float  # bumper gap for rear_end, separation for conflict_zone


def safety_check(
    states: dict[VehicleId, VehicleState], spec: IntersectionSpec
) -> list[SafetyViolation]:
    """Flag same-leg rear-end overlaps and conflict-zone co-occupancy.

    A vehicle occupies [position - length, position] and is in the conflict
    zone when that overlaps ``[spec.zone_lo, spec.zone_hi]``.
    """
    zone_lo = spec.zone_lo
    zone_hi = spec.zone_hi
    # One pass sorts every vehicle into its leg and picks the zone occupants.
    by_leg: dict[str, list[tuple[float, VehicleId, float]]] = {}
    occupants: list[tuple[VehicleId, VehicleState]] = []
    for vid, st in states.items():
        position, length = st.position, st.length
        on_leg = by_leg.get(st.leg)
        if on_leg is None:
            by_leg[st.leg] = [(position, vid, length)]
        else:
            on_leg.append((position, vid, length))
        if position - length <= zone_hi and position >= zone_lo:
            occupants.append((vid, st))
    violations: list[SafetyViolation] = []
    # Legs in id order, so the order of the list does not depend on which
    # vehicles are still simulated. (position, id) is unique, so the sort
    # never compares lengths.
    for _, leg_vehicles in sorted(by_leg.items()):
        leg_vehicles.sort()
        for (pos_rear, vid_rear, _), (pos_front, vid_front, len_front) in zip(
            leg_vehicles, leg_vehicles[1:]
        ):
            gap = pos_front - len_front - pos_rear
            if gap < 0:
                violations.append(
                    SafetyViolation("rear_end", vid_rear, vid_front, gap)
                )
    # Pairs in id order; ids are unique, so the sort never compares states.
    occupants.sort()
    for i, (vid_a, st_a) in enumerate(occupants):
        for vid_b, st_b in occupants[i + 1 :]:
            if st_a.leg != st_b.leg:
                violations.append(
                    SafetyViolation(
                        "conflict_zone",
                        vid_a,
                        vid_b,
                        abs(st_a.position - st_b.position),
                    )
                )
    return violations
