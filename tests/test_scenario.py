import dataclasses

import pytest

from cavsim.scenario import (
    IntersectionSpec,
    LegSpec,
    RandomSpawnSpec,
    SpawnEvent,
    SpawnPlan,
    assign_targets,
    expand_random_spawns,
    project_to_virtual_lane,
    safety_check,
)
from cavsim.types import VehicleState

SPEC = IntersectionSpec(
    id="x",
    legs=(LegSpec("a", 500.0), LegSpec("b", 400.0)),
    control_zone_radius=150.0,
    conflict_zone_length=12.0,
)


def vs(position, leg="a", length=5.0, speed=10.0):
    return VehicleState(position=position, speed=speed, acceleration=0.0, length=length, leg=leg)


class TestProjection:
    def test_crossing_point_maps_to_crossing_coord(self):
        leg = SPEC.leg("a")
        s = project_to_virtual_lane(leg.approach_length, leg, SPEC)
        assert s == SPEC.crossing_coord

    def test_equal_distances_map_equally(self):
        a, b = SPEC.leg("a"), SPEC.leg("b")
        s_a = project_to_virtual_lane(a.approach_length - 30.0, a, SPEC)
        s_b = project_to_virtual_lane(b.approach_length - 30.0, b, SPEC)
        assert s_a == s_b

    def test_arithmetic(self):
        # d = 100 from a crossing coordinate of 500
        leg = SPEC.leg("a")
        s = project_to_virtual_lane(400.0, leg, SPEC)
        assert s == 400.0
        assert SPEC.crossing_coord == 500.0


class TestAssignTargets:
    def test_targets_follow_predecessor(self):
        assert list(assign_targets([3, 7, 1])) == [(3, None), (7, 3), (1, 7)]

    def test_single_vehicle_is_leader(self):
        assert list(assign_targets([5])) == [(5, None)]

    def test_empty_order_has_no_pairs(self):
        assert list(assign_targets([])) == []

    def test_contraction_retargets(self):
        order = [3, 7, 1]
        order.remove(7)
        assert list(assign_targets(order)) == [(3, None), (1, 3)]
        order.remove(3)
        assert list(assign_targets(order)) == [(1, None)]


class TestSafetyCheck:
    def test_positive_gap_is_safe(self):
        states = {0: vs(100.0), 1: vs(94.5)}  # bumper gap 0.5 m
        assert safety_check(states, SPEC) == []

    def test_rear_end_overlap_flagged(self):
        states = {0: vs(100.0), 1: vs(96.0)}  # follower front past leader rear
        violations = safety_check(states, SPEC)
        assert len(violations) == 1
        assert violations[0].kind == "rear_end"
        assert violations[0].detail < 0

    def test_conflict_zone_co_occupancy(self):
        cross = SPEC.crossing_coord
        states = {0: vs(cross, leg="a"), 1: vs(cross - 2.0, leg="b")}
        violations = safety_check(states, SPEC)
        assert any(v.kind == "conflict_zone" for v in violations)

    def test_same_leg_in_zone_not_conflict(self):
        cross = SPEC.crossing_coord
        states = {0: vs(cross, leg="a"), 1: vs(cross - 6.0, leg="a")}
        assert all(v.kind != "conflict_zone" for v in safety_check(states, SPEC))

    def test_outside_zone_different_legs_safe(self):
        states = {0: vs(100.0, leg="a"), 1: vs(100.0, leg="b")}
        assert safety_check(states, SPEC) == []


class TestConflictZoneBounds:
    """``IntersectionSpec`` owns the zone bounds that retirement and the
    safety check read."""

    @pytest.mark.parametrize("length", [12.0, 10.0, 7.3])
    def test_bounds_equal_the_centred_interval(self, length):
        spec = dataclasses.replace(SPEC, conflict_zone_length=length)
        assert spec.zone_lo == spec.crossing_coord - spec.conflict_zone_length / 2.0
        assert spec.zone_hi == spec.crossing_coord + spec.conflict_zone_length / 2.0

    def test_bounds_are_not_fields(self):
        fields = dataclasses.asdict(SPEC)
        assert "zone_lo" not in fields
        assert "zone_hi" not in fields
        assert "crossing_coord" not in fields

    def test_zone_is_closed_at_both_bounds(self):
        # Front bumper on zone_lo and rear bumper on zone_hi both occupy it.
        states = {0: vs(SPEC.zone_lo, leg="a"), 1: vs(SPEC.zone_hi + 5.0, leg="b")}
        assert [v.kind for v in safety_check(states, SPEC)] == ["conflict_zone"]
        states = {0: vs(SPEC.zone_lo - 1e-9, leg="a"), 1: vs(SPEC.zone_hi + 5.0, leg="b")}
        assert safety_check(states, SPEC) == []


class TestSpawnExpansion:
    def test_explicit_events_keep_listed_order_for_ties(self):
        plan = SpawnPlan(
            events=(
                SpawnEvent(time=0.0, intersection="x", leg="b", speed=10.0),
                SpawnEvent(time=0.0, intersection="x", leg="a", speed=11.0),
            )
        )
        events = expand_random_spawns(plan, (SPEC,), 10.0, seed=1)
        assert [e.leg for e in events] == ["b", "a"]

    def test_random_expansion_is_deterministic(self):
        plan = SpawnPlan(random=RandomSpawnSpec(rate_per_leg=0.5, speed_min=8.0, speed_max=12.0))
        a = expand_random_spawns(plan, (SPEC,), 30.0, seed=9)
        b = expand_random_spawns(plan, (SPEC,), 30.0, seed=9)
        c = expand_random_spawns(plan, (SPEC,), 30.0, seed=10)
        assert a == b
        assert a != c

    def test_max_vehicles_cap(self):
        plan = SpawnPlan(
            random=RandomSpawnSpec(rate_per_leg=2.0, speed_min=8.0, speed_max=12.0, max_vehicles=5)
        )
        events = expand_random_spawns(plan, (SPEC,), 60.0, seed=3)
        assert len(events) == 5

    def test_random_spawns_draw_from_the_spawn_key(self):
        # The first arrival time is the first draw of the (2,) stream,
        # recorded from the inline SeedSequence/PCG64 construction it
        # replaced.
        spec = IntersectionSpec(id="x", legs=(LegSpec("a", 500.0),))
        plan = SpawnPlan(random=RandomSpawnSpec(rate_per_leg=0.09, speed_min=10.0, speed_max=13.0))
        events = expand_random_spawns(plan, (spec,), 30.0, seed=42)
        assert events[0].time == 2.0948045634151162

    def test_random_speeds_within_range(self):
        plan = SpawnPlan(random=RandomSpawnSpec(rate_per_leg=1.0, speed_min=8.0, speed_max=12.0))
        events = expand_random_spawns(plan, (SPEC,), 30.0, seed=4)
        assert events
        assert all(8.0 <= e.speed <= 12.0 for e in events)


def test_intersection_validation():
    with pytest.raises(ValueError):
        IntersectionSpec(id="x", legs=(), control_zone_radius=100.0)
    with pytest.raises(ValueError):
        IntersectionSpec(
            id="x", legs=(LegSpec("a", 50.0),), control_zone_radius=100.0
        )


def test_unknown_leg_lookup():
    with pytest.raises(KeyError):
        SPEC.leg("zzz")
