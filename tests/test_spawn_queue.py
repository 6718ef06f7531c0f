"""The spawn queue against the full scan it replaced.

``SimulationEngine._spawn_due`` walks only the due prefix of the
time-sorted pending events. ``full_scan_spawn_due`` below is the version
from before that change, kept as the reference: every step it looks at
every pending event, tries the due ones in order, and keeps the rest in
order. Over generated spawn plans (1-3 legs, events at shared times,
optional Poisson arrivals, a spawn gap from 0 to 30 m) both must spawn the
same vehicles on the same legs at the same steps, and try the same events
in the same order, each only once it is due.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cavsim.engine import EngineConfig, ScenarioConfig, SimulationEngine
from cavsim.estimation import EstimatorParams
from cavsim.scenario import IntersectionSpec, LegSpec, RandomSpawnSpec, SpawnEvent, SpawnPlan
from cavsim.types import grid_cutoff

from conftest import PERFECT_CHANNEL

DT = 0.1
LEGS = (LegSpec("a", 250.0), LegSpec("b", 230.0), LegSpec("c", 260.0))


def full_scan_spawn_due(engine: SimulationEngine, now: float) -> None:
    """Phase 1 as a rescan of every pending event (the reference), with the
    same due rule: at or before ``now`` on the step clock."""
    remaining: list[SpawnEvent] = []
    for event in engine._pending_spawns:
        if event.time > grid_cutoff(now):
            remaining.append(event)
            continue
        if not engine._try_spawn(event, now):
            remaining.append(event)
    engine._pending_spawns = remaining


class FullScanEngine(SimulationEngine):
    _spawn_due = full_scan_spawn_due


@st.composite
def spawn_plans(draw) -> ScenarioConfig:
    legs = LEGS[: draw(st.integers(1, 3))]
    # Times on a coarse grid, so that several events often share a time
    # (and a step), on one leg or on several.
    events = draw(
        st.lists(
            st.builds(
                SpawnEvent,
                time=st.integers(0, 30).map(lambda k: k * 0.25),
                intersection=st.just("x"),
                leg=st.sampled_from([leg.id for leg in legs]),
                speed=st.sampled_from([0.0, 4.0, 10.0, 14.0]),
                length=st.just(5.0),
                start_offset=st.sampled_from([0.0, 0.0, 5.0, 20.0]),
            ),
            max_size=10,
        )
    )
    random = draw(
        st.none()
        | st.builds(
            RandomSpawnSpec,
            rate_per_leg=st.sampled_from([0.2, 0.5, 1.0]),
            speed_min=st.just(6.0),
            speed_max=st.just(12.0),
            max_vehicles=st.none() | st.integers(0, 8),
        )
    )
    return ScenarioConfig(
        engine=EngineConfig(sim_step=DT, duration=10.0, seed=draw(st.integers(0, 3))),
        channel=PERFECT_CHANNEL,
        intersections=(IntersectionSpec(id="x", legs=legs),),
        spawns=SpawnPlan(
            events=tuple(events),
            random=random,
            min_spawn_gap=draw(st.sampled_from([0.0, 6.0, 12.0, 30.0])),
        ),
    )


def spawn_log(engine: SimulationEngine) -> tuple[list, list]:
    """Run ``engine``; return its (vehicle id, leg, spawn step) sequence and
    its ``_try_spawn`` calls as (step, event, spawned)."""
    spawned: list[tuple] = []
    tried: list[tuple] = []
    try_spawn = engine._try_spawn

    def recorded(event, now):
        assert event.time <= grid_cutoff(now), "tried an event before it was due"
        result = try_spawn(event, now)
        tried.append((round(now / DT), event, result))
        return result

    def probe(engine, now):
        for vid in range(len(spawned), engine._next_vid):
            veh = engine.vehicles.get(vid) or engine.retired[vid]
            spawned.append((vid, veh.state.leg, round(now / DT)))

    engine._try_spawn = recorded
    engine.run(on_step=probe)
    return spawned, tried


@settings(max_examples=60, deadline=None)
@given(scenario=spawn_plans())
def test_due_prefix_walk_equals_full_scan(scenario):
    spawned, tried = spawn_log(SimulationEngine(scenario))
    assert (spawned, tried) == spawn_log(FullScanEngine(scenario))


def test_blocked_events_are_retried_first_in_their_order():
    """Two events blocked by a standing vehicle stay ahead of a later one on
    another leg and spawn in their order once the gap clears."""
    standing = SpawnEvent(time=0.0, intersection="x", leg="a", speed=0.0)
    blocked = [
        SpawnEvent(time=0.05 * i, intersection="x", leg="a", speed=8.0) for i in (1, 2)
    ]
    other = SpawnEvent(time=0.3, intersection="x", leg="b", speed=8.0)
    scenario = ScenarioConfig(
        engine=EngineConfig(sim_step=DT, duration=20.0, seed=0),
        channel=PERFECT_CHANNEL,
        intersections=(IntersectionSpec(id="x", legs=LEGS[:2]),),
        spawns=SpawnPlan(events=(standing, *blocked, other), min_spawn_gap=12.0),
    )
    spawned, tried = spawn_log(SimulationEngine(scenario))
    assert [(vid, leg) for vid, leg, _ in spawned] == [(0, "a"), (1, "b"), (2, "a"), (3, "a")]
    first_try = {}
    for step, event, _ in tried:
        first_try.setdefault(event, step)
    # Each event is first tried on the step it falls due, and a blocked one
    # is tried again on every step until it spawns.
    assert [first_try[e] for e in (standing, *blocked, other)] == [0, 1, 1, 3]
    deferred = [step for step, event, result in tried if event == blocked[0] and not result]
    assert deferred == list(range(1, 1 + len(deferred))) and len(deferred) > 1
    assert (spawned, tried) == spawn_log(FullScanEngine(scenario))


def test_late_spawn_is_due_on_its_own_step():
    """Past 16,384 s a float step is more than 1e-12 s, so an absolute
    tolerance no longer places a spawn time on the step clock: 16,384.08 s
    reads one ulp above step 546,136 of 0.03 s. The due rule's relative
    tolerance (``types.grid_cutoff``) spawns it on that step."""
    dt, step = 0.03, 546_136
    event = SpawnEvent(time=16384.08, intersection="x", leg="a", speed=10.0)
    assert event.time > step * dt
    engine = SimulationEngine(
        ScenarioConfig(
            engine=EngineConfig(sim_step=dt, duration=16400.0, seed=0),
            channel=PERFECT_CHANNEL,
            estimator=EstimatorParams(prediction_step=dt),
            intersections=(IntersectionSpec(id="x", legs=LEGS[:1]),),
            spawns=SpawnPlan(events=(event,)),
        )
    )
    engine._spawn_due((step - 1) * dt)
    assert not engine.vehicles
    engine._spawn_due(step * dt)
    assert list(engine.vehicles) == [0]
