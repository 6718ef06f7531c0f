"""Named regressions outside the paper's operating range.

Each test runs a variant of a shipped scenario that leaves the range in
one way, and asserts the property the paper claims inside it: no safety
violation, and every follower behind its target, on
``nominal_intersection`` (seed 42), a position error within ±0.5 m on
``paper_stress``. All fail today, so each is marked
``xfail(strict=True)`` with the measured values as its reason; a fix flips
it to a pass, which strict mode reports, and the mark then comes off.
``raises=AssertionError`` keeps a broken setup from passing as the
expected failure.
"""

import dataclasses
from collections import Counter
from pathlib import Path

import pytest
import yaml

from cavsim.config import parse_scenario
from cavsim.engine import run

from conftest import paper_stress

NOMINAL = Path(__file__).resolve().parent.parent / "scenarios" / "nominal_intersection.yaml"


def _nominal(section, key, value):
    """The shipped nominal document with one key of one section set."""
    doc = yaml.safe_load(NOMINAL.read_text(encoding="utf-8"))
    target = doc
    for name in section:
        target = target[name]
    assert key in target
    target[key] = value
    return parse_scenario(doc)


def _violations_by_kind(scenario):
    return Counter(violation[1] for violation in run(scenario).violations)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "total loss from t=0: no beacon ever arrives, so no follower is "
        "admitted and every vehicle free-drives; 16 conflict-zone "
        "violation-steps over pairs (0, 1), (2, 3) and (11, 12), the first "
        "at t = 20.2 s"
    ),
)
def test_total_loss_from_the_start_keeps_the_conflict_zone_clear():
    scenario = _nominal(("channel",), "loss_prob", 1.0)
    assert _violations_by_kind(scenario) == Counter()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "demand over capacity (rate_per_leg 0.3, cap of 20 vehicles): 991 "
        "rear-end violation-steps over 34 pairs, the first at t = 15.1 s, "
        "and 15 full stops"
    ),
)
def test_demand_over_capacity_keeps_same_leg_vehicles_apart():
    scenario = _nominal(("spawns", "random"), "rate_per_leg", 0.3)
    assert scenario.spawns.random.max_vehicles == 20
    assert _violations_by_kind(scenario) == Counter()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "a 1 s mean delay with the shipped 25.9 ms spread: 2.24 m at t = "
        "2.02 s, where vehicle 3 reads vehicle 2's beacon sent at 1.00 s; "
        "that horizon is a free-driving prediction, because vehicle 2 was "
        "only admitted at 1.02 s, when its first beacon arrived"
    ),
)
def test_a_long_delay_keeps_the_position_error_within_the_cap():
    scenario = paper_stress(duration=3.0)
    scenario = dataclasses.replace(
        scenario, channel=dataclasses.replace(scenario.channel, delay_mean=1.0)
    )
    assert scenario.channel.delay_std == 0.0259
    assert run(scenario).summary["max_abs_pos_err_m"] < 0.5


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "the FCFS id tie-break on a same-step zone entry: vehicle 0 (leg a, "
        "99.0 m in, 10 m/s) and vehicle 1 (leg b, 99.5 m in, 12 m/s) both "
        "enter the 150 m control zone of their 250 m approaches in the step "
        "to t = 0.1 s, and vehicle 1 acquires vehicle 0 at -0.70 m headway"
    ),
)
def test_a_vehicle_acquires_only_a_target_ahead_of_it():
    doc = yaml.safe_load(NOMINAL.read_text(encoding="utf-8"))
    doc["engine"]["duration_s"] = 1.0
    doc["intersections"][0]["legs"] = [
        {"id": "a", "approach_length_m": 250.0},
        {"id": "b", "approach_length_m": 250.0},
    ]
    doc["spawns"] = {
        "events": [
            {"leg": "a", "start_offset_m": 99.0, "speed_mps": 10.0},
            {"leg": "b", "start_offset_m": 99.5, "speed_mps": 12.0},
        ]
    }
    scenario = parse_scenario(doc)
    assert scenario.intersections[0].control_zone_radius == 150.0
    targets = {}
    acquisitions = []

    def probe(engine, now):
        for vid, veh in engine.vehicles.items():
            if veh.target is not None and targets.get(vid) != veh.target:
                headway = engine.vehicles[veh.target].state.position - veh.state.position
                acquisitions.append((round(now, 6), vid, veh.target, round(headway, 6)))
            targets[vid] = veh.target

    run(scenario, on_step=probe)
    assert len(acquisitions) == 1 and acquisitions[0][0] == 0.1
    assert [a for a in acquisitions if not a[3] > 0] == []
