"""Named regressions outside the paper's operating range.

Each test runs a variant of the shipped ``nominal_intersection`` scenario
(seed 42) that leaves the range in one way, and asserts the safe property:
no safety violation. Both fail today, so each is marked
``xfail(strict=True)`` with the measured counts as its reason; a fix flips
it to a pass, which strict mode reports, and the mark then comes off.
``raises=AssertionError`` keeps a broken setup from passing as the
expected failure.
"""

from collections import Counter
from pathlib import Path

import pytest
import yaml

from cavsim.config import parse_scenario
from cavsim.engine import run

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
