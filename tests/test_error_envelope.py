"""Where the ±0.5 m position-error cap holds on ``paper_stress``.

Each run is ``paper_stress`` (equal to the shipped file) at a 0.1 s
prediction step, with one channel setting changed. The controller view
reads the target's broadcast horizon once the beacon is a prediction step
old, and a follower's own horizon reads its target's horizon at the same
shifted times, so the cap holds for mean delays up to 1 s, for a mean delay
that moves between 40 ms and 1 s during the run (the paper's time-variant
delay), and for a blackout on vehicle 2's links of up to 6 s, which runs a
second past the 5 s horizon. A longer blackout runs further past the
horizon end, where the view holds the final sample's speed; the error there
is not asserted, because the model past the end is still open.
"""

import dataclasses
import math

import pytest

from cavsim.engine import SimulationEngine, run
from cavsim.network import V2XChannel

from conftest import paper_stress

CAP_M = 0.5


def _stress_run(duration=30.0, **channel):
    scenario = paper_stress(prediction_step=0.1, duration=duration)
    return run(
        dataclasses.replace(scenario, channel=dataclasses.replace(scenario.channel, **channel))
    )


def _horizon_exhausted_steps(result):
    return sum(stats["steps_horizon_exhausted"] for stats in result.summary["per_vehicle"].values())


@pytest.mark.parametrize("delay_mean", [0.04, 0.5, 1.0])
def test_cap_holds_as_the_mean_delay_grows(delay_mean):
    # The spread scales with the mean, as the shipped 25.9 ms does at 40 ms.
    result = _stress_run(
        duration=15.0, delay_mean=delay_mean, delay_std=0.0259 * delay_mean / 0.04
    )
    assert result.summary["max_abs_pos_err_m"] < CAP_M
    assert result.summary["violation_count"] == 0


def test_cap_holds_while_a_blackout_fits_inside_the_horizon():
    result = _stress_run(nlos_windows=((4.0, 8.0),))
    assert result.summary["max_abs_pos_err_m"] < CAP_M
    assert _horizon_exhausted_steps(result) == 0


def test_cap_holds_through_a_blackout_a_second_past_the_horizon():
    result = _stress_run(nlos_windows=((4.0, 10.0),))
    assert result.summary["max_abs_pos_err_m"] < CAP_M
    assert _horizon_exhausted_steps(result) > 0


def test_a_blackout_longer_than_the_horizon_exhausts_it():
    result = _stress_run(nlos_windows=((4.0, 12.0),))
    assert _horizon_exhausted_steps(result) > 0


def _cosine_delay_mean(t):
    """A mean delay from 40 ms at t = 0 up to 1 s at 5 s and back, with a
    10 s period, rounded to 0.1 ms."""
    return round(0.52 - 0.48 * math.cos(2.0 * math.pi * t / 10.0), 4)


class _TimeVariantChannel(V2XChannel):
    """The engine's channel with the mean delay of each send taken from
    ``_cosine_delay_mean`` at the send time; everything else, the per-link
    draws included, is the base model's."""

    def __init__(self, base):
        super().__init__(base)
        self.base = base

    def send(self, beacon, receiver, now):
        self.model = dataclasses.replace(self.base, delay_mean=_cosine_delay_mean(now))
        return super().send(beacon, receiver, now)


@pytest.mark.parametrize("prediction_step", [0.1, 0.01])
def test_cap_holds_under_a_time_variant_delay(prediction_step):
    engine = SimulationEngine(paper_stress(prediction_step=prediction_step, duration=30.0))
    engine.channel = _TimeVariantChannel(engine.channel.model)
    result = engine.run()
    assert result.summary["max_abs_pos_err_m"] < CAP_M
    assert result.summary["violation_count"] == 0
