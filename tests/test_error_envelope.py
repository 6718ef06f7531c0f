"""Where the ±0.5 m position-error cap holds on ``paper_stress``.

Each run is ``paper_stress`` (equal to the shipped file) at a 0.1 s
prediction step, with one channel setting changed. The controller view
reads the target's broadcast horizon once the beacon is a prediction step
old, so the cap holds for mean delays up to 1 s, and for a blackout on
vehicle 2's links that fits inside the 5 s horizon. A longer blackout runs
past the horizon end, where the view holds the final sample's speed; the
error there is not asserted, because the model past the end is still open.
"""

import dataclasses

import pytest

from cavsim.engine import run

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


def test_a_blackout_longer_than_the_horizon_exhausts_it():
    result = _stress_run(nlos_windows=((4.0, 12.0),))
    assert _horizon_exhausted_steps(result) > 0
