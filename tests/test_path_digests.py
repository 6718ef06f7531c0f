"""Byte-identical results of short runs on the batched chain kernel's path.

``test_output_digests.py`` pins the shipped scenarios, whose crossing
orders are too short for the kernel. Here ``timing_bench``'s 150-vehicle
order on an ideal channel (400-sample horizons, 0.5 s, one kernel call per
0.1 s prediction boundary) is pinned twice per run:

- the sha256 of ``trajectory.csv`` followed by ``metrics.csv``;
- the sha256 of every vehicle's own horizon at every step.

Both are needed. On an ideal channel every link is up, so a follower's
control view is its target's beacon state aged by a zero delay, and no
horizon sample reaches the CSV files: they pin the run around the kernel,
and only the horizon digest pins what the kernel computes.

The runs are the chain at simulation steps of 0.02 s and 0.1 s, and a
braking chain: the head starts at standstill and every follower at 20 m/s,
so the followers' horizons brake to a stop and the kernel's lower speed
clamp binds.

A change that is meant to keep every result must keep these digests; a
change that moves one must update it and say why. The values were recorded
with Python 3.11 and numpy 2.4, and are for that toolchain.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import cavsim.engine as engine_module
from cavsim.cli import write_metrics_csv, write_trajectory_csv
from cavsim.engine import run

from conftest import timing_bench


def _chain(sim_step, head_speed=None):
    base = timing_bench(duration=0.5)
    scenario = dataclasses.replace(
        base, engine=dataclasses.replace(base.engine, sim_step=sim_step)
    )
    if head_speed is None:
        return scenario
    head, *rest = scenario.spawns.events
    events = (
        dataclasses.replace(head, speed=head_speed),
        *(dataclasses.replace(event, speed=20.0) for event in rest),
    )
    return dataclasses.replace(
        scenario, spawns=dataclasses.replace(scenario.spawns, events=events)
    )


# name: (scenario, trajectory + metrics digest, horizon digest)
CASES = {
    "chain_0.02": (
        _chain(0.02),
        "002be62c07b8da9ce10321448905446fabf3bc9f43111be93e0769898e520c9d",
        "62f808116340ddce0924375972fa0cfe78eea72e83a1c4892627cf1c373c7f8d",
    ),
    "chain_0.1": (
        _chain(0.1),
        "1436f3b91662c3233e375e75aee7b99290180bea8d68d5bbd5563a41ed765d37",
        "9ca9480e5dea250a53dd09a10e06302221d8e7145b67ba7b01c0fd1156fda727",
    ),
    "braking_chain_0.1": (
        _chain(0.1, head_speed=0.0),
        "8f8edfc319c7097bfbae1d4c577399e31f55f8d8ac9e65f3ad0c8f2c625b3b78",
        "37cb7fedf8e9c255e305aa27e5ce41850a844b36f65ca41ae7b6758a65ecebf2",
    ),
}


def run_digests(scenario, tmp_path):
    """The run's CSV digest and horizon digest."""
    horizons = hashlib.sha256()

    def probe(engine, now):
        for vid, veh in engine.vehicles.items():
            est = veh.est.own_estimate
            head = (now, vid, est.anchor_time, est.anchor_speed, est.anchor_position)
            horizons.update(np.array(head, dtype=float).tobytes())
            horizons.update(np.asarray(est.speeds, dtype=float).tobytes())
            horizons.update(np.asarray(est.positions, dtype=float).tobytes())

    result = run(scenario, on_step=probe)
    write_trajectory_csv(tmp_path / "trajectory.csv", result)
    write_metrics_csv(tmp_path / "metrics.csv", result)
    outputs = hashlib.sha256()
    for csv_name in ("trajectory.csv", "metrics.csv"):
        outputs.update((tmp_path / csv_name).read_bytes())
    return outputs.hexdigest(), horizons.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_chain_kernel_run_matches_pinned_digests(name, tmp_path, monkeypatch):
    scenario, outputs, horizons = CASES[name]
    kernel = engine_module.chain_follower_horizons
    calls = []

    def counted(*args):
        calls.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(engine_module, "chain_follower_horizons", counted)
    digests = run_digests(scenario, tmp_path)
    # One kernel call per prediction boundary: the run takes the path.
    assert len(calls) == 5
    assert digests == (outputs, horizons)
