"""Byte-identical results of short runs, one per engine path.

``test_output_digests.py`` pins the shipped scenarios, whose crossing
orders are too short for the batched chain kernel and which take few of the
engine's other paths. Here each run is pinned three times:

- the sha256 of ``trajectory.csv`` followed by ``metrics.csv``;
- the sha256 of every vehicle's own horizon at every step;
- the sha256 of ``summary.json`` without ``mean_step_wallclock_ms``, its
  one wall-clock field: the run-level aggregates and the per-vehicle
  statistics (entry and retirement times, link-step counts).

Both are needed. On an ideal channel every link is up, so a follower's
control view is its target's beacon state aged by a zero delay, and no
horizon sample reaches the CSV files: they pin the run around the kernel,
and only the horizon digest pins what the kernel computes.

The kernel runs are ``timing_bench``'s 150-vehicle order on an ideal
channel (400-sample horizons, 0.5 s, one kernel call per 0.1 s prediction
boundary): the chain at simulation steps of 0.02 s and 0.1 s, and a braking
chain, whose head starts at standstill and every follower at 20 m/s, so the
followers' horizons brake to a stop and the kernel's lower speed clamp
binds.

The other runs take no kernel; each asserts that it takes its path:

- spawns deferred by ``min_spawn_gap`` on three legs (``nominal_twenty`` at
  ``rate_per_leg`` 0.3, 60 s);
- two intersections, each with its own crossing order and geometry;
- NLOS windows on ``impaired_vehicles``' links only, whose last window ends
  on a simulation step;
- Gilbert-Elliott burst loss;
- ``record_every: 3``;
- the ``implicit_solve`` estimator form;
- the free-driving leaders' one-sample horizon update, on the benchmark's
  ``long_traffic`` seed-1 document cut to 120 s.

A change that is meant to keep every result must keep these digests; a
change that moves one must update it and say why. The values were recorded
with Python 3.11 and numpy 2.4, and are for that toolchain.
"""

import dataclasses
import hashlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cavsim.engine as engine_module
import cavsim.network as network_module
from cavsim.cli import write_metrics_csv, write_summary_json, write_trajectory_csv
from cavsim.config import parse_scenario
from cavsim.engine import SimulationEngine, run
from cavsim.network import DROPPED, BurstLossModel, ChannelModel
from cavsim.scenario import IntersectionSpec, LegSpec, RandomSpawnSpec, SpawnPlan

from conftest import nominal_twenty, paper_stress, timing_bench

ROOT = Path(__file__).resolve().parent.parent


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


# name: (scenario, trajectory + metrics digest, horizon digest, summary digest)
CASES = {
    "chain_0.02": (
        _chain(0.02),
        "002be62c07b8da9ce10321448905446fabf3bc9f43111be93e0769898e520c9d",
        "62f808116340ddce0924375972fa0cfe78eea72e83a1c4892627cf1c373c7f8d",
        "c560e78e21b384ff128b76ba875c2b4ce4054b4cc93c4814794a51c6afd92158",
    ),
    "chain_0.1": (
        _chain(0.1),
        "1436f3b91662c3233e375e75aee7b99290180bea8d68d5bbd5563a41ed765d37",
        "9ca9480e5dea250a53dd09a10e06302221d8e7145b67ba7b01c0fd1156fda727",
        "58a73f1d42706b0a853b6252673199afe86ea88155f305e00dbff4c9f42fe18b",
    ),
    "braking_chain_0.1": (
        _chain(0.1, head_speed=0.0),
        "8f8edfc319c7097bfbae1d4c577399e31f55f8d8ac9e65f3ad0c8f2c625b3b78",
        "37cb7fedf8e9c255e305aa27e5ce41850a844b36f65ca41ae7b6758a65ecebf2",
        "8f7b73d8daf4700e895f7b512503a2f15af15915d9f69d3027c9f19907daf752",
    ),
}


def run_digests(scenario, tmp_path, watch=None):
    """The run's CSV digest, horizon digest and summary digest.

    ``watch``, if given, is called as an ``on_step`` probe too. A vehicle
    that has no horizon yet adds nothing to the horizon digest.
    """
    horizons = hashlib.sha256()

    def probe(engine, now):
        if watch is not None:
            watch(engine, now)
        for vid, veh in engine.vehicles.items():
            est = veh.own_estimate
            if est is None:
                continue
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
    summary = {
        key: value for key, value in result.summary.items() if key != "mean_step_wallclock_ms"
    }
    write_summary_json(tmp_path / "summary.json", dataclasses.replace(result, summary=summary))
    summary_digest = hashlib.sha256((tmp_path / "summary.json").read_bytes())
    return outputs.hexdigest(), horizons.hexdigest(), summary_digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_chain_kernel_run_matches_pinned_digests(name, tmp_path, monkeypatch):
    scenario, outputs, horizons, summary = CASES[name]
    kernel = engine_module.chain_follower_horizons
    calls = []

    def counted(*args):
        calls.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(engine_module, "chain_follower_horizons", counted)
    digests = run_digests(scenario, tmp_path)
    # One kernel call per prediction boundary: the run takes the path.
    assert len(calls) == 5
    assert digests == (outputs, horizons, summary)


def _replace(scenario, section, **fields):
    """``scenario`` with ``fields`` of one section replaced."""
    return dataclasses.replace(
        scenario, **{section: dataclasses.replace(getattr(scenario, section), **fields)}
    )


def _short_twenty():
    """``nominal_twenty`` cut to 60 s."""
    return _replace(nominal_twenty(), "engine", duration=60.0)


def _deferred_spawns():
    base = _short_twenty()
    random = dataclasses.replace(base.spawns.random, rate_per_leg=0.3)
    return _replace(base, "spawns", random=random)


def _two_intersections():
    base = _short_twenty()
    second = IntersectionSpec(
        id="y",
        legs=(LegSpec("n", 300.0), LegSpec("s", 270.0)),
        control_zone_radius=180.0,
        conflict_zone_length=10.0,
    )
    return dataclasses.replace(
        base,
        channel=ChannelModel(delay_mean=0.02, delay_std=0.01, loss_prob=0.05),
        intersections=(*base.intersections, second),
        spawns=SpawnPlan(
            random=RandomSpawnSpec(rate_per_leg=0.1, speed_min=10.0, speed_max=13.0),
            min_spawn_gap=12.0,
        ),
    )


def _burst_loss():
    channel = ChannelModel(
        delay_mean=0.02,
        delay_std=0.01,
        loss_prob=0.05,
        burst=BurstLossModel(p_good_to_bad=0.1, p_bad_to_good=0.3),
    )
    return dataclasses.replace(_short_twenty(), channel=channel)


def _long_traffic_seed_1():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    (doc,) = workloads.long_traffic(1)
    doc["engine"]["duration_s"] = 120.0
    return parse_scenario(doc)


# Each path check patches what it watches and returns an ``on_step`` probe
# (or None) and a predicate that holds once the run has taken the path.


def _defers_spawns_on_several_legs(monkeypatch):
    deferred = set()
    try_spawn = SimulationEngine._try_spawn

    def counted(self, event, now):
        spawned = try_spawn(self, event, now)
        if not spawned:
            deferred.add(event.leg)
        return spawned

    monkeypatch.setattr(SimulationEngine, "_try_spawn", counted)
    return None, lambda: len(deferred) > 1


def _crosses_both_intersections(monkeypatch):
    retired = set()

    def watch(engine, now):
        retired.update(veh.intersection for veh in engine.retired.values())

    return watch, lambda: retired == {"x", "y"}


def _drops_in_nlos_on_impaired_links_only(monkeypatch):
    counts = Counter()
    transmit = network_module.transmit

    def counted(channel, beacon, now, stream, receiver=None):
        result = transmit(channel, beacon, now, stream, receiver)
        if channel.in_nlos(now):
            impaired = channel.link_impaired(beacon.sender, receiver)
            counts[impaired, result is DROPPED] += 1
        return result

    monkeypatch.setattr(network_module, "transmit", counted)
    # (impaired, dropped): every impaired send in a window drops, and some
    # send on a clean link in a window gets through.
    return None, lambda: (
        counts[True, True] > 0 and not counts[True, False] and counts[False, False] > 0
    )


def _enters_the_bad_state(monkeypatch):
    seen = []

    def watch(engine, now):
        if any(stream.in_bad_state for stream in engine.channel._streams.values()):
            seen.append(now)

    return watch, lambda: len(seen) > 0


def _records_every_third_step(monkeypatch):
    steps = Counter()
    record = SimulationEngine._record

    def counted(self, result, step_index, now):
        rows = len(result.trajectory)
        record(self, result, step_index, now)
        steps[step_index % 3 == 0, len(result.trajectory) > rows] += 1

    monkeypatch.setattr(SimulationEngine, "_record", counted)
    return None, lambda: steps[True, True] > 0 and not steps[False, True]


def _solves_implicitly(monkeypatch):
    calls = Counter()
    follower = engine_module.follower_estimate

    def counted(now, own, beacon, gains, t_gap, params):
        calls[params.implicit_solve] += 1
        return follower(now, own, beacon, gains, t_gap, params)

    monkeypatch.setattr(engine_module, "follower_estimate", counted)
    return None, lambda: calls[True] > 0 and not calls[False]


def _updates_leader_horizons(monkeypatch):
    counts = Counter()
    leader = engine_module.leader_estimate

    def counted(now, own, params, previous=None):
        counts["updates"] += (
            previous is not None
            and previous.speeds[0] == own.speed
            and previous.positions[0] == own.position
        )
        return leader(now, own, params, previous)

    monkeypatch.setattr(engine_module, "leader_estimate", counted)
    return None, lambda: counts["updates"] > 0


# name: (scenario, path check, trajectory + metrics digest, horizon digest,
# summary digest)
ENGINE_PATH_CASES = {
    "deferred_spawns": (
        _deferred_spawns(),
        _defers_spawns_on_several_legs,
        "d55c8576a8e79c9ad978b9d9369a465dd0bd14bf02825fb08394493e39428d8b",
        "0107619e1325b1d3a213c64bb787ae8c5378223d64e7fc23ee3d4ab9cffb6040",
        "133d1c685a70beb35a879894d54ea4f7ed231a6c0fefdad68f198f3e5a377073",
    ),
    "two_intersections": (
        _two_intersections(),
        _crosses_both_intersections,
        "1c5538fdd3f5e0506f3195a6f8c81dcf2d88f2f1dfe94ce34c8cfbbe441a8da1",
        "7e40af1851b0119e05e83bd2d2709d4ff161d7d38b71064bf74b34e4da59e33a",
        "b6135f009e4701dd398b0bc70c70318119d0fc835c91b701d35424377a1095e8",
    ),
    "nlos_impaired": (
        paper_stress(prediction_step=0.1, duration=10.0),
        _drops_in_nlos_on_impaired_links_only,
        "9c285b7bd0f84754f9bc70cce273c4a82116763c82c29427a9fdf4b65533d62a",
        "7639c47fed564bbfe8ea5693a9214ad12c96683f3cbe41e267220b62c70c6267",
        "0cefa0b7da53fb674086005738dd637e7006412e70bb4c95e6312f4f4d1e71d2",
    ),
    "burst_loss": (
        _burst_loss(),
        _enters_the_bad_state,
        "4501f35b48c71cde43342d9e7b4c59e5db8f948f8db15f4b1fc73d976712a385",
        "56bceba1af13e3c9ff0c30200f145650bf0e36687c65eea58791670207c38d3a",
        "cd1ce4c6faa80a10a0ae8a65aa1304956d091118c3c3055a356b36f6babd5a7d",
    ),
    "record_every_3": (
        _replace(_short_twenty(), "engine", record_every=3),
        _records_every_third_step,
        "372e6d05ae2b61d13800df1c1566093e0580a88f3cabb2c6f5d72a66bf13efdd",
        "a807a5f4ffbe61de17f520953af51f4524574c911626b274acf6a5333085389b",
        "419929ac1467d3f3ff62cddd42a9911711f45bc81e7052868f8c04bdaf16988c",
    ),
    "implicit_solve": (
        _replace(
            paper_stress(prediction_step=0.1, duration=10.0), "estimator", implicit_solve=True
        ),
        _solves_implicitly,
        "519607f386277b288e388c1471eade20a1645b90065a9e501575ed8c0859c30e",
        "444220b770000135c1b671e21bc1a4c7f5648eee8af1475a1b5675d9cadb3040",
        "2aff9d0495231e7aede0f4662f497344f7fddf507ce4ed89e92372d3e098837b",
    ),
    "leader_update": (
        _long_traffic_seed_1(),
        _updates_leader_horizons,
        "6ca9c6f20350c2b84b31508ca2a29ad79cca28de7bb9dd7696e110933b872f01",
        "67a55df8350df50dd0981ae3abaa18ecefb84bef437e76220c7f22cdf61bdee7",
        "39314d170bbd5df4b8f27554ba774d78cc5ffa42da569977ce5870e3e8af1eaa",
    ),
}


@pytest.mark.parametrize("name", sorted(ENGINE_PATH_CASES))
def test_engine_path_run_matches_pinned_digests(name, tmp_path, monkeypatch):
    scenario, check, outputs, horizons, summary = ENGINE_PATH_CASES[name]
    watch, taken = check(monkeypatch)
    digests = run_digests(scenario, tmp_path, watch)
    assert taken()
    assert digests == (outputs, horizons, summary)
