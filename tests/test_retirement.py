"""Retirement of vehicles that have left coordination.

The oracle is the same engine with ``SimulationEngine._retire`` patched to
a no-op: every vehicle then stays simulated to the end of the run, as it
did before vehicles were retired, and the shipped scenarios still give the
digests they had then. Retiring must only cut each retired vehicle's
trajectory rows; every other output stays the same.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
import yaml

from cavsim.cli import main, write_metrics_csv, write_summary_json, write_trajectory_csv
from cavsim.config import load_scenario
from cavsim.engine import SimulationEngine, run

from conftest import nominal_twenty, paper_stress

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# sha256 of trajectory.csv followed by metrics.csv with every vehicle
# simulated to the end of the run.
FULL_RUN_DIGESTS = {
    "paper_stress": "b2a3c4e692eeeeffa214b5726b4d371a9898ca8f0bf4d197bc5253a21ce6fd9d",
    "nominal_intersection": "c477c0a40cd2237685060c74dfa8f63fc8a8589a61b1c66168f1f43b9ddc7296",
}

# (case, shipped scenario, edits): the shipped scenarios, plus two nominal
# runs outside the paper's operating range, one with demand above the
# string's capacity and one that loses every beacon from t=0.
CASES = (
    ("paper_stress", "paper_stress", {}),
    ("nominal_intersection", "nominal_intersection", {}),
    ("nominal_rate_0.3", "nominal_intersection", {("spawns", "random", "rate_per_leg"): 0.3}),
    ("nominal_total_loss", "nominal_intersection", {("channel", "loss_prob"): 1.0}),
)


def _load(tmp_path, name, edits):
    doc = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8"))
    for keys, value in edits.items():
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return load_scenario(str(path))


def _outputs(result, out):
    out.mkdir()
    write_trajectory_csv(out / "trajectory.csv", result)
    write_metrics_csv(out / "metrics.csv", result)
    write_summary_json(out / "summary.json", result)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    del summary["mean_step_wallclock_ms"]
    return summary


@pytest.mark.parametrize("case,name,edits", CASES, ids=[c[0] for c in CASES])
def test_retiring_run_is_the_full_run_cut_at_retirement(case, name, edits, tmp_path, monkeypatch):
    scenario = _load(tmp_path, name, edits)
    with monkeypatch.context() as patch:
        patch.setattr(SimulationEngine, "_retire", lambda self, now: None)
        full = run(scenario)
    retiring = run(scenario)

    full_summary = _outputs(full, tmp_path / "full")
    summary = _outputs(retiring, tmp_path / "retiring")
    if case in FULL_RUN_DIGESTS:
        digest = hashlib.sha256()
        for csv_name in ("trajectory.csv", "metrics.csv"):
            digest.update((tmp_path / "full" / csv_name).read_bytes())
        assert digest.hexdigest() == FULL_RUN_DIGESTS[case]

    retired_at = {int(vid): stats.pop("retired_at_s") for vid, stats in summary["per_vehicle"].items()}
    assert all(stats.pop("retired_at_s") is None for stats in full_summary["per_vehicle"].values())
    assert any(t is not None for t in retired_at.values())
    expected = [
        row for row in full.trajectory
        if retired_at[row[1]] is None or round(row[0], 6) < retired_at[row[1]]
    ]
    assert len(expected) < len(full.trajectory)
    assert retiring.trajectory == expected
    assert (tmp_path / "retiring" / "metrics.csv").read_bytes() == (
        tmp_path / "full" / "metrics.csv"
    ).read_bytes()
    assert retiring.violations == full.violations
    assert json.dumps(summary) == json.dumps(full_summary)


@pytest.mark.parametrize("case,name,edits", CASES[2:], ids=[c[0] for c in CASES[2:]])
def test_no_vehicle_targets_a_crossed_vehicle(case, name, edits, tmp_path):
    """Crossing takes a vehicle out of its sequence, and the same association
    update retargets its follower; so ``_retire`` needs no check that nothing
    targets the vehicles it retires."""
    follower_steps = []

    def probe(engine, now):
        for veh in engine.vehicles.values():
            if veh.target is not None:
                assert not engine.vehicles[veh.target].crossed, (now, veh.vid, veh.target)
                follower_steps.append(now)

    run(_load(tmp_path, name, edits), on_step=probe)
    assert len(follower_steps) > 1000


def _nominal_without_cap(duration):
    scenario = load_scenario(str(SCENARIOS / "nominal_intersection.yaml"))
    spawns = dataclasses.replace(
        scenario.spawns, random=dataclasses.replace(scenario.spawns.random, max_vehicles=None)
    )
    return dataclasses.replace(
        scenario,
        engine=dataclasses.replace(scenario.engine, duration=duration),
        spawns=spawns,
    )


def _mean_active_vehicles(duration):
    counts = []

    def probe(engine, now):
        counts.append(len(engine.vehicles))
        for veh in engine.vehicles.values():
            assert veh.target not in engine.retired, (now, veh.vid, veh.target)
        for veh in engine.retired.values():
            spec = engine.intersections[veh.intersection]
            zone_hi = spec.crossing_coord + spec.conflict_zone_length / 2.0
            assert veh.state.position - veh.state.length > zone_hi, (now, veh.vid)

    result = run(_nominal_without_cap(duration), on_step=probe)
    assert result.summary["vehicle_count"] == len(result.summary["per_vehicle"])
    return sum(counts) / len(counts)


def test_active_set_does_not_grow_with_run_length():
    """Without retirement the mean active set grows with the run (21.8
    vehicles over 150 s, 76.7 over 600 s); with it, it holds level."""
    short = _mean_active_vehicles(150.0)
    long = _mean_active_vehicles(600.0)
    assert abs(long - short) <= 0.1 * short, (short, long)


@pytest.mark.parametrize(
    "scenario",
    [nominal_twenty(), paper_stress(prediction_step=0.1, duration=12.0)],
    ids=["nominal_twenty", "paper_stress_12s"],
)
def test_retired_at_is_one_step_after_last_trajectory_row(scenario):
    assert scenario.engine.record_every == 1
    dt = scenario.engine.sim_step
    result = run(scenario)
    last_row = {}
    for row in result.trajectory:
        last_row[row[1]] = row[0]
    final_step = result.summary["steps"] - 1
    for vid, stats in result.summary["per_vehicle"].items():
        step = round(last_row[int(vid)] / dt)
        if stats["retired_at_s"] is None:
            assert step == final_step
        else:
            assert stats["crossed"]
            # Summary times sit on the six-decimal grid trajectory.csv prints.
            assert stats["retired_at_s"] == round((step + 1) * dt, 6)
    retired = [s["retired_at_s"] for s in result.summary["per_vehicle"].values()]
    assert any(t is not None for t in retired)


def test_summary_times_are_printed_as_trajectory_times(tmp_path):
    """``summary.json`` gives each step time as ``trajectory.csv`` prints it,
    without the binary noise of ``i * dt`` (22.200000000000003)."""
    out = tmp_path / "out"
    config = SCENARIOS / "nominal_intersection.yaml"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    times = [
        stats[key]
        for stats in summary["per_vehicle"].values()
        for key in ("entry_time_s", "retired_at_s")
        if stats[key] is not None
    ]
    assert len(times) > len(summary["per_vehicle"])
    for t in times:
        assert len(repr(t).partition(".")[2]) <= 6, t
        assert float(f"{t:.6f}") == t
