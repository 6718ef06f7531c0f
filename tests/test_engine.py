import dataclasses
import math
import struct
from pathlib import Path

import numpy as np
import pytest

import cavsim.engine as engine_module
from cavsim.cli import write_metrics_csv, write_trajectory_csv
from cavsim.config import load_scenario
from cavsim.control import GainTable
from cavsim.engine import (
    ControlConfig,
    EngineConfig,
    ScenarioConfig,
    run,
    sweep_prediction_step,
)
from cavsim.errors import ConfigError, NumericFault
from cavsim.estimation import EstimatorParams
from cavsim.network import ChannelModel
from cavsim.scenario import IntersectionSpec, LegSpec, SpawnEvent, SpawnPlan

from conftest import (
    PERFECT_CHANNEL,
    nominal_twenty,
    paper_stress,
    perfect_two_vehicle,
    timing_bench,
    with_seed,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        scenario = perfect_two_vehicle(duration=10.0)
        a = run(scenario)
        b = run(scenario)
        assert a.trajectory == b.trajectory
        assert a.metrics == b.metrics

    def test_seed_changes_noisy_run(self):
        base = nominal_twenty(seed=1)
        short = dataclasses.replace(
            base, engine=dataclasses.replace(base.engine, duration=20.0),
            channel=ChannelModel(delay_mean=0.04, delay_std=0.0259, loss_prob=0.1),
        )
        a = run(short)
        b = run(with_seed(short, 2))
        assert a.trajectory != b.trajectory


class TestStepSemantics:
    def test_recorded_truth_reproduces_plant_recurrence(self):
        scenario = perfect_two_vehicle(duration=10.0)
        result = run(scenario)
        dt = scenario.engine.sim_step
        by_vehicle = {}
        for row in result.trajectory:
            t, vid, leg, pos, speed, accel, *_ = row
            by_vehicle.setdefault(vid, []).append((t, pos, speed, accel))
        for rows in by_vehicle.values():
            for (t0, r0, v0, _), (t1, r1, v1, a1) in zip(rows, rows[1:]):
                assert r1 == pytest.approx(r0 + v0 * dt, abs=1e-12)
                # applied acceleration recorded at step s+1 produced v1 from v0
                if 0.0 < v1 < 20.0:
                    assert v1 == pytest.approx(v0 + a1 * dt, abs=1e-12)

    def test_zero_duration_run_is_empty_but_valid(self):
        scenario = perfect_two_vehicle(duration=0.0)
        result = run(scenario)
        assert result.trajectory == []
        assert result.summary["steps"] == 0
        assert result.summary["max_abs_pos_err_m"] == 0.0

    def test_follower_becomes_leader_after_target_crosses(self):
        spec = IntersectionSpec(id="x", legs=(LegSpec("a", 200.0),), control_zone_radius=150.0)
        scenario = ScenarioConfig(
            engine=EngineConfig(sim_step=0.1, duration=25.0, seed=1),
            channel=PERFECT_CHANNEL,
            estimator=EstimatorParams(prediction_step=0.1, horizon_s=5.0, v_target=15.0),
            control=ControlConfig(),
            intersections=(spec,),
            spawns=SpawnPlan(
                events=(
                    SpawnEvent(time=0.0, intersection="x", leg="a", speed=14.0, length=5.0, start_offset=120.0),
                    SpawnEvent(time=0.0, intersection="x", leg="a", speed=14.0, length=5.0, start_offset=90.0),
                )
            ),
        )
        roles = []
        def probe(engine, now):
            veh = engine.vehicles.get(1)
            if veh is not None:
                roles.append((now, veh.target))
        run(scenario, on_step=probe)
        targets = [tgt for _, tgt in roles]
        assert 0 in targets          # followed the front vehicle initially
        assert targets[-1] is None   # re-targeted to leader after it crossed

    def test_spawn_deferred_until_gap_clears(self):
        spec = IntersectionSpec(id="x", legs=(LegSpec("a", 400.0),), control_zone_radius=150.0)
        scenario = ScenarioConfig(
            engine=EngineConfig(sim_step=0.1, duration=10.0, seed=1),
            channel=PERFECT_CHANNEL,
            estimator=EstimatorParams(prediction_step=0.1, horizon_s=5.0, v_target=15.0),
            control=ControlConfig(),
            intersections=(spec,),
            spawns=SpawnPlan(
                events=(
                    SpawnEvent(time=0.0, intersection="x", leg="a", speed=10.0, length=5.0, start_offset=8.0),
                    # would overlap the first vehicle at t=0
                    SpawnEvent(time=0.0, intersection="x", leg="a", speed=10.0, start_offset=0.0),
                ),
                min_spawn_gap=10.0,
            ),
        )
        spawn_times = {}
        def probe(engine, now):
            for vid in engine.vehicles:
                spawn_times.setdefault(vid, now)
        run(scenario, on_step=probe)
        assert spawn_times[0] == 0.0
        assert spawn_times[1] > 0.0

    def test_numeric_fault_reports_step_and_vehicle(self):
        scenario = perfect_two_vehicle(duration=5.0)
        insane = dataclasses.replace(
            scenario,
            control=ControlConfig(time_gap=1.5, gain_table=GainTable.single(1e308, 0.8)),
        )
        with pytest.raises(NumericFault) as err:
            run(insane)
        assert "vehicle" in str(err.value)
        assert "step" in str(err.value)


def _order_oracle(engine, iid):
    """The crossing order as sorting defines it: entered, uncrossed vehicles
    by (control-zone entry time, id)."""
    return [
        vid
        for _, vid in sorted(
            (veh.entry_time, vid)
            for vid, veh in engine.vehicles.items()
            if veh.intersection == iid and veh.entry_time is not None and not veh.crossed
        )
    ]


def _two_intersection_nominal():
    scenario = nominal_twenty()
    second = dataclasses.replace(scenario.intersections[0], id="y")
    return dataclasses.replace(
        scenario,
        intersections=(*scenario.intersections, second),
        spawns=dataclasses.replace(
            scenario.spawns,
            random=dataclasses.replace(scenario.spawns.random, max_vehicles=40),
        ),
    )


def _nominal_at_rate(rate):
    scenario = nominal_twenty()
    return dataclasses.replace(
        scenario,
        spawns=dataclasses.replace(
            scenario.spawns,
            random=dataclasses.replace(scenario.spawns.random, rate_per_leg=rate),
        ),
    )


class TestCrossingOrder:
    def test_same_step_entries_are_ordered_by_id(self):
        # Vehicle 1 starts half a metre nearer the crossing point on another
        # leg; both cross the control-zone edge on the same step.
        spec = IntersectionSpec(
            id="x", legs=(LegSpec("a", 400.0), LegSpec("b", 400.0)), control_zone_radius=150.0
        )
        scenario = ScenarioConfig(
            engine=EngineConfig(sim_step=0.1, duration=2.0, seed=1),
            channel=PERFECT_CHANNEL,
            estimator=EstimatorParams(prediction_step=0.1, horizon_s=5.0, v_target=10.0),
            control=ControlConfig(),
            intersections=(spec,),
            spawns=SpawnPlan(
                events=(
                    SpawnEvent(time=0.0, intersection="x", leg="a", speed=10.0, start_offset=249.2),
                    SpawnEvent(time=0.0, intersection="x", leg="b", speed=10.0, start_offset=249.7),
                )
            ),
        )
        entries = []

        def probe(engine, now):
            if engine.orders["x"] and not entries:
                back, front = engine.vehicles[0], engine.vehicles[1]
                assert back.entry_time == front.entry_time == now
                assert front.state.position > back.state.position
                assert engine.orders["x"] == [0, 1]
                assert front.target == 0
                entries.append(now)

        run(scenario, on_step=probe)
        assert entries

    def test_vehicle_that_skips_the_control_zone_crosses_outside_any_order(self):
        # At 20 m per step the vehicle goes from 5 m before the crossing
        # point to 15 m past it, never within the 0.5 m control zone.
        spec = IntersectionSpec(id="x", legs=(LegSpec("a", 10.0),), control_zone_radius=0.5)
        scenario = ScenarioConfig(
            engine=EngineConfig(sim_step=1.0, duration=3.0, seed=1),
            channel=PERFECT_CHANNEL,
            estimator=EstimatorParams(prediction_step=1.0, horizon_s=5.0, v_target=20.0),
            control=ControlConfig(),
            intersections=(spec,),
            spawns=SpawnPlan(
                events=(SpawnEvent(time=0.0, intersection="x", leg="a", speed=20.0, start_offset=5.0),)
            ),
        )
        result = run(scenario)
        stats = result.summary["per_vehicle"]["0"]
        assert stats["crossed"]
        assert stats["entry_time_s"] is None

    @pytest.mark.parametrize(
        "scenario",
        [_nominal_at_rate(0.3), _two_intersection_nominal()],
        ids=["nominal_rate_0.3", "nominal_two_intersections"],
    )
    def test_orders_match_the_sorted_definition_every_step(self, scenario):
        longest = {spec.id: 0 for spec in scenario.intersections}

        def probe(engine, now):
            in_order = set()
            for iid, order in engine.orders.items():
                assert order == _order_oracle(engine, iid), (now, iid)
                targets = [engine.vehicles[vid].target for vid in order]
                assert targets == [None, *order][: len(order)], (now, iid)
                longest[iid] = max(longest[iid], len(order))
                in_order.update(order)
            for vid, veh in engine.vehicles.items():
                if vid not in in_order:
                    assert veh.target is None, (now, vid)

        result = run(scenario, on_step=probe)
        # Chains formed and vehicles crossed (left their order) at every intersection.
        assert all(n >= 3 for n in longest.values()), longest
        crossed = {
            stats["intersection"] for stats in result.summary["per_vehicle"].values() if stats["crossed"]
        }
        assert crossed == set(longest)


class TestValidation:
    def test_incompatible_steps_rejected(self):
        scenario = perfect_two_vehicle()
        bad = dataclasses.replace(
            scenario,
            estimator=dataclasses.replace(scenario.estimator, prediction_step=0.03),
            engine=dataclasses.replace(scenario.engine, sim_step=0.02),
        )
        with pytest.raises(ConfigError):
            run(bad)

    def test_unknown_spawn_intersection_rejected(self):
        scenario = perfect_two_vehicle()
        bad = dataclasses.replace(
            scenario,
            spawns=SpawnPlan(
                events=(SpawnEvent(time=0.0, intersection="nope", leg="a", speed=10.0),)
            ),
        )
        with pytest.raises(ConfigError):
            run(bad)

    def test_no_intersections_rejected(self):
        scenario = dataclasses.replace(perfect_two_vehicle(), intersections=())
        with pytest.raises(ConfigError):
            run(scenario)

    # Each passes its field's bound when built in code; the file reader
    # rejects inf before a config type is built.
    @pytest.mark.parametrize(
        "section, name, key",
        [
            ("engine", "sim_step", "engine.sim_step_s"),
            ("engine", "duration", "engine.duration_s"),
            ("estimator", "prediction_step", "estimator.prediction_step_s"),
            ("estimator", "horizon_s", "estimator.horizon_s"),
        ],
    )
    def test_infinite_setting_rejected_at_its_key(self, section, name, key):
        scenario = perfect_two_vehicle(duration=2.0)
        infinite = dataclasses.replace(getattr(scenario, section), **{name: math.inf})
        with pytest.raises(ConfigError) as exc:
            run(dataclasses.replace(scenario, **{section: infinite}))
        assert str(exc.value) == f"{key}: expected a finite number, got inf"


class TestSweep:
    def test_single_step_single_row(self):
        scenario = perfect_two_vehicle(duration=5.0)
        rows, results = sweep_prediction_step(scenario, [0.1])
        assert len(rows) == 1
        assert rows[0]["prediction_step_s"] == 0.1
        assert 0.1 in results

    def test_rows_in_given_order(self):
        scenario = perfect_two_vehicle(duration=2.0)
        rows, _ = sweep_prediction_step(scenario, [0.5, 0.1, 1.0])
        assert [r["prediction_step_s"] for r in rows] == [0.5, 0.1, 1.0]

    def test_perfect_comms_error_vanishes_at_matching_step(self):
        scenario = perfect_two_vehicle(duration=10.0)
        rows, _ = sweep_prediction_step(scenario, [0.1])
        assert rows[0]["max_abs_pos_err_m"] < 1e-6

    def test_repeated_step_rejected_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(engine_module, "run", runs.append)
        with pytest.raises(ConfigError, match="prediction step 1.0 repeated"):
            sweep_prediction_step(perfect_two_vehicle(duration=2.0), [1.0, 0.5, 1.0])
        assert runs == []

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
    def test_out_of_bound_step_is_a_config_error_naming_it(self, step):
        with pytest.raises(ConfigError, match=f"^estimator.prediction_step_s: .*got {step}$"):
            sweep_prediction_step(perfect_two_vehicle(duration=2.0), [0.1, step])

    def test_invalid_later_step_rejected_before_any_run(self, monkeypatch):
        # 0.03 s is no integer multiple or divisor of the 0.1 s simulation step.
        runs = []
        monkeypatch.setattr(engine_module, "run", runs.append)
        with pytest.raises(ConfigError, match="estimator.prediction_step_s: must be an integer"):
            sweep_prediction_step(perfect_two_vehicle(duration=2.0), [0.1, 0.03])
        assert runs == []


def test_summary_contains_stable_keys():
    result = run(perfect_two_vehicle(duration=5.0))
    for key in (
        "max_abs_pos_err_m",
        "rms_pos_err_m",
        "violation_count",
        "full_stop_count",
        "vehicle_count",
        "mean_step_wallclock_ms",
        "per_vehicle",
    ):
        assert key in result.summary


class TestFullStops:
    """A vehicle made a full stop when its minimum control-zone speed is
    below ``FULL_STOP_SPEED`` (0.5 m/s)."""

    def test_derived_from_the_zone_minimum_speed(self):
        # Demand over capacity: 15 of the 20 vehicles stop in the zone.
        result = run(_nominal_at_rate(0.3))
        per_vehicle = result.summary["per_vehicle"].values()
        stopped = 0
        for stats in per_vehicle:
            minimum = stats["min_speed_in_zone_mps"]
            assert stats["full_stop"] == (minimum is not None and minimum < 0.5)
            stopped += stats["full_stop"]
        assert result.summary["full_stop_count"] == stopped == 15

    def test_the_threshold_speed_itself_is_no_stop(self):
        # Both vehicles spawn 100 m before the crossing, inside the control
        # zone, and the one-step run records their spawn speeds alone.
        spec = IntersectionSpec(id="x", legs=(LegSpec("a", 400.0), LegSpec("b", 400.0)))
        scenario = ScenarioConfig(
            engine=EngineConfig(sim_step=0.1, duration=0.1, seed=1),
            channel=PERFECT_CHANNEL,
            intersections=(spec,),
            spawns=SpawnPlan(
                events=(
                    SpawnEvent(time=0.0, intersection="x", leg="a", speed=0.5, start_offset=300.0),
                    SpawnEvent(time=0.0, intersection="x", leg="b", speed=0.4, start_offset=300.0),
                )
            ),
        )
        summary = run(scenario).summary
        outcomes = [(s["min_speed_in_zone_mps"], s["full_stop"]) for s in summary["per_vehicle"].values()]
        assert outcomes == [(0.5, False), (0.4, True)]
        assert summary["full_stop_count"] == 1


def test_per_vehicle_summary_matches_brute_force():
    result = run(paper_stress(prediction_step=0.1))
    per_vehicle = result.summary["per_vehicle"]
    assert len(per_vehicle) == result.summary["vehicle_count"]
    for key, stats in per_vehicle.items():
        rows = [row for row in result.metrics if row[1] == int(key)]
        errors = [row[3] for row in rows]
        assert stats["max_abs_pos_err_m"] == max((abs(e) for e in errors), default=None)
        expected_rms = (
            math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else None
        )
        assert stats["rms_pos_err_m"] == expected_rms
        assert stats["steps_link_up"] == sum(1 for row in rows if row[5])
        assert stats["steps_link_down"] == sum(1 for row in rows if not row[5])
        assert stats["steps_horizon_exhausted"] == sum(1 for row in rows if row[6])
    # The blackout windows leave vehicle 2's follower without a link.
    assert sum(s["steps_link_down"] for s in per_vehicle.values()) > 0


def test_implicit_solve_whole_run(tmp_path):
    explicit = paper_stress(prediction_step=0.1)
    implicit = dataclasses.replace(
        explicit,
        estimator=dataclasses.replace(explicit.estimator, implicit_solve=True),
    )
    first = run(implicit)
    for row in first.trajectory:
        assert all(math.isfinite(v) for v in row[3:6])
    for row in first.metrics:
        assert math.isfinite(row[3]) and math.isfinite(row[4])

    def csv_bytes(result, name):
        write_trajectory_csv(tmp_path / f"{name}_trajectory.csv", result)
        write_metrics_csv(tmp_path / f"{name}_metrics.csv", result)
        return (
            (tmp_path / f"{name}_trajectory.csv").read_bytes(),
            (tmp_path / f"{name}_metrics.csv").read_bytes(),
        )

    assert csv_bytes(first, "first") == csv_bytes(run(implicit), "replay")
    assert first.trajectory != run(explicit).trajectory



def _bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


def _ideal_chain(sim_step):
    """150 vehicles in one crossing order on an ideal channel, 400-sample horizons."""
    base = timing_bench(duration=0.5)
    return dataclasses.replace(base, engine=dataclasses.replace(base.engine, sim_step=sim_step))


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(engine_module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(engine_module, name, counted)
    return calls


class TestBatchedChainHorizons:
    """On an ideal channel a crossing order of at least ``CHAIN_BATCH_MIN``
    vehicles gets its followers' horizons from one vectorised pass; the run
    must equal the one-by-one pass bit for bit."""

    @staticmethod
    def _record(scenario, tmp_path, name, monkeypatch):
        steps = []

        def probe(engine, now):
            steps.append({
                vid: (
                    _bits(veh.state.speed, veh.state.position),
                    est and _bits(est.anchor_time, est.anchor_speed, est.anchor_position,
                                  *est.speeds, *est.positions),
                )
                for vid, veh in engine.vehicles.items()
                for est in [veh.own_estimate]
            })

        with monkeypatch.context() as m:
            calls = _count_calls(m, "chain_follower_horizons", "follower_estimate")
            result = run(scenario, on_step=probe)
        write_trajectory_csv(tmp_path / f"{name}_trajectory.csv", result)
        write_metrics_csv(tmp_path / f"{name}_metrics.csv", result)
        summary = dict(result.summary)
        del summary["mean_step_wallclock_ms"]
        outputs = (
            (tmp_path / f"{name}_trajectory.csv").read_bytes(),
            (tmp_path / f"{name}_metrics.csv").read_bytes(),
            result.violations,
            summary,
        )
        return steps, outputs, calls

    @pytest.mark.parametrize("sim_step", [0.02, 0.1])
    def test_batched_run_equals_scalar_run(self, sim_step, tmp_path, monkeypatch):
        scenario = _ideal_chain(sim_step)
        width = len(scenario.spawns.events)
        assert width >= engine_module.CHAIN_BATCH_MIN
        batched, batched_out, batched_calls = self._record(
            scenario, tmp_path, "batched", monkeypatch
        )
        monkeypatch.setattr(engine_module, "CHAIN_BATCH_MIN", width + 1)
        scalar, scalar_out, scalar_calls = self._record(scenario, tmp_path, "scalar", monkeypatch)
        # 0.5 s holds five 0.1 s prediction boundaries: one kernel call each,
        # and every follower takes its row. Without the batch every follower
        # refreshes one by one.
        assert batched_calls == {"chain_follower_horizons": 5, "follower_estimate": 0}
        assert scalar_calls == {"chain_follower_horizons": 0, "follower_estimate": 5 * (width - 1)}
        assert batched == scalar
        assert batched_out == scalar_out

    @pytest.mark.parametrize("sim_step", [0.02, 0.1])
    def test_kernel_gets_its_heads_age_0_full_horizon(self, sim_step, monkeypatch):
        # The kernel compensates nothing: the engine owns its precondition
        # and hands it the order head's horizon of this very step.
        kernel = engine_module.chain_follower_horizons
        calls = []

        def checked(now, beacon, followers, t_gap, params):
            assert beacon.estimate.anchor_time == now
            assert beacon.estimate.horizon_len == params.horizon_len
            calls.append(now)
            return kernel(now, beacon, followers, t_gap, params)

        monkeypatch.setattr(engine_module, "chain_follower_horizons", checked)
        run(_ideal_chain(sim_step))
        assert len(calls) == 5

    def test_one_step_ahead_estimate_is_the_plant(self, monkeypatch):
        # Criterion 1 on the batched chain: at matching steps every vehicle's
        # first horizon sample is its next plant state, bit for bit.
        calls = _count_calls(monkeypatch, "chain_follower_horizons")
        captures = []

        def probe(engine, now):
            captures.append(
                {vid: (veh.state, veh.own_estimate) for vid, veh in engine.vehicles.items()}
            )

        run(_ideal_chain(0.1), on_step=probe)
        assert calls["chain_follower_horizons"] == len(captures) == 5
        checked = 0
        for before, after in zip(captures, captures[1:]):
            for vid, (_, est) in before.items():
                state = after[vid][0]
                assert _bits(est.speeds[0], est.positions[0]) == _bits(state.speed, state.position)
                checked += 1
        assert checked == 150 * 4

    def test_batched_run_writes_builtin_types(self, monkeypatch):
        # The kernel's estimates are read-only float64 views; none of their
        # numpy scalars may reach an output row or the summary.
        calls = _count_calls(monkeypatch, "chain_follower_horizons")
        views = []

        def probe(engine, now):
            views.extend(
                veh.own_estimate.speeds
                for veh in engine.vehicles.values()
                if isinstance(veh.own_estimate.speeds, np.ndarray)
            )

        result = run(_ideal_chain(0.1), on_step=probe)
        assert calls["chain_follower_horizons"] == 5
        assert views and not any(view.flags.writeable for view in views)

        def builtin(value):
            if isinstance(value, dict):
                return all(builtin(k) and builtin(v) for k, v in value.items())
            if isinstance(value, (list, tuple)):
                return all(builtin(v) for v in value)
            return type(value) in (int, float, str, bool, type(None))

        for name in ("trajectory", "metrics", "violations"):
            rows = getattr(result, name)
            assert builtin(rows), name
        assert result.trajectory and result.metrics
        assert builtin(result.summary)


class TestLeaderUpdateInRuns:
    """A free-driving vehicle's refresh advances its previous horizon when
    the plant landed exactly on its first sample, never right after a
    retarget, and always equals the horizon computed from scratch."""

    # Under total loss a follower never gets a beacon and drives free
    # until its target crosses and it is retargeted to none.
    @pytest.mark.parametrize(
        "rate, loss",
        [(None, None), (0.3, None), (None, 1.0)],
        ids=["nominal_intersection", "nominal_rate_0.3", "nominal_total_loss"],
    )
    def test_updates_are_exact(self, rate, loss, monkeypatch):
        scenario = load_scenario(str(SCENARIOS / "nominal_intersection.yaml"))
        if rate is not None:
            random = dataclasses.replace(scenario.spawns.random, rate_per_leg=rate)
            scenario = dataclasses.replace(
                scenario, spawns=dataclasses.replace(scenario.spawns, random=random)
            )
        if loss is not None:
            scenario = dataclasses.replace(
                scenario, channel=dataclasses.replace(scenario.channel, loss_prob=loss)
            )
        full = engine_module.leader_estimate
        refresh = engine_module.SimulationEngine._refresh_estimate
        retarget = engine_module.SimulationEngine._retarget
        refreshing = {}
        retargeted = set()
        counts = {"calls": 0, "updates": 0, "after_retarget": 0}

        def probe_refresh(self, veh, now):
            refreshing["vid"] = veh.vid
            refresh(self, veh, now)

        def probe_retarget(self, veh, target, now):
            retargeted.add(veh.vid)
            retarget(self, veh, target, now)

        def probe_leader(now, own, params, previous=None):
            counts["calls"] += 1
            vid = refreshing["vid"]
            if vid in retargeted:
                retargeted.discard(vid)
                counts["after_retarget"] += 1
                assert previous is None
            if previous is not None and _bits(previous.speeds[0], previous.positions[0]) == _bits(
                own.speed, own.position
            ):
                counts["updates"] += 1
            result = full(now, own, params, previous)
            fresh = full(now, own, params)
            assert _bits(*result.speeds, *result.positions) == _bits(
                *fresh.speeds, *fresh.positions
            )
            return result

        monkeypatch.setattr(engine_module.SimulationEngine, "_refresh_estimate", probe_refresh)
        monkeypatch.setattr(engine_module.SimulationEngine, "_retarget", probe_retarget)
        monkeypatch.setattr(engine_module, "leader_estimate", probe_leader)
        run(scenario)
        assert counts["updates"] >= 1
        assert counts["after_retarget"] >= 1
        assert counts["updates"] < counts["calls"]
