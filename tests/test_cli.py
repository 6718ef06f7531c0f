import copy
import json
import math
import textwrap
from pathlib import Path

import pytest
import yaml

from cavsim.cli import main
from cavsim.config import load_scenario, parse_scenario
from cavsim.errors import ConfigError
from cavsim.scenario import expand_random_spawns
from test_config_schema import SECTION_DOCS, declared_bounds, doc_path, node_at

VALID_CONFIG = textwrap.dedent(
    """
    engine:
      sim_step_s: 0.1
      duration_s: 5.0
      seed: 11
    channel:
      delay_mean_s: 0.0
      delay_std_s: 0.0
      loss_prob: 0.0
    estimator:
      prediction_step_s: 0.1
      horizon_s: 5.0
      v_target: 15.0
    control:
      k: 0.5
      gamma: 0.8
      time_gap_s: 1.5
    intersections:
      - id: x
        legs:
          - id: a
            approach_length_m: 600.0
        control_zone_radius_m: 550.0
    spawns:
      events:
        - time_s: 0.0
          leg: a
          speed_mps: 12.0
          start_offset_m: 50.0
        - time_s: 0.0
          leg: a
          speed_mps: 11.0
          start_offset_m: 23.0
    """
)


def write_config(tmp_path: Path, text: str = VALID_CONFIG, name: str = "scenario.yaml") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_valid_config_loads(self, tmp_path):
        scenario = load_scenario(str(write_config(tmp_path)))
        assert scenario.engine.seed == 11
        assert scenario.intersections[0].legs[0].approach_length == 600.0

    def test_unknown_key_named_in_error(self, tmp_path):
        bad = VALID_CONFIG.replace("channel:", "chanel:")
        with pytest.raises(ConfigError) as err:
            load_scenario(str(write_config(tmp_path, bad)))
        assert "chanel" in str(err.value)

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_scenario({"engine": {"sim_step_s": 0.1, "sim_stepz": 1}})
        assert "sim_stepz" in str(err.value)

    def test_step_divisibility_checked(self, tmp_path):
        bad = VALID_CONFIG.replace("prediction_step_s: 0.1", "prediction_step_s: 0.03")
        with pytest.raises(ConfigError):
            load_scenario(str(write_config(tmp_path, bad)))

    def test_overlapping_windows_rejected(self, tmp_path):
        bad = VALID_CONFIG.replace(
            "loss_prob: 0.0",
            "loss_prob: 0.0\n  nlos_windows: [[4.0, 6.0], [5.0, 7.0]]",
        )
        with pytest.raises(ConfigError):
            load_scenario(str(write_config(tmp_path, bad)))

    def test_seed_override(self, tmp_path):
        path = str(write_config(tmp_path))
        assert load_scenario(path).engine.seed == 11
        assert load_scenario(path, seed_override=99).engine.seed == 99

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/path.yaml")

    def test_gain_table_roundtrip(self, tmp_path):
        gain_table_block = (
            "  time_gap_s: 1.5\n"
            "  gain_table:\n"
            "    v_i_edges: [0.0]\n"
            "    v_j_edges: [0.0]\n"
            "    headway_edges: [0.0, 50.0]\n"
            "    entries: [[[[0.5, 0.8], [0.3, 0.6]]]]"
        )
        # The table replaces the k/gamma pair, which may not sit next to it.
        cfg = VALID_CONFIG.replace("  k: 0.5\n  gamma: 0.8\n  time_gap_s: 1.5", gain_table_block)
        scenario = load_scenario(str(write_config(tmp_path, cfg)))
        table = scenario.control.gain_table
        assert table.entries[0][0][1] == (0.3, 0.6)


class TestCliCommands:
    def test_run_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        for name in ("trajectory.csv", "metrics.csv", "summary.json"):
            assert (out / name).exists()
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == (
            "time_s,vehicle_id,leg,virtual_pos_m,speed_mps,accel_mps2,"
            "est_target_pos_m,pos_est_err_m,link_up"
        )

    def test_run_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID_CONFIG.replace("channel:", "chanel:"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "chanel" in capsys.readouterr().err

    def test_run_numeric_fault_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, VALID_CONFIG.replace("k: 0.5", "k: 1.0e308"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_seed_override_changes_trajectory_reproducibly(self, tmp_path):
        noisy = VALID_CONFIG.replace("loss_prob: 0.0", "loss_prob: 0.2").replace(
            "delay_std_s: 0.0", "delay_std_s: 0.0259"
        ).replace("delay_mean_s: 0.0", "delay_mean_s: 0.04")
        cfg = write_config(tmp_path, noisy)
        outs = []
        for name, seed in [("a", "1"), ("b", "2"), ("c", "1")]:
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--seed", seed, "--out", str(out)]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] != outs[1]
        assert outs[0] == outs[2]

    def test_sweep_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--steps", "0.1,0.5", "--out", str(out)])
        assert code == 0
        sweep_lines = (out / "sweep.csv").read_text().splitlines()
        assert sweep_lines[0] == (
            "prediction_step_s,max_abs_pos_err_m,rms_pos_err_m,mean_step_wallclock_ms"
        )
        assert len(sweep_lines) == 3
        assert sweep_lines[1].startswith("0.100000")
        assert sweep_lines[2].startswith("0.500000")
        assert (out / "dt_0.100000" / "trajectory.csv").exists()
        assert (out / "dt_0.500000" / "summary.json").exists()

    def test_sweep_empty_steps_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--steps", "", "--out", str(tmp_path / "s")]) == 2

    def test_validate_ok_prints_normalized_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["engine"]["seed"] == 11
        assert dumped["estimator"]["prediction_step"] == 0.1

    def test_validate_bad_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, VALID_CONFIG.replace("prediction_step_s: 0.1", "prediction_step_s: 0.03"))
        assert main(["validate", "--config", str(cfg)]) == 2

    def test_summary_json_keys(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        for key in (
            "max_abs_pos_err_m", "rms_pos_err_m", "violation_count",
            "full_stop_count", "per_vehicle",
        ):
            assert key in summary

    def test_fixed_decimal_formatting(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert first[0] == "0.000000"
        # six fixed decimals on float columns
        assert len(first[3].split(".")[1]) == 6


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

NON_FINITE_CASES = [
    (("dynamics", "accel_max"), math.nan),
    (("dynamics", "decel_max"), -math.inf),
    (("control", "time_gap_s"), math.nan),
    (("control", "k"), math.nan),
    (("estimator", "horizon_s"), math.nan),
    (("estimator", "v_target"), math.inf),
    (("channel", "delay_mean_s"), math.nan),
    (("engine", "duration_s"), math.inf),
    (("engine", "seed"), math.nan),
    (("intersections", 0, "control_zone_radius_m"), math.nan),
    (("intersections", 0, "legs", 0, "approach_length_m"), math.nan),
    (("spawns", "random", "rate_per_leg"), math.inf),
    (("spawns", "min_spawn_gap_m"), math.nan),
]


def config_path(keys) -> str:
    text = ""
    for key in keys:
        text += f"[{key}]" if isinstance(key, int) else f".{key}"
    return text.lstrip(".")


def write_with(tmp_path: Path, keys, value) -> Path:
    doc = yaml.safe_load((SCENARIOS / "nominal_intersection.yaml").read_text(encoding="utf-8"))
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[keys[-1]] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


class TestNonFiniteValues:
    @pytest.mark.parametrize(
        "keys, value", NON_FINITE_CASES, ids=[config_path(k) for k, _ in NON_FINITE_CASES]
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_exit_2_naming_the_path(self, tmp_path, capsys, keys, value, command):
        cfg = write_with(tmp_path, keys, value)
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {config_path(keys)}: " in err
        assert not (tmp_path / "out").exists()

    # Finite, but counted in steps (or in simulation steps per prediction
    # step), and the count overflows. The scenario has no random spawns,
    # which would be drawn over the whole duration.
    @pytest.mark.parametrize(
        "keys, rule",
        [
            (("engine", "duration_s"), "1e+308 s holds too many 0.1 s steps"),
            (("estimator", "horizon_s"), "1e+308 s holds too many 0.1 s steps"),
            (("estimator", "prediction_step_s"), "must be an integer multiple"),
        ],
        ids=["engine.duration_s", "estimator.horizon_s", "estimator.prediction_step_s"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_huge_span_exits_2_naming_the_path(self, tmp_path, capsys, keys, rule, command):
        doc = yaml.safe_load(VALID_CONFIG)
        doc[keys[0]][keys[1]] = 1.0e308
        cfg = write_config(tmp_path, yaml.safe_dump(doc))
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {config_path(keys)}: {rule}" in err
        assert not (tmp_path / "out").exists()

    def test_nlos_window_and_gain_entry_paths(self):
        with pytest.raises(ConfigError, match=r"channel\.nlos_windows\[1\]\[0\]"):
            parse_scenario({"channel": {"nlos_windows": [[1.0, 2.0], [math.nan, 5.0]]}})
        table = {"entries": [[[[0.5, 0.8], [0.3, math.inf]]]], "headway_edges": [0.0, 50.0]}
        with pytest.raises(ConfigError, match=r"control\.gain_table\.entries\[0\]\[0\]\[1\]\[1\]"):
            parse_scenario({"control": {"gain_table": table}})
        with pytest.raises(ConfigError, match=r"control\.gain_table\.headway_edges\[1\]"):
            parse_scenario(
                {"control": {"gain_table": {"entries": [[[[0.5, 0.8]]]], "headway_edges": [0.0, "x"]}}}
            )

    def test_non_numeric_value_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"engine\.duration_s: expected a finite number"):
            parse_scenario({"engine": {"duration_s": "long"}})

    @pytest.mark.parametrize(
        "section, key, value, expected",
        [
            ("engine", "record_every", 2.7, "integer"),
            ("engine", "seed", 2.7, "integer"),
            ("engine", "seed", True, "integer"),
            ("engine", "duration_s", True, "number"),
            ("dynamics", "accel_max", False, "number"),
        ],
    )
    def test_bools_and_fractional_ints_are_config_errors(self, section, key, value, expected):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: expected a finite {expected}"):
            parse_scenario({section: {key: value}})

    def test_integral_float_is_an_int(self):
        assert parse_scenario({"engine": {"record_every": 2.0}}).engine.record_every == 2


def out_of_bound_values(op, limit):
    """Values that break ``op limit``: the limit itself for a strict bound,
    then one beyond it."""
    if op == ">":
        return [limit, limit - 1]
    return [limit - 1] if op == ">=" else [limit + 1]


def out_of_bound_cases():
    """(section, key, value, broken rule) for every bound declared on a
    field read from a scenario file; ``SECTION_DOCS[section]`` is the
    smallest document that holds the section."""
    for section, key, bounds in declared_bounds():
        for op, limit in bounds:
            for value in out_of_bound_values(op, limit):
                case_id = f"{config_path(doc_path(section))}.{key}={value}"
                yield pytest.param(section, key, value, f"{op} {limit}", id=case_id)


def test_out_of_bound_cases_cover_every_bounded_key():
    # Guards the walk: every section with a bounded key, the owners' included.
    keys = {(config_path(doc_path(c.values[0])), c.values[1]) for c in out_of_bound_cases()}
    assert len(keys) == 30
    assert {
        ("engine", "seed"),
        ("estimator", "prediction_step_s"),
        ("control", "k"),
        ("control", "gamma"),
        ("intersections[0]", "conflict_zone_length_m"),
        ("spawns.random", "length_m"),
    } <= keys


def run_bad(tmp_path, command, doc) -> int:
    """``command`` on the scenario ``doc``; ``run`` writes to ``tmp_path/out``."""
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
    argv = [command, "--config", str(cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    return main(argv)


class TestOutOfRangeValues:
    @pytest.mark.parametrize("section, key, value, rule", out_of_bound_cases())
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_out_of_bound_value_exits_2(self, tmp_path, capsys, section, key, value, rule, command):
        doc, path = copy.deepcopy(SECTION_DOCS[section]), doc_path(section)
        node_at(doc, path)[key] = value
        assert run_bad(tmp_path, command, doc) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {config_path(path)}.{key}: must be ")
        assert rule in err and f"got {value}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "pair, message",
        [([-0.3, 0.6], "k must be > 0, got -0.3"), ([0.3, -0.6], "gamma must be >= 0, got -0.6")],
        ids=["k", "gamma"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_gain_table_entry_out_of_bound_exits_2(self, tmp_path, capsys, pair, message, command):
        table = {"headway_edges": [0.0, 50.0], "entries": [[[[0.5, 0.8], pair]]]}
        assert run_bad(tmp_path, command, {"control": {"gain_table": table}}) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: control.gain_table.entries[0][0][1]: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "keys, value, edits",
        [
            (("control", "k"), -1.0, {}),
            (("spawns", "random", "length_m"), 0, {}),
            # The total-loss nominal run, which an inverted zone once turned
            # from 16 conflict-zone violation-steps into none.
            (("intersections", 0, "conflict_zone_length_m"), -12.0, {"loss_prob": 1.0}),
        ],
        ids=["control.k", "spawns.random.length_m", "conflict_zone_length_m"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_shipped_scenario_with_bad_value_exits_2(
        self, tmp_path, capsys, keys, value, edits, command
    ):
        doc = yaml.safe_load((SCENARIOS / "nominal_intersection.yaml").read_text(encoding="utf-8"))
        doc["channel"].update(edits)
        node_at(doc, keys[:-1])[keys[-1]] = value
        assert run_bad(tmp_path, command, doc) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {config_path(keys)}: must be > 0, got {value}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [0, -1.5])
    def test_non_positive_time_gap_exits_2(self, tmp_path, capsys, value):
        # ControlConfig owns time_gap > 0; the follower estimator relies on it.
        cfg = write_with(tmp_path, ("control", "time_gap_s"), value)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "configuration error: control.time_gap_s: must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0.1,0", "-0.5", "nan", "inf", "1.0,1.0", "0.1,0.1000001"])
    def test_sweep_non_positive_step_exits_2(self, tmp_path, capsys, steps):
        cfg = write_config(tmp_path)
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--steps", steps, "--out", str(out)]) == 2
        assert "invalid --steps list" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_max_vehicles_exits_2(self, tmp_path, capsys):
        cfg = write_with(tmp_path, ("spawns", "random", "max_vehicles"), -1)
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: spawns.random.max_vehicles: must be >= 0, got -1" in err

    # A spawn speed is at most dynamics.speed_max (20 by default), for an
    # explicit event and for the random arrivals' upper bound alike.
    @pytest.mark.parametrize(
        "spawns, key",
        [
            (
                {"events": [{"time_s": 0.0, "leg": "a", "speed_mps": 25.0, "start_offset_m": 0.0}]},
                "spawns.events[0].speed_mps",
            ),
            ({"random": {"speed_max_mps": 25.0}}, "spawns.random.speed_max_mps"),
        ],
        ids=["events", "random"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_spawn_speed_above_speed_max_exits_2(self, tmp_path, capsys, spawns, key, command):
        assert run_bad(tmp_path, command, {"spawns": spawns}) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}: exceeds dynamics.speed_max")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_negative_seed_override_exits_2(self, tmp_path, capsys, command):
        # numpy's seed sequence takes no negative entropy; the bound names the key.
        argv = [command, "--config", str(write_config(tmp_path)), "--seed", "-3"]
        argv += ["--out", str(tmp_path / "out")] + (["--steps", "0.1"] if command == "sweep" else [])
        assert main(argv) == 2
        assert capsys.readouterr().err == "configuration error: engine.seed: must be >= 0, got -3\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", ["- 1\n", "engine: [1]\n", "engine:\n"])
    def test_seed_override_reports_a_bad_shape_as_without_it(self, tmp_path, doc):
        path = str(write_config(tmp_path, doc))
        with pytest.raises(ConfigError) as plain:
            load_scenario(path)
        with pytest.raises(ConfigError) as overridden:
            load_scenario(path, seed_override=5)
        assert str(overridden.value) == str(plain.value)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_duplicate_leg_ids_exit_2(self, tmp_path, capsys, command):
        # Leg lookup by id would never reach the second leg, while random
        # arrivals and the safety check would use both as one lane.
        legs = [{"id": "a", "approach_length_m": 250}, {"id": "a", "approach_length_m": 200}]
        assert run_bad(tmp_path, command, {"intersections": [{"id": "x", "legs": legs}]}) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: intersections[0]: duplicate leg ids\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "pair, key", [({"k": 9.0, "gamma": 0.1}, "k"), ({"gamma": 0.1}, "gamma")], ids=["k", "gamma"]
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_gain_pair_next_to_gain_table_exits_2(self, tmp_path, capsys, pair, key, command):
        # A gain table replaces the single pair; a pair next to it would be ignored.
        control = {**pair, "gain_table": {"entries": [[[[0.5, 0.8]]]]}}
        assert run_bad(tmp_path, command, {"control": control}) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: control.{key}: not allowed next to a gain_table\n"
        assert not (tmp_path / "out").exists()

    def test_zero_max_vehicles_spawns_no_random_arrival(self):
        scenario = parse_scenario({"spawns": {"random": {"max_vehicles": 0}}})
        assert expand_random_spawns(scenario.spawns, scenario.intersections, 60.0, 1) == ()

    @pytest.mark.parametrize(
        "pair", [[0.5, 0.8, 99.0], [0.5], 0.5], ids=["three_numbers", "one_number", "scalar"]
    )
    def test_gain_pair_needs_exactly_two_numbers(self, pair):
        with pytest.raises(
            ConfigError, match=r"^control\.gain_table\.entries\[0\]\[0\]\[0\]: expected a list of 2$"
        ):
            parse_scenario({"control": {"gain_table": {"entries": [[[pair]]]}}})
