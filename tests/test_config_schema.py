"""The scenario schema: resolved configs, documented defaults, type errors.

The golden files under ``tests/data`` hold ``cavsim validate`` output for
the shipped scenarios, for ``every_section.yaml`` (every section and every
key that can be set together, so all but ``control.k``/``control.gamma``,
which a gain table excludes) and for an empty file (every default), as
printed before the config dataclasses became the schema.
"""

import copy
import dataclasses
import re
import typing
from pathlib import Path

import pytest
import yaml

from cavsim.cli import main
from cavsim.config import parse_scenario
from cavsim.control import ControlGains
from cavsim.engine import DEFAULT_GAINS, ControlConfig, ScenarioConfig
from cavsim.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

VALIDATE_CASES = {
    "nominal_intersection": ROOT / "scenarios" / "nominal_intersection.yaml",
    "paper_stress": ROOT / "scenarios" / "paper_stress.yaml",
    "every_section": DATA / "every_section.yaml",
    "defaults": None,
}


@pytest.mark.parametrize("name", VALIDATE_CASES)
def test_validate_output_matches_golden(name, tmp_path, capsys):
    config = VALIDATE_CASES[name]
    if config is None:
        config = tmp_path / "empty.yaml"
        config.write_text("", encoding="utf-8")
    assert main(["validate", "--config", str(config)]) == 0
    golden = (DATA / f"validate_{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


# The smallest scenario document that holds the section of each row of the
# README "Scenario files" table.
SECTION_DOCS = {
    "engine": {"engine": {}},
    "channel": {"channel": {}},
    "channel.burst": {"channel": {"burst": {}}},
    "estimator": {"estimator": {}},
    "control": {"control": {}},
    "control.gain_table": {"control": {"gain_table": {"entries": [[[[0.5, 0.8]]]]}}},
    "dynamics": {"dynamics": {}},
    "intersections[i]": {"intersections": [{"legs": [{}]}]},
    "intersections[i].legs[j]": {"intersections": [{"legs": [{}]}]},
    "spawns": {"spawns": {}},
    "spawns.events[i]": {"spawns": {"events": [{"leg": "a"}]}},
    "spawns.random": {"spawns": {"random": {}}},
}
# A note that starts with one of these is a default value, written in YAML.
LITERAL = re.compile(r"-?\d+(\.\d+)?|true|false|null|\[[^\]]*\]")


def readme_rows() -> dict[str, list[tuple[str, str]]]:
    """Section -> [(key, note in parentheses)] from the README table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("## Scenario files", 1)[1].split("\n\n| section | keys |", 1)[1]
    rows = {}
    for line in table.split("\n\n", 1)[0].splitlines()[2:]:
        _, section, keys, _ = line.split("|")
        rows[section.strip().strip("`")] = re.findall(r"`(\w+)` \(([^)]*)\)", keys)
    return rows


def doc_path(section: str) -> list:
    """``intersections[i].legs[j]`` -> ["intersections", 0, "legs", 0]."""
    path = []
    for part in section.split("."):
        name, indexed, _ = part.partition("[")
        path += [name, 0] if indexed else [name]
    return path


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def schema_keys(obj) -> set[str]:
    keys = {f.metadata["key"] for f in dataclasses.fields(obj) if "key" in f.metadata}
    return keys | set(DEFAULT_GAINS) if isinstance(obj, ControlConfig) else keys


def resolved(scenario: ScenarioConfig, path):
    """The parsed object at a document path, found through the field keys."""
    obj = scenario
    for key in path:
        if isinstance(key, int):
            obj = obj[key]
        else:
            (f,) = [f for f in dataclasses.fields(obj) if f.metadata.get("key") == key]
            obj = getattr(obj, f.name)
    return obj


def test_readme_table_lists_every_key():
    rows = readme_rows()
    assert set(rows) == set(SECTION_DOCS)
    top = {section.split(".")[0].split("[")[0] for section in rows}
    assert top == schema_keys(ScenarioConfig)
    for section, entries in rows.items():
        obj = resolved(parse_scenario(SECTION_DOCS[section]), doc_path(section))
        keys = [key for key, _ in entries]
        assert len(keys) == len(set(keys)) and set(keys) == schema_keys(obj), section


# The types that own the bounds of a section's keys where the section's own
# type does not declare them.
BOUND_OWNERS = {ControlConfig: (ControlGains,)}


BOUND_SYMBOLS = {"gt": ">", "ge": ">=", "le": "<="}


def declared_bounds():
    """(README section, file key, [(symbol, limit), ...]) for every key read
    from a scenario file whose field declares bounds."""
    for section, doc in SECTION_DOCS.items():
        obj = resolved(parse_scenario(doc), doc_path(section))
        keys = schema_keys(obj)
        for owner in (type(obj), *BOUND_OWNERS.get(type(obj), ())):
            for f in dataclasses.fields(owner):
                key = f.metadata.get("key", f.name)
                bounds = [(op, f.metadata[b]) for b, op in BOUND_SYMBOLS.items() if b in f.metadata]
                if bounds and key in keys:
                    yield section, key, bounds


def test_readme_states_each_declared_bound():
    # A note's part that starts with a comparison is the key's bound, written
    # as the error message writes it: "> 0", or ">= 0 and <= 1".
    stated = {
        (section, key): part.strip()
        for section, entries in readme_rows().items()
        for key, note in entries
        for part in note.split(";")[1:]
        if part.strip().startswith((">", "<"))
    }
    declared = {
        (section, key): " and ".join(f"{op} {limit}" for op, limit in bounds)
        for section, key, bounds in declared_bounds()
    }
    assert stated == declared


def documented_defaults():
    for section, entries in readme_rows().items():
        for key, note in entries:
            literal = note.split(";")[0].strip()
            if LITERAL.fullmatch(literal):
                yield pytest.param(section, key, literal, id=f"{section}.{key}")


@pytest.mark.parametrize("section, key, literal", documented_defaults())
def test_readme_default_is_the_resolved_default(section, key, literal):
    doc = SECTION_DOCS[section]
    explicit = copy.deepcopy(doc)
    node_at(explicit, doc_path(section))[key] = yaml.safe_load(literal)
    assert parse_scenario(explicit) == parse_scenario(doc)


def test_every_literal_default_is_checked():
    # Guards the note parsing: most keys carry a literal default.
    assert len(list(documented_defaults())) >= 40


NULL_CASES = [
    ({"spawns": {"random": {"rate_per_leg": 0.2}}}, ("spawns", "random", "max_vehicles")),
    ({"spawns": {"min_spawn_gap_m": 5.0}}, ("spawns", "random")),
    ({"channel": {"loss_prob": 0.2}}, ("channel", "burst")),
    ({"channel": {"loss_prob": 0.2}}, ("channel", "impaired_vehicles")),
    ({"control": {"k": 0.4}}, ("control", "gain_table")),
]


@pytest.mark.parametrize("doc, path", NULL_CASES, ids=[".".join(p) for _, p in NULL_CASES])
def test_null_means_absent(doc, path):
    with_null = copy.deepcopy(doc)
    node_at(with_null, path[:-1])[path[-1]] = None
    assert parse_scenario(with_null) == parse_scenario(doc)


def nominal_with(tmp_path, edits) -> Path:
    doc = yaml.safe_load(
        (ROOT / "scenarios" / "nominal_intersection.yaml").read_text(encoding="utf-8")
    )
    for path, value in edits.items():
        node_at(doc, path[:-1])[path[-1]] = value
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return config


LEG_EVENT = {"leg": "a", "time_s": 1.0}
# (id, edits to nominal_intersection.yaml, expected message)
TYPE_ERRORS = [
    ("implicit_solve_string", {("estimator", "implicit_solve"): "false"},
     "estimator.implicit_solve: expected true or false, got 'false'"),
    ("implicit_solve_number", {("estimator", "implicit_solve"): 0.5},
     "estimator.implicit_solve: expected true or false, got 0.5"),
    ("implicit_solve_list", {("estimator", "implicit_solve"): [1]},
     "estimator.implicit_solve: expected true or false, got [1]"),
    ("intersection_id_list", {("intersections", 0, "id"): [1, 2]},
     "intersections[0].id: expected a string, got list"),
    ("leg_id_mapping", {("intersections", 0, "legs", 1, "id"): {"b": 1}},
     "intersections[0].legs[1].id: expected a string, got dict"),
    ("event_leg_list", {("spawns", "events"): [{**LEG_EVENT, "leg": ["a"]}]},
     "spawns.events[0].leg: expected a string, got list"),
    ("event_intersection_mapping", {("spawns", "events"): [{**LEG_EVENT, "intersection": {"x": 0}}]},
     "spawns.events[0].intersection: expected a string, got dict"),
    ("events_string", {("spawns", "events"): "abc"}, "spawns.events: expected a list"),
    ("events_mapping", {("spawns", "events"): LEG_EVENT}, "spawns.events: expected a list"),
]


@pytest.mark.parametrize("case, edits, message", TYPE_ERRORS, ids=[c for c, _, _ in TYPE_ERRORS])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_type_error_exits_2_naming_the_path(tmp_path, capsys, case, edits, message, command):
    argv = [command, "--config", str(nominal_with(tmp_path, edits))]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numeric_ids_read_as_strings():
    scenario = parse_scenario(
        {
            "intersections": [{"id": 1, "legs": [{"id": 2}, {"id": 2.5}]}],
            "spawns": {"events": [{"leg": 2}]},
        }
    )
    assert scenario.intersections[0].id == "1"
    assert [leg.id for leg in scenario.intersections[0].legs] == ["2", "2.5"]
    assert scenario.spawns.events[0].intersection == "1"
    assert scenario.spawns.events[0].leg == "2"


@pytest.mark.parametrize("value", [True, False])
def test_bool_key_reads_yaml_bools(value):
    assert parse_scenario({"estimator": {"implicit_solve": value}}).estimator.implicit_solve is value


def test_required_keys_are_named():
    with pytest.raises(ConfigError, match=r"^spawns\.events\[0\]\.leg: required key missing$"):
        parse_scenario({"spawns": {"events": [{"time_s": 1.0}]}})
    with pytest.raises(ConfigError, match=r"^control\.gain_table\.entries: required key missing$"):
        parse_scenario({"control": {"gain_table": {"v_i_edges": [0.0]}}})


def test_unkeyed_field_is_not_a_file_key():
    # ChannelModel.seed comes from engine.seed, never from the channel section.
    with pytest.raises(ConfigError, match=r"^channel\.seed: unknown key$"):
        parse_scenario({"channel": {"seed": 3}})


def list_keys(cls=ScenarioConfig, path=()):
    """Document path of every keyed field annotated ``tuple[...]``, walking
    nested sections and the first item of each list of sections."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if "key" not in f.metadata:
            continue
        kind = hints[f.name]
        if type(None) in typing.get_args(kind):
            kind = typing.get_args(kind)[0]
        here = (*path, f.metadata["key"])
        if typing.get_origin(kind) is tuple:
            yield here
            kind, here = typing.get_args(kind)[0], (*here, 0)
        if dataclasses.is_dataclass(kind):
            yield from list_keys(kind, here)


def text_path(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


def test_list_keys_walk_reaches_every_section():
    # Guards the walk: the channel, gain-table, intersection, leg and spawn lists.
    assert len(list(list_keys())) >= 9


@pytest.mark.parametrize("path", list_keys(), ids=text_path)
@pytest.mark.parametrize("value", [{"a": 1}, "a", 3], ids=["mapping", "string", "number"])
def test_list_key_rejects_a_non_list_at_its_path(path, value):
    # every_section.yaml sets every key, so each list-valued key is present.
    doc = yaml.safe_load((DATA / "every_section.yaml").read_text(encoding="utf-8"))
    node_at(doc, path[:-1])[path[-1]] = value
    with pytest.raises(ConfigError, match=rf"^{re.escape(text_path(path))}: expected a list$"):
        parse_scenario(doc)


def _loader_documents():
    """Every shipped scenario, ``every_section.yaml`` and the benchmark's
    generated workload documents (explicit spawn lists of up to 150 events)."""
    yield from (path.read_text(encoding="utf-8") for path in VALIDATE_CASES.values() if path)
    import importlib.util

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in ("stress_fine", "wide_chain", "long_traffic"):
        yield from workloads.documents(name, 1)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_agree(tmp_path, monkeypatch):
    import cavsim.config as config_module

    assert config_module._YAML_LOADER is yaml.CSafeLoader
    path = tmp_path / "scenario.yaml"
    documents = 0
    for text in _loader_documents():
        path.write_text(text, encoding="utf-8")
        loaded = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
            loaded.append(config_module.load_scenario(str(path)))
        assert loaded[0] == loaded[1]
        documents += 1
    assert documents == 7
    # Bad YAML is a ConfigError under either parser; only the parser's own
    # wording after the prefix differs.
    path.write_text("engine: [\n", encoding="utf-8")
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
        with pytest.raises(ConfigError, match="^config file is not valid YAML: "):
            config_module.load_scenario(str(path))
