"""The streaming CSV writer against the csv.writer form it replaced.

``reference_write`` is the writer the CLI used before rows were formatted
through cached %-templates: ``csv.writer`` over ``_fmt`` strings. The new
writer must give the same bytes for any row of the types the simulator
writes (float, int, bool, None and str) and must refuse any other type.
"""

import csv
import math
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavsim.cli import _write_csv, main


def _fmt(value) -> str:
    """Fixed 6-decimal formatting, as the CLI wrote fields before templates."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def reference_write(path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def both_outputs(columns, rows) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        ref, new = Path(tmp) / "ref.csv", Path(tmp) / "new.csv"
        reference_write(ref, columns, rows)
        _write_csv(new, columns, rows)
        return ref.read_bytes(), new.read_bytes()


SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308]
floats = st.sampled_from(SPECIAL_FLOATS) | st.floats()
texts = st.text(
    alphabet=st.sampled_from([",", '"', "\r", "\n", "%", " ", "a"])
    | st.characters(exclude_categories=("Cs",)),
    max_size=8,
)
values = st.one_of(floats, st.none(), st.integers(), st.booleans(), texts)


@st.composite
def tables(draw):
    width = draw(st.integers(min_value=2, max_value=6))
    row = st.lists(values, min_size=width, max_size=width).map(tuple)
    return draw(st.lists(texts, min_size=width, max_size=width)), draw(st.lists(row, max_size=30))


@settings(max_examples=400, deadline=None)
@given(table=tables())
def test_matches_csv_writer_byte_for_byte(table):
    columns, rows = table
    ref, new = both_outputs(columns, rows)
    assert new == ref


@settings(max_examples=100, deadline=None)
@given(
    legs=st.lists(texts, min_size=1, max_size=4),
    numbers=st.lists(st.tuples(floats, floats), min_size=1, max_size=40),
)
def test_repeated_row_shapes_reuse_templates_exactly(legs, numbers):
    # Trajectory-shaped rows: the same types row after row, a few strings,
    # and an optional field that is sometimes empty.
    rows = [
        (t, i, legs[i % len(legs)], x, None if i % 3 else x, True, i % 2)
        for i, (t, x) in enumerate(numbers)
    ]
    ref, new = both_outputs(("t", "id", "leg", "x", "opt", "flag", "n"), rows)
    assert new == ref


@pytest.mark.parametrize("value", [np.float64(1.5), np.int64(3), 1j, b"a", (1.0,)])
def test_other_field_types_raise(tmp_path, value):
    with pytest.raises(TypeError, match=type(value).__name__):
        _write_csv(tmp_path / "out.csv", ("a", "b"), [(1.0, 2), (value, 4.5)])


@pytest.mark.parametrize("columns, row", [(("a", "b"), (1.0,)), (("a", "b"), (1.0, 2, 3)), (("a",), (None,))])
def test_row_width_must_match_at_least_two_columns(tmp_path, columns, row):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "out.csv", columns, [row])


def test_generator_rows_are_streamed():
    produced = []

    def rows():
        for i in range(3):
            produced.append(i)
            yield (float(i), i)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        _write_csv(path, ("x", "i"), rows())
        assert path.read_bytes() == b"x,i\r\n0.000000,0\r\n1.000000,1\r\n2.000000,2\r\n"
    assert produced == [0, 1, 2]


LEG_CONFIG = textwrap.dedent(
    """
    engine: {sim_step_s: 0.1, duration_s: 3.0, seed: 5}
    channel: {delay_mean_s: 0.0, delay_std_s: 0.0, loss_prob: 0.0}
    intersections:
      - id: x
        legs:
          - id: "a,b"
            approach_length_m: 300.0
          - id: 'q"x'
            approach_length_m: 300.0
        control_zone_radius_m: 250.0
    spawns:
      events:
        - {time_s: 0.0, leg: "a,b", speed_mps: 12.0, start_offset_m: 20.0}
        - {time_s: 0.0, leg: 'q"x', speed_mps: 11.0, start_offset_m: 10.0}
    """
)


def test_leg_ids_with_delimiter_and_quote_round_trip(tmp_path):
    cfg = tmp_path / "legs.yaml"
    cfg.write_text(LEG_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "trajectory.csv", newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    assert records
    assert {r["leg"] for r in records} == {"a,b", 'q"x'}
    assert all(len(r) == 9 and None not in r for r in records)
