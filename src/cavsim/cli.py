"""Command-line front end.

Subcommands:

    cavsim run      --config FILE --out DIR [--seed N]
    cavsim sweep    --config FILE --steps 0.01,0.1,0.5,1.0 --out DIR [--seed N]
    cavsim validate --config FILE

`run` writes trajectory.csv, metrics.csv, and summary.json; `sweep` writes
one subdirectory per prediction step plus sweep.csv. Exit codes: 0 success,
2 configuration error, 3 numeric fault during simulation. The CAVSIM_LOG
environment variable (off|info|debug) controls diagnostic verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .config import load_scenario, normalized_dump
from .engine import (
    METRICS_COLUMNS,
    TRAJECTORY_COLUMNS,
    RunResult,
    run,
    sweep_prediction_step,
)
from .errors import ConfigError, NumericFault

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

SWEEP_COLUMNS = (
    "prediction_step_s",
    "max_abs_pos_err_m",
    "rms_pos_err_m",
    "mean_step_wallclock_ms",
)


def _setup_logging() -> None:
    level_name = os.environ.get("CAVSIM_LOG", "off").lower()
    if level_name == "debug":
        level = logging.DEBUG
    elif level_name == "info":
        level = logging.INFO
    else:
        level = logging.CRITICAL + 10
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


# Per-type %-conversions: floats with six fixed decimals, ints and bools as
# str() writes them, None as an empty field (``%.0s`` keeps no character of
# "None"), and str fields as given, after ``_quote``.
_CONVERSIONS = {float: "%.6f", int: "%s", bool: "%s", type(None): "%.0s", str: "%s"}


def _quote(text: str) -> str:
    """csv.writer's QUOTE_MINIMAL form of one field."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _row_form(types: tuple, width: int) -> tuple[str, tuple[int, ...]]:
    """(%-template, positions of the str fields) for rows of these field types.

    A row must have one field per column and only the types in
    ``_CONVERSIONS``; anything else raises rather than being written in
    some other form.
    """
    if len(types) != width:
        raise ValueError(f"row has {len(types)} fields for {width} columns")
    try:
        template = ",".join([_CONVERSIONS[t] for t in types]) + "\r\n"
    except KeyError as exc:
        raise TypeError(f"cannot write a {exc.args[0].__name__} to a CSV field") from None
    return template, tuple(i for i, t in enumerate(types) if t is str)


def _write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV: comma-separated, CRLF line ends.

    Each row is formatted by a %-template cached per tuple of its field
    types and written as it is produced, so the file is never held in
    memory. At least two columns are required: a one-column row whose field
    is empty would be a blank line, which CSV readers skip.
    """
    if len(columns) < 2:
        raise ValueError("a CSV needs at least two columns")
    width = len(columns)
    forms: dict = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write = fh.write
        write(",".join(map(_quote, columns)) + "\r\n")
        for row in rows:
            types = tuple(map(type, row))
            try:
                template, strings = forms[types]
            except KeyError:
                template, strings = forms[types] = _row_form(types, width)
            if strings:
                row = list(row)
                for i in strings:
                    row[i] = _quote(row[i])
            write(template % tuple(row))


def write_trajectory_csv(path: Path, result: RunResult) -> None:
    _write_csv(path, TRAJECTORY_COLUMNS, result.trajectory)


def write_metrics_csv(path: Path, result: RunResult) -> None:
    _write_csv(path, METRICS_COLUMNS, result.metrics)


def write_summary_json(path: Path, result: RunResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_outputs(out_dir: Path, result: RunResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out_dir / "trajectory.csv", result)
    write_metrics_csv(out_dir / "metrics.csv", result)
    write_summary_json(out_dir / "summary.json", result)


def cmd_run(args: argparse.Namespace) -> int:
    result = run(load_scenario(args.config, seed_override=args.seed))
    _write_run_outputs(Path(args.out), result)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        steps = [float(s) for s in args.steps.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"invalid --steps list: {args.steps!r}") from None
    if not steps:
        raise ConfigError("empty --steps list")
    if not all(0 < step < float("inf") for step in steps):
        raise ConfigError(f"invalid --steps list: {args.steps!r}: steps must be finite and > 0")
    # Steps are compared as their run directories' names, so no two share one.
    names = [f"dt_{step:.6f}" for step in steps]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"invalid --steps list: {args.steps!r}: step {steps[i]} repeated")
    scenario = load_scenario(args.config, seed_override=args.seed)
    rows, results = sweep_prediction_step(scenario, steps)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, step in zip(names, steps):
        _write_run_outputs(out_dir / name, results[step])
    _write_csv(
        out_dir / "sweep.csv",
        SWEEP_COLUMNS,
        (tuple(row[col] for col in SWEEP_COLUMNS) for row in rows),
    )
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    print(normalized_dump(load_scenario(args.config)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavsim",
        description="Deterministic connected-vehicle intersection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run and write outputs")
    p_run.add_argument("--config", required=True, help="scenario file (YAML)")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run once per prediction step")
    p_sweep.add_argument("--config", required=True, help="scenario file (YAML)")
    p_sweep.add_argument("--steps", required=True, help="comma-separated seconds")
    p_sweep.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--config", required=True, help="scenario file (YAML)")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
