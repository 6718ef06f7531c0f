"""Byte-identical output of ``cavsim sweep``.

``test_output_digests.py`` and ``test_path_digests.py`` pin single runs;
this file pins the sweep subcommand end to end: ``paper_stress`` at
prediction steps 0.1 s and 1.0 s, run through ``cli.main``. Each
``dt_<s>`` directory's ``trajectory.csv`` and ``metrics.csv`` are pinned
as written, and its ``summary.json`` without ``mean_step_wallclock_ms``,
the one wall-clock field, re-serialised as ``write_summary_json`` writes
it. ``sweep.csv`` is pinned without its ``mean_step_wallclock_ms`` column.

The values were recorded with Python 3.11 and numpy 2.4, and are for that
toolchain.
"""

import hashlib
import json
from pathlib import Path

from cavsim import cli

ROOT = Path(__file__).resolve().parent.parent

WALL_CLOCK = "mean_step_wallclock_ms"

# directory: {file: sha256}
RUN_DIGESTS = {
    "dt_0.100000": {
        "trajectory.csv": "67d27ba9f4d50600d650bcbf752e4eff8124f10a6009f78daa4d2ebca7f8ff67",
        "metrics.csv": "9174c51fc34d3560c543ae11e2723ea12f7eac664cda5fd549b167fd41f9a455",
        "summary.json": "6e33521df9e9f5554a2375196bea5ceca7bf0a7181e3c90eef81f0654c234bc9",
    },
    "dt_1.000000": {
        "trajectory.csv": "832285cdc7272981abc4c22dd63b9d606858057beefc60d8749a53357f178342",
        "metrics.csv": "8dd2cec7fb278d4f6b0d987821630fb2d5fa2b5bbee9c913d9f36f36017edc63",
        "summary.json": "789578d04a3b34497bd9fd79b03009efdb27d868fd10e6756b5dbf88d1cbcd4d",
    },
}
SWEEP_DIGEST = "c63483953448f4d145b485c3c4762d2fc348a071755b5d12a994dc2354aa130c"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _summary_without_wall_clock(path: Path) -> bytes:
    summary = json.loads(path.read_text(encoding="utf-8"))
    del summary[WALL_CLOCK]
    return (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _sweep_without_wall_clock(path: Path) -> bytes:
    """``sweep.csv`` with its wall-clock column cut; every field is numeric
    or a plain header name, so splitting on commas is exact."""
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    drop = header.index(WALL_CLOCK)
    kept = []
    for line in lines[:-1]:
        fields = line.split(",")
        assert len(fields) == len(header)
        kept.append(",".join(fields[:drop] + fields[drop + 1 :]))
    return "".join(line + "\r\n" for line in kept).encode("utf-8")


def test_sweep_outputs_match_pinned_digests(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main(
        [
            "sweep",
            "--config",
            str(ROOT / "scenarios" / "paper_stress.yaml"),
            "--steps",
            "0.1,1.0",
            "--out",
            str(out),
        ]
    )
    assert code == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [*sorted(RUN_DIGESTS), "sweep.csv"]
    digests = {
        run_dir: {
            "trajectory.csv": _sha256((out / run_dir / "trajectory.csv").read_bytes()),
            "metrics.csv": _sha256((out / run_dir / "metrics.csv").read_bytes()),
            "summary.json": _sha256(_summary_without_wall_clock(out / run_dir / "summary.json")),
        }
        for run_dir in RUN_DIGESTS
    }
    assert digests == RUN_DIGESTS
    assert _sha256(_sweep_without_wall_clock(out / "sweep.csv")) == SWEEP_DIGEST
