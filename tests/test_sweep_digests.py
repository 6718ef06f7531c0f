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
        "trajectory.csv": "3e0f051226f0a91f91d4e228cd1bdfbc4f104cce0e96aaefab49af31fb3c9c93",
        "metrics.csv": "4b8e1a7e30ced7436ceed2afdfce28da676cd27f02cf740f945be38030638493",
        "summary.json": "9d827cdf1fa9ef364de482cd9d8a2054478b4959718b65f6818a3e9c9a509b99",
    },
    "dt_1.000000": {
        "trajectory.csv": "e6aa5f1499b60a04dc88e799cb0143002b076c90f45a83efc3ebbf1d4eeafdd4",
        "metrics.csv": "a34d675ba1826ba71fdb3b88867126cfd128185375d70f5047f4ba58f93aaa22",
        "summary.json": "52bff609cb6d895bce4ee6f68f506679c862b325f73b3a7401c44113d136ec25",
    },
}
SWEEP_DIGEST = "1c6e529c3efb5bbbc8b54215e79861e640fa2a99615cc6b1141945a409628230"


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
