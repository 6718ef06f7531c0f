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
        "trajectory.csv": "4585796da0573e18a04fd3fe563ef1a822f955ae000e978c5378897ba4cf07aa",
        "metrics.csv": "dcfffe5ebed8084895ad42a0d7c2f29f098d1946f2e4b288862a574aa688be95",
        "summary.json": "9c9568707c649c466be474195a5365d37b1d8249d678aaba942e1ae7d7e9081c",
    },
    "dt_1.000000": {
        "trajectory.csv": "60dd92f6981b14c1b02446ef79075b6ec8774147f1a98dc2a7bb4fc018bc051e",
        "metrics.csv": "82f084d0eaae330b27edd69a57914f338be79b7c08bfa4fbd663f08dc120131c",
        "summary.json": "42a36021097bbb71314bd279be757b2652fe946964133493bc9dd1281b98112a",
    },
}
SWEEP_DIGEST = "81916f02f476a72fcc1ea885f7d726eb0e6da8734fbeff8eaf744182df9f8bd7"


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
