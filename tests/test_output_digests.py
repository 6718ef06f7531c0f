"""Byte-identical outputs of the shipped scenarios.

The sha256 of ``trajectory.csv`` followed by ``metrics.csv`` from
``cavsim run`` is pinned for both shipped scenarios. A change that is meant
to be a pure speed-up must keep these digests; a change that moves a
simulated result must update them and say why.

``paper_stress`` was last moved when a follower's own horizon began
reading its target's received horizon at the shifted times
``now + (k-1)*dt``, as the controller view reads it, in place of holding or
extrapolating one sample per transition. It was moved before that when the
controller view began reading the target's broadcast horizon for a beacon
at least one prediction step old, in place of extrapolating the beacon's
ground truth. Both were moved
before that when vehicles that have crossed and cleared the conflict zone
started to be retired: ``trajectory.csv`` now ends each such vehicle's rows
at its retirement, and ``metrics.csv`` is unchanged. The digests with every
vehicle simulated to the end of the run (``b2a3c4e6...`` and
``c477c0a4...``) are asserted on the engine with retirement switched off in
``test_retirement.py``.

The values were recorded with Python 3.11 and numpy 2.4. Another Python or
numpy build may format or round differently; the digests are for that
toolchain.
"""

import hashlib
from pathlib import Path

import pytest

from cavsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

DIGESTS = {
    "paper_stress": "a6bbd84d924b104cc73cdf81454d5516655b6839188603081031c04939cc657c",
    "nominal_intersection": "775f825ab8629ece5e8869f887c5342f2f3732ddc4a6df986c3ca0760b3a7f8d",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_run_outputs_match_pinned_digest(name, tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", str(SCENARIOS / f"{name}.yaml"), "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256()
    for csv_name in ("trajectory.csv", "metrics.csv"):
        digest.update((out / csv_name).read_bytes())
    assert digest.hexdigest() == DIGESTS[name]
