"""Byte-identical outputs of the shipped scenarios.

The sha256 of ``trajectory.csv`` followed by ``metrics.csv`` from
``cavsim run`` is pinned for both shipped scenarios. A change that is meant
to be a pure speed-up must keep these digests; a change that moves a
simulated result must update them and say why.

The values were last moved when vehicles that have crossed and cleared the
conflict zone started to be retired: ``trajectory.csv`` now ends each such
vehicle's rows at its retirement, and ``metrics.csv`` is unchanged. The
digests from before, with every vehicle simulated to the end of the run
(``5119b2d3...`` and ``c477c0a4...``), are still asserted on the engine with
retirement switched off in ``test_retirement.py``.

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
    "paper_stress": "c4777d459c4992ed60462e70e661145e1dfc396d579b2b4441e077282fe610e2",
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
