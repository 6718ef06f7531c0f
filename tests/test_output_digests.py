"""Byte-identical outputs of the shipped scenarios.

The sha256 of ``trajectory.csv`` followed by ``metrics.csv`` from
``cavsim run`` is pinned for both shipped scenarios. A change that is meant
to be a pure speed-up must keep these digests; a change that moves a
simulated result must update them and say why.

The values were recorded before the horizon loops and the plant switched
from ``min(max(...))`` clamps to ``if``/``elif`` branches, with Python 3.11
and numpy 2.4. Another Python or numpy build may format or round
differently; the digests are for that toolchain.
"""

import hashlib
from pathlib import Path

import pytest

from cavsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

DIGESTS = {
    "paper_stress": "5119b2d360731606d83a23a4d8537dab4e27f991712331c3910fe3225ef2ea60",
    "nominal_intersection": "c477c0a40cd2237685060c74dfa8f63fc8a8589a61b1c66168f1f43b9ddc7296",
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
