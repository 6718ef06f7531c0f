"""The package surface: logging behaviour and the names the benchmark rebinds."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cavsim

from test_cli import VALID_CONFIG

REPO = Path(__file__).resolve().parents[1]
SRC = Path(cavsim.__file__).resolve().parents[1]


def _python(code: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("CAVSIM_LOG", None)
    env["PYTHONPATH"] = str(SRC)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )


def test_library_call_that_clamps_writes_nothing_to_stderr():
    code = textwrap.dedent(
        """
        import cavsim
        table = cavsim.GainTable.single(0.5, 0.8)
        gains = cavsim.lookup_gains(table, 10.0, 10.0, -0.5)
        print(gains.k)
        """
    )
    proc = _python(code)
    assert proc.stdout.strip() == "0.5"
    assert proc.stderr == ""


def test_cli_logs_when_asked(tmp_path):
    # A lowest headway edge above the spawn gap makes the follower's gain
    # lookup clamp, which logs a warning. The table replaces the k/gamma
    # pair, which may not sit next to it.
    cfg = VALID_CONFIG.replace(
        "  k: 0.5\n  gamma: 0.8\n  time_gap_s: 1.5",
        "  time_gap_s: 1.5\n"
        "  gain_table:\n"
        "    v_i_edges: [0.0]\n"
        "    v_j_edges: [0.0]\n"
        "    headway_edges: [50.0]\n"
        "    entries: [[[[0.5, 0.8]]]]",
    )
    path = tmp_path / "scenario.yaml"
    path.write_text(cfg)
    code = (
        "import sys; from cavsim.cli import main; "
        f"sys.exit(main(['run', '--config', {str(path)!r}, '--out', {str(tmp_path / 'o')!r}]))"
    )
    assert "gain lookup" not in _python(code).stderr
    assert "gain lookup" in _python(code, {"CAVSIM_LOG": "info"}).stderr


def test_benchmark_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.check_targets()
