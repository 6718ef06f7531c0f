"""One cold start of cavsim, timed by the benchmark from outside.

    python3 perfbench/setup_probe.py <src dir> <scenario.yaml>

Imports cavsim, loads and validates the scenario and constructs the engine,
which is everything `cavsim run` does before its first simulated step. It
then prints one line, "ready", and exits. The benchmark measures the time
from launching this process to reading that line.
"""

import logging
import sys

sys.path.insert(0, sys.argv[1])

from cavsim import config, engine  # noqa: E402

logging.getLogger("cavsim").addHandler(logging.NullHandler())
engine.SimulationEngine(config.load_scenario(sys.argv[2]))
sys.stdout.write("ready\n")
sys.stdout.flush()
