"""A fixed reference program that tracks the host's current speed.

On a shared host the speed of a virtual CPU drifts by tens of percent over
minutes, which swamps any bound on raw host time. The benchmark therefore
times this program between reps and scales each rep's host times by
``REFERENCE_S / reference time``: the times it reports are what the rep
would have taken at the speed the host had when the baseline was measured.
Raw times are printed beside them.

The program imitates the instruction mix of cavsim's hot paths (a saturated
horizon recursion, frozen dataclass construction with validation, dict
iteration, fixed-decimal CSV formatting, small numpy round trips) but
shares no code with cavsim, so a change to cavsim cannot move it. It must
never change: changing it rescales every reported time.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

# Median time of one reference() call on the baseline host (see baseline.json).
REFERENCE_S = 0.040
CALLS = 3


@dataclass(frozen=True)
class _State:
    position: float
    speed: float
    acceleration: float
    length: float
    leg: str

    def __post_init__(self) -> None:
        if self.speed < 0 or self.length <= 0:
            raise ValueError("bad state")


def _horizon(v: float, r: float, target: list[float], n: int) -> list[float]:
    out = []
    for idx in range(n):
        spacing = r - target[idx] + 5.0 + v * 1.5
        accel = -0.5 * (spacing + 0.8 * (v - 13.0))
        applied = min(max(accel, -5.0), 3.0)
        r = r + v * 0.01
        v = min(max(v + applied * 0.01, 0.0), 20.0)
        out.append(v)
    return out


def reference() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    target = (np.arange(400, dtype=float) * 0.13 + 40.0).tolist()
    total = 0
    for k in range(40):
        total += len(_horizon(12.0 + 0.1 * k, 0.0, target, 400))
    states = {i: _State(float(i), 10.0, 0.0, 5.0, "abc"[i % 3]) for i in range(200)}
    for _ in range(60):
        states = {
            vid: _State(s.position + s.speed * 0.1, s.speed, 0.0, s.length, s.leg)
            for vid, s in states.items()
        }
    buf = io.StringIO()
    writer = csv.writer(buf)
    for vid, s in sorted(states.items()) * 8:
        writer.writerow([f"{s.position:.6f}", vid, s.leg, f"{s.speed:.6f}", f"{math.sqrt(s.position):.6f}"])
    return total + len(buf.getvalue())


def measure() -> float:
    """Median seconds of a few reference() calls."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return median(times)
