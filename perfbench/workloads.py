"""Scenario documents for the benchmark workloads, built from a seed.

Each workload turns the benchmark's ``--seed`` into one or more YAML
scenario documents. cavsim sees only those documents, read through
``config.load_scenario`` exactly as ``cavsim run --config`` reads a file.
The same seed always gives the same documents.

The amount of work per workload is meant to be independent of the seed, so
that run-to-run spread measures the host and not the inputs. That is why
``long_traffic`` draws its arrivals here, one jittered arrival per time slot,
instead of using the scenario's Poisson ``spawns.random`` section: with 150
Poisson arrivals the simulated vehicle-steps differ by about 9% (quartile
spread over median) from seed to seed.
"""

from __future__ import annotations

import hashlib
import random

import yaml

# Geometry of scenarios/paper_stress.yaml: five vehicles on three legs.
_STRESS_LEGS = {"a": 320.0, "b": 300.0, "c": 340.0}
_STRESS_EVENTS = (
    ("a", 170.0, 15.0),
    ("b", 117.0, 8.0),
    ("c", 127.0, 16.0),
    ("a", 79.0, 7.5),
    ("c", 71.0, 16.0),
)
STRESS_SEEDS_PER_REP = 2
# The first 14 s of the 30 s scenario: every vehicle has crossed by about
# 16 s, after which a step costs 0.05 ms against 1.8-3.1 ms before. Keeping
# that idle tail would put the step-time median in the gap between the two.
STRESS_DURATION_S = 14.0

CHAIN_VEHICLES = 150
CHAIN_DURATION_S = 3.0

TRAFFIC_VEHICLES = 90
TRAFFIC_DURATION_S = 360.0
TRAFFIC_ARRIVALS_END_S = 300.0


def derive_seed(workload: str, seed: int) -> int:
    """Scenario seed for ``workload`` from the benchmark seed (any integer)."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _stress(seed: int, prediction_step: float) -> dict:
    return {
        "engine": {"sim_step_s": 0.02, "duration_s": STRESS_DURATION_S, "seed": seed},
        "channel": {
            "delay_mean_s": 0.040,
            "delay_std_s": 0.0259,
            "loss_prob": 0.1,
            "nlos_windows": [[4.0, 6.0], [6.0, 8.0]],
            "impaired_vehicles": [2],
        },
        "estimator": {
            "prediction_step_s": prediction_step,
            "horizon_s": 5.0,
            "v_target": 15.0,
        },
        "control": {"k": 0.5, "gamma": 0.8, "time_gap_s": 1.5},
        "intersections": [
            {
                "id": "x",
                "legs": [
                    {"id": leg, "approach_length_m": length}
                    for leg, length in _STRESS_LEGS.items()
                ],
                "control_zone_radius_m": 290.0,
                "conflict_zone_length_m": 12.0,
            }
        ],
        "spawns": {
            "events": [
                {
                    "time_s": 0.0,
                    "leg": leg,
                    "speed_mps": speed,
                    "length_m": 5.0,
                    "start_offset_m": offset,
                }
                for leg, offset, speed in _STRESS_EVENTS
            ]
        },
    }


def stress_fine(seed: int) -> list[dict]:
    """paper_stress at a 0.01 s prediction step over consecutive seeds."""
    base = derive_seed("stress_fine", seed)
    return [_stress(base + i, 0.01) for i in range(STRESS_SEEDS_PER_REP)]


def fig8_sweep(seed: int) -> list[tuple[float, dict]]:
    """The first stress_fine scenario at the Fig. 8 prediction steps."""
    base = derive_seed("stress_fine", seed)
    return [(step, _stress(base, step)) for step in (0.01, 0.1, 0.5, 1.0)]


def wide_chain(seed: int) -> list[dict]:
    """One lane of 150 vehicles with 400-sample horizons, ideal channel.

    The seed jitters initial gaps and speeds only; every vehicle is in the
    chain for the whole run, so the work does not depend on the seed.
    """
    base = derive_seed("wide_chain", seed)
    rng = random.Random(base)
    events = []
    offset = 4200.0
    for _ in range(CHAIN_VEHICLES):
        events.append(
            {
                "time_s": 0.0,
                "leg": "a",
                "speed_mps": round(13.0 + rng.uniform(-0.5, 0.5), 6),
                "length_m": 5.0,
                "start_offset_m": round(offset, 6),
            }
        )
        offset -= 26.0 + rng.uniform(-2.0, 2.0)
    return [
        {
            "engine": {"sim_step_s": 0.02, "duration_s": CHAIN_DURATION_S, "seed": base},
            "channel": {"delay_mean_s": 0.0, "delay_std_s": 0.0, "loss_prob": 0.0},
            "estimator": {"prediction_step_s": 0.1, "horizon_s": 40.0, "v_target": 13.5},
            "intersections": [
                {
                    "id": "x",
                    "legs": [{"id": "a", "approach_length_m": 6000.0}],
                    "control_zone_radius_m": 5900.0,
                }
            ],
            "spawns": {"events": events},
        }
    ]


def long_traffic(seed: int) -> list[dict]:
    """The nominal three-leg crossing with 150 arrivals over a long run.

    Arrivals are one per slot of ``TRAFFIC_ARRIVALS_END_S / 150`` seconds at
    a uniform offset inside the slot, on a shuffled but balanced choice of
    leg; the channel is the README default (40 +- 25.9 ms, 10% loss on
    every link).
    """
    base = derive_seed("long_traffic", seed)
    rng = random.Random(base)
    legs = ["a", "b", "c"] * (TRAFFIC_VEHICLES // 3)
    rng.shuffle(legs)
    slot = TRAFFIC_ARRIVALS_END_S / TRAFFIC_VEHICLES
    events = [
        {
            "time_s": round((i + rng.random()) * slot, 6),
            "leg": leg,
            "speed_mps": round(rng.uniform(10.0, 13.0), 6),
            "length_m": 5.0,
        }
        for i, leg in enumerate(legs)
    ]
    return [
        {
            "engine": {"sim_step_s": 0.1, "duration_s": TRAFFIC_DURATION_S, "seed": base},
            "channel": {"delay_mean_s": 0.040, "delay_std_s": 0.0259, "loss_prob": 0.1},
            "estimator": {"prediction_step_s": 0.1, "horizon_s": 5.0, "v_target": 14.0},
            "control": {"k": 0.5, "gamma": 0.8, "time_gap_s": 1.5},
            "intersections": [
                {
                    "id": "x",
                    "legs": [
                        {"id": "a", "approach_length_m": 250.0},
                        {"id": "b", "approach_length_m": 230.0},
                        {"id": "c", "approach_length_m": 260.0},
                    ],
                    "control_zone_radius_m": 150.0,
                }
            ],
            "spawns": {"min_spawn_gap_m": 12.0, "events": events},
        }
    ]


WORKLOADS = {
    "stress_fine": stress_fine,
    "wide_chain": wide_chain,
    "long_traffic": long_traffic,
}


def to_yaml(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False)


def documents(workload: str, seed: int) -> list[str]:
    """The workload's scenarios as YAML text, in run order."""
    return [to_yaml(doc) for doc in WORKLOADS[workload](seed)]
