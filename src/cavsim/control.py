"""Consensus-based longitudinal motion controller.

The control law drives the ego vehicle toward a gap of
``l_target + v_ego * time_gap`` behind its target and toward the target's
speed:

    u = -alpha * k * [ (r_i - r_j + l_j + v_i * t_gap) + gamma * (v_i - v_j) ]

where (r_j, v_j) are whatever the caller supplies: delayed ground truth or
estimated motion. Gains come from a lookup table keyed on the two vehicles'
speeds and their headway at association time, and are held for the lifetime
of the association.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from .errors import BoundError, NumericFault
from .types import TargetView, VehicleState, check_bounds

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ControlGains:
    """One gain pair, the owner of the gain bounds: the file keys
    ``control.k`` and ``control.gamma`` and every gain-table entry."""

    k: float = field(metadata={"key": "k", "gt": 0})
    gamma: float = field(metadata={"key": "gamma", "ge": 0})
    alpha: int = 1

    def __post_init__(self) -> None:
        check_bounds(self)
        # The int alone: a float zero would make -alpha * k a negative zero.
        if type(self.alpha) is not int:
            raise ValueError(f"alpha must be the int 0 or 1, not {type(self.alpha).__name__}")
        if self.alpha not in (0, 1):
            raise ValueError("alpha must be 0 or 1")


def consensus_accel(ego: VehicleState, target: TargetView, gains: ControlGains) -> float:
    """Unsaturated acceleration command; saturation is the plant's job.

    ``VehicleState`` guarantees a finite ego, and any non-finite target
    value or gain product makes the result non-finite, so the one output
    check covers every input at either alpha. At ``alpha = 0`` the result
    is a signed zero: ``0.0 * bracket`` keeps the bracket's sign.
    """
    if not target.time_gap > 0:
        raise ValueError(f"time_gap must be > 0, got {target.time_gap}")
    r_i, v_i, r_j, v_j = ego.position, ego.speed, target.position, target.speed
    spacing = r_i - r_j + target.length + v_i * target.time_gap
    accel = -gains.alpha * gains.k * (spacing + gains.gamma * (v_i - v_j))
    if not math.isfinite(accel):
        raise NumericFault(
            f"consensus law produced non-finite acceleration from "
            f"r_i={r_i} v_i={v_i} r_j={r_j} v_j={v_j}"
        )
    return accel


@dataclass(frozen=True)
class GainTable:
    """Gain pairs bucketed by initial ego speed, target speed, and headway.

    Edges define half-open buckets [e0, e1), ..., [e_last, inf); inputs
    below the lowest edge clamp to the first bucket with a warning.
    ``entries[i][j][h]`` is the (k, gamma) pair for ego-speed bucket i,
    target-speed bucket j, headway bucket h; each pair must make a
    ``ControlGains``.
    """

    v_i_edges: tuple[float, ...] = field(metadata={"key": "v_i_edges", "default": (0.0,)})
    v_j_edges: tuple[float, ...] = field(metadata={"key": "v_j_edges", "default": (0.0,)})
    headway_edges: tuple[float, ...] = field(metadata={"key": "headway_edges", "default": (0.0,)})
    entries: tuple[tuple[tuple[tuple[float, float], ...], ...], ...] = field(
        metadata={"key": "entries"}
    )

    def __post_init__(self) -> None:
        for name, edges in (
            ("v_i_edges", self.v_i_edges),
            ("v_j_edges", self.v_j_edges),
            ("headway_edges", self.headway_edges),
        ):
            if not edges:
                raise ValueError(f"{name} must not be empty")
            if list(edges) != sorted(edges):
                raise ValueError(f"{name} must be sorted ascending")
            if len(set(edges)) != len(edges):
                raise ValueError(f"{name} must not contain duplicates")
        if len(self.entries) != len(self.v_i_edges):
            raise ValueError("entries do not cover every v_i bucket")
        for i, plane in enumerate(self.entries):
            if len(plane) != len(self.v_j_edges):
                raise ValueError("entries do not cover every v_j bucket")
            for j, row in enumerate(plane):
                if len(row) != len(self.headway_edges):
                    raise ValueError("entries do not cover every headway bucket")
                for h, (k, gamma) in enumerate(row):
                    try:
                        ControlGains(k, gamma)
                    except BoundError as exc:
                        raise BoundError(f"entries[{i}][{j}][{h}]", "%s %s" % exc.args) from None

    @staticmethod
    def single(k: float, gamma: float) -> "GainTable":
        """Degenerate table mapping every input to one gain pair."""
        return GainTable(
            v_i_edges=(0.0,),
            v_j_edges=(0.0,),
            headway_edges=(0.0,),
            entries=((((float(k), float(gamma)),),),),
        )


def _bucket(edges: Sequence[float], x: float, what: str) -> int:
    idx = bisect_right(edges, x) - 1
    if idx < 0:
        log.warning(
            "gain lookup %s=%s below lowest bucket edge %s; clamping",
            what,
            x,
            edges[0],
        )
        return 0
    return idx


def lookup_gains(table: GainTable, v_i0: float, v_j0: float, headway0: float) -> ControlGains:
    """Resolve the gain pair for a new association.

    Inputs are the speeds of ego and target and their headway at the moment
    ego acquires the target; the returned gains are then held for the whole
    association.
    """
    i = _bucket(table.v_i_edges, v_i0, "v_i0")
    j = _bucket(table.v_j_edges, v_j0, "v_j0")
    h = _bucket(table.headway_edges, headway0, "headway0")
    k, gamma = table.entries[i][j][h]
    return ControlGains(k=k, gamma=gamma, alpha=1)
