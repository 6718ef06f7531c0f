"""Fixed-step closed-loop simulation binding plant, channel, estimator,
controller, and intersection coordination.

Per-step phase order (identical every step, deterministic given the seed):

1. spawn due vehicles (deferred while the same-leg spawn gap is blocked):
   the pending events are sorted by time, so the due ones are a prefix of
   them and a step examines only that prefix; each due event is tried in
   turn, and the blocked ones stay at the front in their order, to be tried
   first on the next step
2. advance the plant one step with the previous step's commands
3. update each intersection's crossing order (``SimulationEngine.orders``)
   in one walk over the vehicles: a vehicle that crosses leaves its order,
   one that enters the control zone is appended; then retarget every
   vehicle of an order to its predecessor and retire the vehicles that have
   left coordination (see ``SimulationEngine._retire``); every later phase
   iterates only the vehicles still simulated
4. chain pass over each crossing order, in that order: deliver every beacon
   due for the vehicle, refresh its own trajectory estimate (on prediction
   boundaries), then transmit its beacon to its follower, its successor in
   the order; since a target always precedes its follower, a zero-delay
   channel hands each follower the same-step estimate exactly as the
   synchronous chain recursion requires. A vehicle in no crossing order has
   neither target nor follower, so it has nothing to receive or send.
   The beacon is a ``types.Beacon``, an immutable named tuple (not a
   dataclass) built once per sending vehicle and step; every channel model
   takes the same ``V2XChannel.send``/``deliver_to`` path.
   On a prediction boundary, an order of at least ``CHAIN_BATCH_MIN``
   vehicles on a channel that can neither delay nor drop, in the explicit
   form, gets its followers' horizons from one vectorised pass computed
   when its head has sent (``chain_follower_horizons``). The head has no
   target, so the horizon it sends is the ``leader_estimate`` it has just
   refreshed: anchored at this step and full length, the pass's
   precondition, which this call site owns. Delivery and sending run
   unchanged; a follower takes its row only if the beacon it
   just consumed was sent this step and carries the very horizon the row
   was computed from, which makes the row its ``follower_estimate`` bit for
   bit. Otherwise it and the rest of the order refresh one by one, so the
   channel condition only spares computing rows nobody takes. A
   free-driving refresh hands ``leader_estimate`` the vehicle's previous
   horizon when that horizon is a free-driving one too
   (``_SimVehicle.free_driving``), so it can advance it by one sample
5. each vehicle computes next step's acceleration command: consensus law
   from its delay-compensated target view when following, free driving
   toward the preset target speed otherwise
6. record trajectory, estimation error, safety, and timing metrics

Commands computed at step s therefore act on the transition into step s+1,
and no vehicle acts on same-step information it could not have received
through the channel.

The engine's vehicle record, ``_SimVehicle``, holds every per-vehicle fact,
the estimator's memory included; the estimation functions keep no state.
"""

from __future__ import annotations

import dataclasses
import gc
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .control import ControlGains, GainTable, consensus_accel, lookup_gains
from .dynamics import DynamicsLimits, step_vehicle
from .errors import BoundError, ConfigError, NumericFault
from .estimation import (
    EstimatorParams,
    chain_follower_horizons,
    follower_estimate,
    idm_free_accel,
    leader_estimate,
    shift_held_estimate,
    target_motion_for_control,
)
from .network import ChannelModel, V2XChannel
from .scenario import (
    IntersectionSpec,
    SpawnEvent,
    SpawnPlan,
    assign_targets,
    expand_random_spawns,
    project_to_virtual_lane,
    safety_check,
)
from .types import Beacon, TargetView, TrajectoryEstimate, VehicleId, VehicleState
from .types import check_bounds, grid_cutoff, snap_to_grid

log = logging.getLogger(__name__)

FULL_STOP_SPEED = 0.5
# The narrowest crossing order whose followers' horizons are computed in one
# vectorised pass (``chain_follower_horizons``) instead of one by one: the
# measured break-even width at 400-sample horizons (about 20 at 40 samples
# and 38 at 4,000).
CHAIN_BATCH_MIN = 32


@dataclass(frozen=True)
class EngineConfig:
    sim_step: float = field(default=0.1, metadata={"key": "sim_step_s", "gt": 0})
    duration: float = field(default=30.0, metadata={"key": "duration_s", "ge": 0})
    seed: int = field(default=42, metadata={"key": "seed", "ge": 0})
    record_every: int = field(default=1, metadata={"key": "record_every", "ge": 1})

    __post_init__ = check_bounds


# File keys ``control.k`` and ``control.gamma``: the gain pair when there is no gain table.
DEFAULT_GAINS = {"k": 0.5, "gamma": 0.8}


@dataclass(frozen=True)
class ControlConfig:
    time_gap: float = field(default=1.5, metadata={"key": "time_gap_s", "gt": 0})
    gain_table: GainTable = field(
        default_factory=lambda: GainTable.single(**DEFAULT_GAINS), metadata={"key": "gain_table"}
    )

    __post_init__ = check_bounds


@dataclass(frozen=True)
class ScenarioConfig:
    engine: EngineConfig = field(default_factory=EngineConfig, metadata={"key": "engine"})
    channel: ChannelModel = field(default_factory=ChannelModel, metadata={"key": "channel"})
    estimator: EstimatorParams = field(
        default_factory=EstimatorParams, metadata={"key": "estimator"}
    )
    control: ControlConfig = field(default_factory=ControlConfig, metadata={"key": "control"})
    limits: DynamicsLimits = field(default_factory=DynamicsLimits, metadata={"key": "dynamics"})
    intersections: tuple[IntersectionSpec, ...] = field(
        default=(), metadata={"key": "intersections"}
    )
    spawns: SpawnPlan = field(default_factory=SpawnPlan, metadata={"key": "spawns"})

    def validate(self) -> None:
        """Finiteness and cross-field checks; raises ConfigError naming the offending field."""
        dt_sim = self.engine.sim_step
        dt_pred = self.estimator.prediction_step
        # Each is rounded into a step or sample count, which overflows for
        # inf, and so does a finite span over its step whose quotient is inf.
        for key, value, step in (
            ("engine.sim_step_s", dt_sim, 1.0),
            ("engine.duration_s", self.engine.duration, dt_sim),
            ("estimator.prediction_step_s", dt_pred, 1.0),
            ("estimator.horizon_s", self.estimator.horizon_s, dt_pred),
        ):
            if not math.isfinite(value):
                raise ConfigError(f"{key}: expected a finite number, got {value!r}")
            if not math.isfinite(value / step):
                raise ConfigError(f"{key}: {value!r} s holds too many {step!r} s steps to count")
        ratio = dt_pred / dt_sim if dt_pred >= dt_sim else dt_sim / dt_pred
        if not math.isfinite(ratio) or snap_to_grid(ratio) != round(ratio):
            raise ConfigError(
                "estimator.prediction_step_s: must be an integer multiple of "
                f"engine.sim_step_s or vice versa (got {dt_pred} vs {dt_sim})"
            )
        if not self.intersections:
            raise ConfigError("intersections: at least one intersection required")
        ids = [spec.id for spec in self.intersections]
        if len(set(ids)) != len(ids):
            raise ConfigError("intersections: duplicate intersection ids")
        known = {spec.id: spec for spec in self.intersections}
        for i, event in enumerate(self.spawns.events):
            if event.intersection not in known:
                raise ConfigError(
                    f"spawns.events[{i}].intersection: unknown id {event.intersection!r}"
                )
            spec = known[event.intersection]
            try:
                leg = spec.leg(event.leg)
            except KeyError:
                raise ConfigError(
                    f"spawns.events[{i}].leg: unknown leg {event.leg!r}"
                ) from None
            if event.start_offset >= leg.approach_length:
                raise ConfigError(
                    f"spawns.events[{i}].start_offset_m: beyond leg approach"
                )
            if event.speed > self.limits.speed_max:
                raise ConfigError(
                    f"spawns.events[{i}].speed_mps: exceeds dynamics.speed_max"
                )
        random = self.spawns.random
        if random is not None and random.speed_max > self.limits.speed_max:
            raise ConfigError("spawns.random.speed_max_mps: exceeds dynamics.speed_max")


@dataclass
class _SimVehicle:
    """Every per-vehicle fact, estimator memory included.

    A follower is admitted (follows the consensus law) once it holds a beacon
    from its current target: ``last_target_beacon`` is not None. A refresh
    recomputes from it only if sent after ``refreshed_send_time`` (None: none
    consumed since the last retarget), else holds ``own_estimate`` if any.
    ``free_driving`` says ``own_estimate`` is a ``leader_estimate`` horizon,
    which the next leader refresh may advance.
    """

    vid: VehicleId
    intersection: str
    state: VehicleState
    entry_time: float | None = None
    crossed: bool = False
    target: VehicleId | None = None
    gains: ControlGains | None = None
    own_estimate: TrajectoryEstimate | None = None
    last_target_beacon: Beacon | None = None
    last_arrival: float = -math.inf
    refreshed_send_time: float | None = None
    free_driving: bool = False
    pending_cmd: float = 0.0
    view: TargetView | None = None
    min_speed: float = math.inf
    retired_at: float | None = None


@dataclass
class RunResult:
    """Trajectories, estimation-error records, and run-level aggregates."""

    trajectory: list[tuple] = field(default_factory=list)
    metrics: list[tuple] = field(default_factory=list)
    violations: list[tuple] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


TRAJECTORY_COLUMNS = (
    "time_s",
    "vehicle_id",
    "leg",
    "virtual_pos_m",
    "speed_mps",
    "accel_mps2",
    "est_target_pos_m",
    "pos_est_err_m",
    "link_up",
)

METRICS_COLUMNS = (
    "time_s",
    "vehicle_id",
    "target_id",
    "pos_est_err_m",
    "speed_est_err_mps",
    "link_up",
    "horizon_exhausted",
)


class SimulationEngine:
    """One closed-loop run; construct fresh per run."""

    def __init__(self, scenario: ScenarioConfig) -> None:
        scenario.validate()
        self.scenario = scenario
        self.limits = scenario.limits
        self.params = dataclasses.replace(scenario.estimator, limits=scenario.limits)
        self.t_gap = scenario.control.time_gap
        self.dt = scenario.engine.sim_step
        channel_model = dataclasses.replace(
            scenario.channel, seed=scenario.engine.seed
        )
        self.channel = V2XChannel(channel_model)
        self.intersections = {spec.id: spec for spec in scenario.intersections}
        # Each intersection's first-come-first-served crossing order: the ids
        # of its entered, uncrossed vehicles by (control-zone entry time, id).
        # Appending on entry keeps that order without a sort: every entry of
        # one step is stamped with the same ``now``, later than any earlier
        # entry, and ``self.vehicles`` iterates in ascending id, because ids
        # are issued in spawn order and retirement only removes vehicles.
        self.orders: dict[str, list[VehicleId]] = {
            spec.id: [] for spec in scenario.intersections
        }
        self.vehicles: dict[VehicleId, _SimVehicle] = {}
        self.retired: dict[VehicleId, _SimVehicle] = {}
        self._pending_spawns: list[SpawnEvent] = list(
            expand_random_spawns(
                scenario.spawns,
                scenario.intersections,
                scenario.engine.duration,
                scenario.engine.seed,
            )
        )
        self._next_vid = 0
        self._boundary_every = max(1, round(self.params.prediction_step / self.dt))
        # "Communication currently on" is judged on the estimation clock:
        # a link is up while the newest beacon arrived within one estimation
        # tick (never finer than a simulation step, so delay jitter between
        # consecutive beacons cannot flap the link).
        self._link_window = max(self.params.prediction_step, self.dt) + 0.5 * self.dt
        # A chain's horizons are batched only where every follower takes its
        # row: explicit form, and a channel that neither delays nor drops.
        self._batch_chains = (
            not self.params.implicit_solve
            and channel_model.draws_nothing
            and channel_model.delay_mean == 0
            and not channel_model.nlos_windows
        )

    # -- phase 1 -------------------------------------------------------

    def _spawn_due(self, now: float) -> None:
        # The events are sorted by time, so the due ones are a prefix; the
        # blocked ones stay in front, in their order, and go first next step.
        pending = self._pending_spawns
        cutoff = grid_cutoff(now)
        due = 0
        while due < len(pending) and pending[due].time <= cutoff:
            due += 1
        if due:
            pending[:due] = [event for event in pending[:due] if not self._try_spawn(event, now)]

    def _try_spawn(self, event: SpawnEvent, now: float) -> bool:
        spec = self.intersections[event.intersection]
        leg = spec.leg(event.leg)
        position = project_to_virtual_lane(event.start_offset, leg, spec)
        for veh in self.vehicles.values():
            if veh.intersection != event.intersection or veh.state.leg != event.leg:
                continue
            ahead_gap = veh.state.position - veh.state.length - position
            behind_gap = position - event.length - veh.state.position
            if max(ahead_gap, behind_gap) < self.scenario.spawns.min_spawn_gap:
                return False
        vid = self._next_vid
        self._next_vid += 1
        self.vehicles[vid] = _SimVehicle(
            vid=vid,
            intersection=event.intersection,
            state=VehicleState(
                position=position,
                speed=event.speed,
                acceleration=0.0,
                length=event.length,
                leg=event.leg,
            ),
        )
        return True

    # -- phase 2 -------------------------------------------------------

    def _advance_plant(self, step_index: int, now: float) -> None:
        for veh in self.vehicles.values():
            try:
                veh.state = step_vehicle(veh.state, veh.pending_cmd, self.dt, self.limits)
            except NumericFault as exc:
                raise NumericFault(
                    f"step {step_index} (t={now:.3f}s) vehicle {veh.vid}: {exc}"
                ) from exc

    # -- phase 3 -------------------------------------------------------

    def _update_associations(self, now: float) -> None:
        for veh in self.vehicles.values():
            if veh.crossed:
                continue
            spec = self.intersections[veh.intersection]
            if veh.state.position > spec.crossing_coord + veh.state.length:
                veh.crossed = True
                # A vehicle can pass the whole control zone in one step and
                # cross without ever having entered it.
                if veh.entry_time is not None:
                    self.orders[veh.intersection].remove(veh.vid)
                self._retarget(veh, None, now)
            elif (
                veh.entry_time is None
                and spec.crossing_coord - veh.state.position <= spec.control_zone_radius
            ):
                veh.entry_time = now
                self.orders[veh.intersection].append(veh.vid)
        for order in self.orders.values():
            for vid, target in assign_targets(order):
                veh = self.vehicles[vid]
                if veh.target != target:
                    self._retarget(veh, target, now)

    def _retarget(self, veh: _SimVehicle, target: VehicleId | None, now: float) -> None:
        veh.target = target
        veh.last_target_beacon = None
        veh.refreshed_send_time = None
        veh.free_driving = False
        veh.last_arrival = -math.inf
        if target is None:
            veh.gains = None
            return
        tgt = self.vehicles[target]
        headway = tgt.state.position - veh.state.position
        veh.gains = lookup_gains(
            self.scenario.control.gain_table,
            veh.state.speed,
            tgt.state.speed,
            headway,
        )
        log.debug(
            "t=%.2f: vehicle %d acquired target %d (gains k=%.3f gamma=%.3f)",
            now,
            veh.vid,
            target,
            veh.gains.k,
            veh.gains.gamma,
        )

    def _retire(self, now: float) -> None:
        """Drop vehicles that no longer take part in coordination.

        A vehicle retires once it has crossed and its rear bumper is past the
        conflict zone (so it can never again occupy the zone). No vehicle
        targets it then: crossing removed it from its crossing order, and the
        same association update retargeted its follower. It moves to
        ``self.retired`` with its per-vehicle stats frozen and ``retired_at``
        set to ``now``; from this step on no phase steps, checks or records it.
        """
        for vid, veh in list(self.vehicles.items()):
            if veh.crossed:
                zone_hi = self.intersections[veh.intersection].zone_hi
                if veh.state.position - veh.state.length > zone_hi:
                    veh.retired_at = now
                    self.retired[vid] = self.vehicles.pop(vid)

    # -- phase 4 -------------------------------------------------------

    def _estimate_and_transmit(self, step_index: int, now: float) -> None:
        refresh = step_index % self._boundary_every == 0
        for order in self.orders.values():
            batch = refresh and self._batch_chains and len(order) >= CHAIN_BATCH_MIN
            # The followers' batched horizons, and the target horizon the
            # next one was computed from.
            rows = None
            assumed = None
            for vid, follower in zip(order, [*order[1:], None]):
                veh = self.vehicles[vid]
                arrivals = self.channel.deliver_to(vid, now)
                if veh.target is not None and veh.target in arrivals:
                    veh.last_target_beacon = arrivals[veh.target]
                    veh.last_arrival = now
                # An estimate is only consumed by a follower's inbox or by the
                # vehicle's own chain role; a head with no follower drives free.
                needs_estimate = follower is not None or veh.last_target_beacon is not None
                # First estimate is built immediately so a newly formed chain
                # does not idle until the next coarse prediction boundary.
                if needs_estimate and (refresh or veh.own_estimate is None):
                    # A batched row is this vehicle's follower_estimate only if
                    # the beacon it just consumed carries the very horizon the
                    # row was computed from; else the rest of the chain
                    # refreshes one by one.
                    beacon = veh.last_target_beacon
                    batched = (
                        next(rows)
                        if rows is not None
                        and beacon is not None
                        and beacon.send_time == now
                        and beacon.estimate is assumed
                        else None
                    )
                    if batched is None:
                        rows = None
                        self._refresh_estimate(veh, now)
                    else:
                        veh.own_estimate = assumed = batched
                        veh.refreshed_send_time = now
                        veh.free_driving = False
                if follower is not None and veh.own_estimate is not None:
                    beacon = Beacon(vid, now, veh.state, veh.own_estimate)
                    self.channel.send(beacon, follower, now)
                    if batch and vid == order[0]:
                        rows = chain_follower_horizons(
                            now,
                            beacon,
                            [(self.vehicles[f].state, self.vehicles[f].gains) for f in order[1:]],
                            self.t_gap,
                            self.params,
                        )
                        assumed = beacon.estimate

    def _refresh_estimate(self, veh: _SimVehicle, now: float) -> None:
        previous = veh.own_estimate if veh.free_driving else None
        veh.free_driving = False
        beacon = veh.last_target_beacon
        if beacon is not None and (
            veh.refreshed_send_time is None or beacon.send_time > veh.refreshed_send_time
        ):
            assert veh.gains is not None
            veh.own_estimate = follower_estimate(
                now, veh.state, beacon, veh.gains, self.t_gap, self.params
            )
            veh.refreshed_send_time = beacon.send_time
        elif beacon is not None and veh.own_estimate is not None:
            veh.own_estimate = shift_held_estimate(now, veh.state, veh.own_estimate)
        else:
            veh.own_estimate = leader_estimate(now, veh.state, self.params, previous)
            veh.free_driving = True

    # -- phase 5 -------------------------------------------------------

    def _compute_commands(self, step_index: int, now: float) -> None:
        for veh in self.vehicles.values():
            beacon = veh.last_target_beacon
            try:
                if beacon is not None:
                    assert veh.gains is not None
                    veh.view = target_motion_for_control(beacon, now, self.t_gap, self.params)
                    veh.pending_cmd = consensus_accel(veh.state, veh.view, veh.gains)
                else:
                    veh.view = None
                    veh.pending_cmd = idm_free_accel(veh.state.speed, self.params)
            except NumericFault as exc:
                raise NumericFault(
                    f"step {step_index} (t={now:.3f}s) vehicle {veh.vid}: {exc}"
                ) from exc

    # -- phase 6 -------------------------------------------------------

    def _record(self, result: RunResult, step_index: int, now: float) -> None:
        record_rows = step_index % self.scenario.engine.record_every == 0
        vehicles = self.vehicles
        metrics, trajectory = result.metrics, result.trajectory
        states: dict[str, dict[VehicleId, VehicleState]] = {iid: {} for iid in self.intersections}
        for vid, veh in vehicles.items():
            state = veh.state
            states[veh.intersection][vid] = state
            speed = state.speed
            if veh.entry_time is not None and not veh.crossed:
                # On a tie (0.0 against -0.0) the held value stays.
                if speed < veh.min_speed:
                    veh.min_speed = speed
            link_up = 1 if now - veh.last_arrival < self._link_window else 0
            view = veh.view
            err = None
            if view is not None:
                target_state = vehicles[veh.target].state
                err = view.position - target_state.position
                metrics.append(
                    (
                        now,
                        vid,
                        veh.target,
                        err,
                        view.speed - target_state.speed,
                        link_up,
                        1 if view.horizon_exhausted else 0,
                    )
                )
            if record_rows:
                trajectory.append(
                    (
                        now,
                        vid,
                        state.leg,
                        state.position,
                        speed,
                        state.acceleration,
                        None if view is None else view.position,
                        err,
                        link_up,
                    )
                )
        for iid, spec in self.intersections.items():
            for violation in safety_check(states[iid], spec):
                result.violations.append((now, *violation))

    # -- main loop ------------------------------------------------------

    def run(self, on_step: Callable[["SimulationEngine", float], None] | None = None) -> RunResult:
        result = RunResult()
        n_steps = round(self.scenario.engine.duration / self.dt)
        step_times: list[float] = []
        # Collector pauses would dominate the per-step timing metric; the
        # loop allocates no reference cycles, so defer collection to the end.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for i in range(n_steps):
                t0 = time.perf_counter()
                now = i * self.dt
                self._spawn_due(now)
                if i > 0:
                    self._advance_plant(i, now)
                self._update_associations(now)
                self._retire(now)
                self._estimate_and_transmit(i, now)
                self._compute_commands(i, now)
                self._record(result, i, now)
                step_times.append(time.perf_counter() - t0)
                if on_step is not None:
                    on_step(self, now)
        finally:
            if gc_was_enabled:
                gc.enable()
        self._summarize(result, step_times)
        return result

    def _summarize(self, result: RunResult, step_times: list[float]) -> None:
        everyone = {**self.vehicles, **self.retired}
        errors: list[float] = []
        rows_by_vehicle: dict[VehicleId, list[tuple]] = {vid: [] for vid in everyone}
        for row in result.metrics:
            errors.append(row[3])
            rows_by_vehicle[row[1]].append(row)
        per_vehicle: dict[str, dict] = {}
        for vid in sorted(everyone):
            veh = everyone[vid]
            rows = rows_by_vehicle[vid]
            veh_errors = [row[3] for row in rows]
            linked = sum(1 for row in rows if row[5])
            per_vehicle[str(vid)] = {
                "leg": veh.state.leg,
                "intersection": veh.intersection,
                "crossed": veh.crossed,
                "entry_time_s": _grid_time(veh.entry_time),
                "retired_at_s": _grid_time(veh.retired_at),
                "min_speed_in_zone_mps": None if math.isinf(veh.min_speed) else veh.min_speed,
                "full_stop": veh.min_speed < FULL_STOP_SPEED,
                "max_abs_pos_err_m": max((abs(e) for e in veh_errors), default=None),
                "rms_pos_err_m": _rms(veh_errors),
                "steps_link_up": linked,
                "steps_link_down": len(rows) - linked,
                "steps_horizon_exhausted": sum(1 for row in rows if row[6]),
            }
        result.summary = {
            "max_abs_pos_err_m": max((abs(e) for e in errors), default=0.0),
            "rms_pos_err_m": _rms(errors) or 0.0,
            "violation_count": len(result.violations),
            "full_stop_count": sum(stats["full_stop"] for stats in per_vehicle.values()),
            "vehicle_count": len(everyone),
            "steps": len(step_times),
            "mean_step_wallclock_ms": (
                1000.0 * sum(step_times) / len(step_times) if step_times else 0.0
            ),
            "per_vehicle": per_vehicle,
        }


def _grid_time(now: float | None) -> float | None:
    """A step time as ``trajectory.csv`` prints it, without the binary noise of ``i * dt``."""
    return None if now is None else round(now, 6)


def _rms(values: Sequence[float]) -> float | None:
    if not values:
        return None
    return math.sqrt(sum(v * v for v in values) / len(values))


def run(scenario: ScenarioConfig, on_step=None) -> RunResult:
    """Execute one deterministic closed-loop run."""
    return SimulationEngine(scenario).run(on_step=on_step)


def sweep_prediction_step(
    scenario: ScenarioConfig, steps: Sequence[float]
) -> tuple[list[dict], dict[float, RunResult]]:
    """One run per prediction step, identical seed and scenario.

    Returns the comparison table (rows in the given order) and the
    per-step RunResults, keyed by step, so a repeated step is a ConfigError.
    Every step's scenario is validated before the first run; a rejected step
    is a ConfigError naming the key and the step.
    """
    scenarios: list[ScenarioConfig] = []
    for i, dt_pred in enumerate(steps):
        if dt_pred in steps[:i]:
            raise ConfigError(f"steps: prediction step {dt_pred} repeated")
        try:
            est = dataclasses.replace(scenario.estimator, prediction_step=dt_pred)
        except BoundError as exc:
            raise ConfigError(f"estimator.{exc}") from exc
        scenarios.append(dataclasses.replace(scenario, estimator=est))
        scenarios[-1].validate()
    rows: list[dict] = []
    results: dict[float, RunResult] = {}
    for dt_pred, run_scenario in zip(steps, scenarios):
        result = run(run_scenario)
        results[dt_pred] = result
        rows.append(
            {
                "prediction_step_s": dt_pred,
                "max_abs_pos_err_m": result.summary["max_abs_pos_err_m"],
                "rms_pos_err_m": result.summary["rms_pos_err_m"],
                "mean_step_wallclock_ms": result.summary["mean_step_wallclock_ms"],
            }
        )
    return rows, results
