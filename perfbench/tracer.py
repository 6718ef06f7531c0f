"""Outside-in layer tracing for the benchmark.

The tracer rebinds each layer's entry points, in the benchmark's own
process, with timing wrappers. No file of cavsim changes. The wrappers
share one span stack, so every span knows its parent and its self time
(its duration minus the part its child spans cover).

Functions that the engine imported by name are rebound in the
``cavsim.engine`` namespace, where the engine looks them up; methods are
rebound on their class. ``leader_estimate`` is also rebound in
``cavsim.estimation``, where ``shift_held_estimate`` calls it when a held
estimate runs out: that call is the estimator's fallback.
"""

from __future__ import annotations

import importlib
import logging
import time
from collections import Counter

# (module, attribute path, span name). The span name is
# "<layer>.<function>", where the layer is the cavsim module the code lives in.
TARGETS = (
    ("cavsim.config", "load_scenario", "config.load_scenario"),
    ("cavsim.engine", "expand_random_spawns", "scenario.expand_random_spawns"),
    ("cavsim.engine", "SimulationEngine.run", "engine.run"),
    ("cavsim.engine", "SimulationEngine._spawn_due", "engine.spawn_due"),
    ("cavsim.engine", "SimulationEngine._advance_plant", "engine.advance_plant"),
    ("cavsim.engine", "SimulationEngine._update_associations", "engine.update_associations"),
    ("cavsim.engine", "SimulationEngine._estimate_and_transmit", "engine.estimate_and_transmit"),
    ("cavsim.engine", "SimulationEngine._compute_commands", "engine.compute_commands"),
    ("cavsim.engine", "SimulationEngine._record", "engine.record"),
    ("cavsim.engine", "SimulationEngine._summarize", "engine.summarize"),
    ("cavsim.engine", "step_vehicle", "dynamics.step_vehicle"),
    ("cavsim.engine", "leader_estimate", "estimation.leader_estimate"),
    ("cavsim.estimation", "leader_estimate", "estimation.leader_estimate"),
    ("cavsim.engine", "follower_estimate", "estimation.follower_estimate"),
    ("cavsim.engine", "shift_held_estimate", "estimation.shift_held_estimate"),
    ("cavsim.engine", "target_motion_for_control", "estimation.target_motion_for_control"),
    ("cavsim.network", "V2XChannel.send", "network.send"),
    ("cavsim.network", "V2XChannel.deliver_to", "network.deliver_to"),
    ("cavsim.engine", "consensus_accel", "control.consensus_accel"),
    ("cavsim.engine", "lookup_gains", "control.lookup_gains"),
    ("cavsim.engine", "assign_targets", "scenario.assign_targets"),
    ("cavsim.engine", "safety_check", "scenario.safety_check"),
    ("cavsim.cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("cavsim.cli", "write_metrics_csv", "cli.write_metrics_csv"),
    ("cavsim.cli", "write_summary_json", "cli.write_summary_json"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
LAYERS = ("engine", "estimation", "network", "dynamics", "control", "scenario", "config", "cli")
# The functions that build a horizon and return a TrajectoryEstimate.
ESTIMATORS = (
    "estimation.leader_estimate",
    "estimation.follower_estimate",
    "estimation.shift_held_estimate",
)


class MissingTarget(RuntimeError):
    """A rebinding target no longer exists in cavsim."""


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) for one target, or MissingTarget."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not hasattr(owner, attr):
        raise MissingTarget(f"{module_name}.{path}")
    return owner, attr, getattr(owner, attr)


def check_targets() -> None:
    """Raise MissingTarget naming every target that cannot be rebound."""
    missing = []
    for module_name, path, _ in TARGETS:
        try:
            _resolve(module_name, path)
        except MissingTarget as exc:
            missing.append(str(exc))
    if missing:
        raise MissingTarget(", ".join(missing))


class Span:
    __slots__ = ("name", "calls", "self_s", "samples", "dropped", "delivered", "hits", "parents")

    def __init__(self, name: str) -> None:
        self.name = name
        self.clear()

    def clear(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.samples = 0
        self.dropped = 0
        self.delivered = 0
        self.hits = 0
        self.parents: Counter = Counter()

    def copy(self) -> "Span":
        other = Span(self.name)
        for slot in self.__slots__[1:]:
            setattr(other, slot, getattr(self, slot))
        other.parents = Counter(self.parents)
        return other


class Tracer:
    """Span statistics for the calls made while installed.

    Use as a context manager: entering rebinds every target, leaving
    restores the originals. ``reset`` clears the statistics.
    """

    def __init__(self) -> None:
        self.spans = {name: Span(name) for name in SPAN_NAMES}
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        for span in self.spans.values():
            span.clear()
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        check_targets()
        for module_name, path, name in TARGETS:
            owner, attr, original = _resolve(module_name, path)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        stack = self._stack
        clock = time.perf_counter
        span = self.spans[name]
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                span.calls += 1
                span.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                span.parents[parent.name if parent is not None else None] += 1
            if hook is not None:
                hook(span, parent, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _count_samples(span: Span, parent: Span | None, result) -> None:
    # Samples are counted where the engine receives them; a fallback
    # horizon is counted once, as the result of shift_held_estimate.
    if parent is None or parent.name not in ESTIMATORS:
        span.samples += len(result.speeds)


def _count_send(span: Span, parent: Span | None, result) -> None:
    if not result:
        span.dropped += 1


def _count_delivery(span: Span, parent: Span | None, result) -> None:
    if result:
        span.hits += 1
        span.delivered += len(result)


_HOOKS = {
    "estimation.leader_estimate": _count_samples,
    "estimation.follower_estimate": _count_samples,
    "estimation.shift_held_estimate": _count_samples,
    "network.send": _count_send,
    "network.deliver_to": _count_delivery,
}


class LogCounter(logging.Handler):
    """Keeps cavsim's log records out of the benchmark's output and counts them.

    Attached to the ``cavsim`` logger with propagation off, so warnings such
    as the gain-table clamp no longer reach stderr through Python's
    last-resort handler.
    """

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[(record.name, record.msg)] += 1

    def count(self, logger: str, prefix: str = "") -> int:
        return sum(
            n
            for (name, msg), n in self.counts.items()
            if name == logger and str(msg).startswith(prefix)
        )

    @classmethod
    def attach(cls) -> "LogCounter":
        handler = cls()
        logger = logging.getLogger("cavsim")
        logger.addHandler(handler)
        logger.propagate = False
        return handler
