"""cavsim benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cavsim checkout; the benchmark imports cavsim from
``src/`` there and exits with code 2 when it is missing.

Each repetition ("rep") drives cavsim from outside along the path
``cavsim run`` takes: ``config.load_scenario`` on a generated YAML file,
``engine.SimulationEngine(...).run``, then the three ``cli.write_*``
writers. The only hook is an ``on_step`` probe that timestamps each step.
The first rep warms up; the timed reps repeat until ``--seconds`` have
passed. Every rep is checked: its outputs must be finite, consistent with
``summary.json``, and byte-identical to the first rep's (same seed, same
sha256 of trajectory.csv plus metrics.csv). A rep that raises or fails a
check counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` traced and untraced reps alternate; the tracer (tracer.py)
rebinds each layer's entry points and the last line reports the per-layer
metrics, including the tracing overhead. Human-readable lines come first.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import (  # noqa: E402
    ESTIMATORS,
    LAYERS,
    SPAN_NAMES,
    LogCounter,
    MissingTarget,
    Tracer,
    check_targets,
)

BASELINE = HERE / "baseline.json"
SETUP_LAUNCHES = 7
MIN_TIMED_REPS = 3
PROBE_TIMEOUT_S = 60.0
# Host-independent counts that must repeat exactly across traced reps.
EXACT_COUNTS = (
    "estimation.samples",
    "network.send.calls",
    "network.delivered",
    "dynamics.step_vehicle.calls",
    "cli.write_trajectory_csv.rows",
    "control.gain_clamps",
)


class CheckFailed(Exception):
    """An output of cavsim is wrong: non-finite, inconsistent or not repeatable."""


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    step_s: list[float] = field(default_factory=list)
    mean_step_ms: float = 0.0
    digest: str = ""
    max_abs_pos_err_m: float = 0.0
    violation_count: int = 0
    full_stop_count: int = 0
    trajectory_rows: int = 0
    trajectory_bytes: int = 0
    metrics_rows: int = 0
    vehicle_steps: int = 0
    active_vehicle_steps: int = 0
    spans: dict = field(default_factory=dict)
    logs: dict = field(default_factory=dict)
    error: str | None = None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, 0 <= q <= 100."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure_setup(src: Path, scenario_path: Path) -> list[float]:
    """Seconds from launching a fresh interpreter to an engine ready to step."""
    probe = HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(probe), str(src), str(scenario_path)],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or code != 0:
            raise CheckFailed(f"setup probe exited with code {code} before the first step")
        times.append(elapsed)
    return times


def scan_csv(path: Path, digest) -> tuple[int, int]:
    """Feed one CSV file to ``digest``; return its (data rows, bytes).

    Reads in chunks so the check adds little to the process's peak memory.
    """
    rows = -1
    size = 0
    tail = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            window = tail + chunk
            if b"nan" in window or b"inf" in window:
                raise CheckFailed(f"{path.name} holds a non-finite number")
            rows += chunk.count(b"\n")
            size += len(chunk)
            tail = chunk[-2:]
    return rows, size


def check_case(out: Path, result, steps_seen: int, digest) -> int:
    """Validate one scenario's written outputs; return trajectory.csv's size."""
    sizes = {}
    for name, produced in (("trajectory.csv", result.trajectory), ("metrics.csv", result.metrics)):
        rows, sizes[name] = scan_csv(out / name, digest)
        if rows != len(produced):
            raise CheckFailed(f"{name} has {rows} rows, the run produced {len(produced)}")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    for key in ("max_abs_pos_err_m", "rms_pos_err_m", "mean_step_wallclock_ms"):
        if not math.isfinite(summary[key]):
            raise CheckFailed(f"summary.json {key} is {summary[key]}")
    expected = {
        "max_abs_pos_err_m": max((abs(row[3]) for row in result.metrics), default=0.0),
        "violation_count": len(result.violations),
        "steps": steps_seen,
        "vehicle_count": len(summary["per_vehicle"]),
    }
    for key, value in expected.items():
        if summary[key] != value:
            raise CheckFailed(f"summary.json {key}={summary[key]}, outputs give {value}")
    return sizes["trajectory.csv"]


def run_rep(cavsim, case_paths: list[Path], out_root: Path, tracer, log_counter) -> Rep:
    """One rep over every scenario of the workload; timed, then checked."""
    config, engine, cli = cavsim
    rep = Rep(traced=tracer is not None)
    stamps: list[float] = []
    vehicles = [0, 0]

    def on_step(eng, now):
        stamps.append(time.perf_counter())

    def on_step_counting(eng, now):
        stamps.append(time.perf_counter())
        vehicles[0] += len(eng.vehicles)
        vehicles[1] += sum(1 for veh in eng.vehicles.values() if not veh.crossed)

    probe = on_step_counting if rep.traced else on_step
    log_counter.counts.clear()
    if tracer is not None:
        tracer.reset()
    outputs = []
    gc.collect()
    t_start = time.perf_counter()
    for i, path in enumerate(case_paths):
        scenario = config.load_scenario(str(path))
        sim = engine.SimulationEngine(scenario)
        first = len(stamps)
        stamps.append(time.perf_counter())
        result = sim.run(on_step=probe)
        rep.step_s.extend(b - a for a, b in zip(stamps[first:], stamps[first + 1 :]))
        out = out_root / f"case{i}"
        out.mkdir(parents=True, exist_ok=True)
        cli.write_trajectory_csv(out / "trajectory.csv", result)
        cli.write_metrics_csv(out / "metrics.csv", result)
        cli.write_summary_json(out / "summary.json", result)
        outputs.append((out, result, len(stamps) - first - 1))
    rep.wall_s = time.perf_counter() - t_start

    digest = hashlib.sha256()
    means = []
    for out, result, steps_seen in outputs:
        rep.trajectory_bytes += check_case(out, result, steps_seen, digest)
        summary = result.summary
        means.append(summary["mean_step_wallclock_ms"])
        rep.max_abs_pos_err_m = max(rep.max_abs_pos_err_m, summary["max_abs_pos_err_m"])
        rep.violation_count += summary["violation_count"]
        rep.full_stop_count += summary["full_stop_count"]
        rep.trajectory_rows += len(result.trajectory)
        rep.metrics_rows += len(result.metrics)
    rep.mean_step_ms = statistics.fmean(means)
    rep.digest = digest.hexdigest()
    rep.vehicle_steps, rep.active_vehicle_steps = vehicles
    rep.logs = {
        "control.gain_clamps": log_counter.count("cavsim.control", "gain lookup"),
        "estimation.fallback.warnings": log_counter.count(
            "cavsim.estimation", "held estimate exhausted"
        ),
    }
    if tracer is not None:
        rep.spans = {name: span.copy() for name, span in tracer.spans.items()}
    return rep


def fig8_samples(cavsim, seed: int, work: Path, tracer) -> dict[float, int]:
    """Horizon samples computed by one stress_fine scenario per prediction step."""
    config, engine, _ = cavsim
    counts = {}
    for step, doc in workloads.fig8_sweep(seed):
        path = work / f"fig8_{step}.yaml"
        path.write_text(workloads.to_yaml(doc), encoding="utf-8")
        tracer.reset()
        engine.SimulationEngine(config.load_scenario(str(path))).run()
        counts[step] = sum(tracer.spans[name].samples for name in ESTIMATORS)
    return counts


def end_to_end_metrics(setup: list[float], timed: list[Rep], scale: float) -> dict:
    steps_ms = [1000.0 * s for rep in timed for s in rep.step_s]
    return {
        "setup_s": (scale * median(setup), "s"),
        "wall_s": (scale * median([r.wall_s for r in timed]), "s"),
        "step_ms_mean": (scale * median([r.mean_step_ms for r in timed]), "ms"),
        "step_ms_p50": (scale * percentile(steps_ms, 50), "ms"),
        "step_ms_p95": (scale * percentile(steps_ms, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def overhead_ratio(reps: list[Rep]) -> float:
    """Median over traced reps of their wall time against the untraced reps
    run just before and after them, so slow drifts of host speed cancel."""
    ratios = []
    for i, rep in enumerate(reps):
        if not rep.traced or rep.error is not None:
            continue
        around = [r.wall_s for r in reps[max(i - 1, 1) : i + 2]
                  if not r.traced and r.error is None]
        if around:
            ratios.append(rep.wall_s / statistics.fmean(around))
    return median(ratios)


def per_layer_metrics(traced: list[Rep], reps: list[Rep], scale: float,
                      baseline_calls: dict) -> tuple[dict, list[str]]:
    first = traced[0]
    spans = first.spans
    calls = {name: span.calls for name, span in spans.items()}

    def self_s(name):
        return scale * median([rep.spans[name].self_s for rep in traced])

    def layer_self(layer):
        return scale * median([
            sum(span.self_s for name, span in rep.spans.items() if name.split(".")[0] == layer)
            for rep in traced
        ])

    m: dict[str, tuple] = {}
    samples = {name: spans[name].samples for name in ESTIMATORS}
    for name in ESTIMATORS:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.samples"] = (samples[name], "count")
    name = "estimation.target_motion_for_control"
    m[f"{name}.calls"] = (calls[name], "count")
    m[f"{name}.self_s"] = (self_s(name), "s")
    total_samples = sum(samples.values())
    horizon_s = scale * median([sum(rep.spans[n].self_s for n in ESTIMATORS) for rep in traced])
    m["estimation.samples"] = (total_samples, "count")
    m["estimation.samples_per_s"] = (total_samples / horizon_s if horizon_s > 0 else 0.0, "1/s")
    m["estimation.fallback.calls"] = (
        spans["estimation.leader_estimate"].parents["estimation.shift_held_estimate"],
        "count",
    )
    m["estimation.fallback.warnings"] = (first.logs["estimation.fallback.warnings"], "count")
    for phase in ("run", "spawn_due", "advance_plant", "update_associations",
                  "estimate_and_transmit", "compute_commands", "record", "summarize"):
        m[f"engine.{phase}.self_s"] = (self_s(f"engine.{phase}"), "s")
    m["engine.vehicle_steps"] = (first.vehicle_steps, "count")
    m["engine.active_vehicle_ratio"] = (
        first.active_vehicle_steps / first.vehicle_steps if first.vehicle_steps else 0.0,
        "ratio",
    )
    m["dynamics.step_vehicle.calls"] = (calls["dynamics.step_vehicle"], "count")
    m["dynamics.step_vehicle.self_s"] = (self_s("dynamics.step_vehicle"), "s")
    send = spans["network.send"]
    deliver = spans["network.deliver_to"]
    m["network.send.calls"] = (send.calls, "count")
    m["network.send.self_s"] = (self_s("network.send"), "s")
    m["network.send.drop_ratio"] = (send.dropped / send.calls if send.calls else 0.0, "ratio")
    m["network.deliver_to.calls"] = (deliver.calls, "count")
    m["network.deliver_to.self_s"] = (self_s("network.deliver_to"), "s")
    m["network.deliver_to.hit_ratio"] = (
        deliver.hits / deliver.calls if deliver.calls else 0.0, "ratio"
    )
    m["network.delivered"] = (deliver.delivered, "count")
    m["control.consensus_accel.calls"] = (calls["control.consensus_accel"], "count")
    m["control.consensus_accel.self_s"] = (self_s("control.consensus_accel"), "s")
    m["control.lookup_gains.calls"] = (calls["control.lookup_gains"], "count")
    m["control.gain_clamps"] = (first.logs["control.gain_clamps"], "count")
    for name in ("scenario.safety_check", "scenario.assign_targets",
                 "scenario.expand_random_spawns", "config.load_scenario"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["cli.write_trajectory_csv.self_s"] = (self_s("cli.write_trajectory_csv"), "s")
    m["cli.write_trajectory_csv.rows"] = (first.trajectory_rows, "count")
    m["cli.write_trajectory_csv.bytes"] = (first.trajectory_bytes, "bytes")
    m["cli.write_metrics_csv.self_s"] = (self_s("cli.write_metrics_csv"), "s")
    m["cli.write_metrics_csv.rows"] = (first.metrics_rows, "count")
    m["cli.write_summary_json.self_s"] = (self_s("cli.write_summary_json"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    traced_wall = scale * median([r.wall_s for r in traced])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_ratio"] = (overhead_ratio(reps), "ratio")
    m["trace.self_coverage"] = (
        median([sum(span.self_s for span in rep.spans.values()) / rep.wall_s for rep in traced]),
        "ratio",
    )
    flagged = [n for n in SPAN_NAMES if calls[n] == 0 and baseline_calls.get(n, 0) > 0]
    m["trace.flagged_spans"] = (len(flagged), "count")
    m["outcome.max_abs_pos_err_m"] = (first.max_abs_pos_err_m, "m")
    m["outcome.violation_count"] = (first.violation_count, "count")
    m["outcome.full_stop_count"] = (first.full_stop_count, "count")
    return m, flagged


def rep_counts(rep: Rep) -> tuple:
    """Every host-independent number a traced rep produced."""
    spans = tuple(
        (name, s.calls, s.samples, s.dropped, s.delivered, s.hits,
         tuple(sorted(s.parents.items(), key=str)))
        for name, s in sorted(rep.spans.items())
    )
    return (spans, rep.trajectory_rows, rep.metrics_rows, rep.vehicle_steps,
            rep.active_vehicle_steps, tuple(sorted(rep.logs.items())))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cavsim" / "__init__.py").is_file():
        print(f"perfbench: no cavsim sources under {src}; run from a cavsim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from cavsim import cli, config, engine

    try:
        check_targets()
    except MissingTarget as exc:
        print(f"perfbench: tracer target missing from cavsim: {exc}", file=sys.stderr)
        return 3
    cavsim = (config, engine, cli)
    log_counter = LogCounter.attach()
    work = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _bench(args, src, work, cavsim, log_counter)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _bench(args, src, work, cavsim, log_counter) -> int:
    case_paths = []
    for i, text in enumerate(workloads.documents(args.workload, args.seed)):
        path = work / f"scenario{i}.yaml"
        path.write_text(text, encoding="utf-8")
        case_paths.append(path)
    ref_times = [reference.measure()]
    try:
        setup = measure_setup(src, case_paths[0])
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    tracer = Tracer() if args.trace else None
    min_reps = 1 + (2 * MIN_TIMED_REPS if args.trace else MIN_TIMED_REPS)
    reps: list[Rep] = []
    deadline = time.perf_counter() + args.seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        traced = tracer is not None and len(reps) % 2 == 1
        out_root = work / "out"
        try:
            if traced:
                with tracer:
                    rep = run_rep(cavsim, case_paths, out_root, tracer, log_counter)
            else:
                rep = run_rep(cavsim, case_paths, out_root, None, log_counter)
        except Exception as exc:  # a failing rep is counted, not fatal
            rep = Rep(traced=traced, error=f"{type(exc).__name__}: {exc}")
        expected = next((r.digest for r in reps if r.digest), rep.digest)
        if rep.error is None and rep.digest != expected:
            rep.error = f"output sha256 {rep.digest[:16]} differs from {expected[:16]} (same seed)"
        ref_times.append(reference.measure())
        reps.append(rep)
        shutil.rmtree(out_root, ignore_errors=True)

    problems = [f"rep {i}: {r.error}" for i, r in enumerate(reps) if r.error is not None]
    good = [r for r in reps[1:] if r.error is None]
    timed = [r for r in good if not r.traced]
    traced_reps = [r for r in good if r.traced]
    if not timed or (tracer is not None and not traced_reps):
        for line in problems:
            print(f"perfbench: FAILED {line}", file=sys.stderr)
        return 1

    scale = reference.REFERENCE_S / median(ref_times)
    # Run-level checks count as attempts beside the reps.
    checks: list[str | None] = []
    notes: list[str] = []
    if tracer is None:
        metrics = end_to_end_metrics(setup, timed, scale)
        flagged: list[str] = []
    else:
        baseline = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.is_file() else {}
        baseline_calls = baseline.get("span_calls", {}).get(args.workload, {})
        metrics, flagged = per_layer_metrics(traced_reps, reps, scale, baseline_calls)
        checks.append(
            None if len({rep_counts(r) for r in traced_reps}) == 1
            else "host-independent counts differ between traced reps of one seed"
        )
        fallback = metrics["estimation.fallback.calls"][0]
        warned = metrics["estimation.fallback.warnings"][0]
        checks.append(
            None if fallback == warned
            else f"tracer saw {fallback} fallbacks, the estimator logged {warned}"
        )
        if args.workload == "stress_fine":
            with tracer:
                fig8 = fig8_samples(cavsim, args.seed, work, tracer)
            notes.append(f"fig8 horizon samples by prediction step: {fig8}")
            samples = list(fig8.values())
            ordered = all(a > b for a, b in zip(samples, samples[1:]))
            checks.append(
                None if ordered
                else f"estimation.samples not strictly decreasing in the prediction step: {fig8}"
            )
    problems += [c for c in checks if c is not None]
    attempted = len(reps) + len(checks)
    failed = len(problems)
    report(args, setup, reps, timed, traced_reps, metrics, flagged, notes, problems, attempted,
           failed, scale, ref_times)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def report(args, setup, reps, timed, traced_reps, metrics, flagged, notes, problems,
           attempted, failed, scale, ref_times) -> None:
    steps = sum(len(r.step_s) for r in timed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  reps: {len(reps)} run ({len(timed)} timed untraced, {len(traced_reps)} traced, "
          f"1 warm-up); {steps} timed steps")
    digests = sorted({r.digest for r in reps if r.digest})
    print(f"  output sha256 (trajectory.csv + metrics.csv): {', '.join(digests)}")
    first = next((r for r in reps if r.error is None), None)
    if first is not None:
        print(f"  outcome: max_abs_pos_err_m={first.max_abs_pos_err_m!r} "
              f"violation_count={first.violation_count} full_stop_count={first.full_stop_count}")
    print(f"  rep wall_s, unscaled: {', '.join(f'{r.wall_s:.4f}' for r in timed)}")
    print(f"  host-speed scale: {scale!r} (reference {reference.REFERENCE_S} s over its median "
          f"time {median(ref_times):.5f} s in {len(ref_times)} measurements)")
    if not args.trace:
        raw = end_to_end_metrics(setup, timed, 1.0)
        print(f"  unscaled: {json.dumps({k: v for k, (v, _) in raw.items()})}")
    else:
        calls = {name: span.calls for name, span in traced_reps[0].spans.items()}
        print(f"  span calls: {json.dumps(calls)}")
    print(f"  setup_s launches: {', '.join(f'{s:.4f}' for s in setup)}")
    if args.trace:
        wall = metrics["trace.wall_s"][0]
        shares = ", ".join(f"{layer} {metrics[f'{layer}.self_s'][0] / wall:.1%}" for layer in LAYERS)
        print(f"  layer share of traced wall time: {shares}")
        exact = {name: metrics[name][0] for name in EXACT_COUNTS}
        print(f"  exact counts: {json.dumps(exact)}")
    for note in notes:
        print(f"  {note}")
    for name in flagged:
        print(f"  FLAGGED: span {name} had no calls; the baseline recorded calls, "
              f"so its 0 s self time means the span is no longer reached")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value!r} {unit}")
    print(f"  error_rate {failed / attempted!r} ({failed} of {attempted} failed)")
    for line in problems:
        print(f"  FAILED {line}")


if __name__ == "__main__":
    sys.exit(main())
