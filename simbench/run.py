"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 simbench/run.py --workload testbed --seed 1 --seconds 12 --trace 0

``--trace 0`` times the untraced simulator and prints the end-to-end
metrics; ``--trace 1`` times untraced and traced runs of the same inputs
and prints the per-layer split.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a JSON report with the run's context and every simulated
check.  ``attempted`` counts simulated invocations submitted in the
measured runs and ``failed`` those not delivered (a run whose checks
fail counts all of its invocations as failed).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {"us_per_inv": "us", "setup_s": "s", "peak_rss_mib": "MiB"}

#: Per-layer metrics (``--trace 1``) and their units.  ``*.self_s`` and
#: ``*.calls`` are per run of the workload's inputs.
PER_LAYER = {
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.self_s": "s",
    "core.submit.calls": "count",
    "core.submit.self_s": "s",
    "core.complete.calls": "count",
    "core.complete.self_s": "s",
    "core.select.calls": "count",
    "core.select.self_s": "s",
    "core.telemetry.self_s": "s",
    "core.resubmissions": "count",
    "core.jobs_lost": "count",
    "core.delivered_per_attempt": "ratio",
    "hardware.set_state.calls": "count",
    "hardware.set_state.self_s": "s",
    "hardware.record.self_s": "s",
    "hardware.energy.self_s": "s",
    "net.transfer.calls": "count",
    "net.transfer.self_s": "s",
    "net.route.calls": "count",
    "net.route.self_s": "s",
    "cluster.build_s": "s",
    "cluster.blueprint_s": "s",
    "workloads.trace_gen_s": "s",
    "energy.bill.calls": "count",
    "energy.bill.self_s": "s",
    "energy.residual_j": "J",
    "obs.calls": "count",
    "obs.self_s": "s",
    "obs.traces_finished": "count",
    "obs.traces_dropped": "count",
    "client.map.self_s": "s",
    "client.wait.self_s": "s",
    "reliability.faults_injected": "count",
    "shard.rounds": "count",
    "shard.inject.self_s": "s",
    "shard.advance.self_s": "s",
    "shard.replay.self_s": "s",
    "shard.peak_rss_mib": "MiB",
    "bench.trace_overhead_pct": "%",
}

#: Fewest measured runs per phase, whatever ``--seconds`` says.
MIN_RUNS = 3
MIN_TRACED_RUNS = 2


@dataclass
class Rep:
    """One measured set-up + run of the workload.

    ``setup_s`` and ``run_s`` are raw host seconds; ``scale`` converts
    them to the reference host speed (see calibrate.py).
    """

    setup_s: float
    run_s: float
    scale: float
    outcome: object
    problems: List[str] = field(default_factory=list)

    @property
    def raw_us_per_inv(self) -> float:
        return self.run_s / self.outcome.delivered * 1e6

    @property
    def us_per_inv(self) -> float:
        return self.raw_us_per_inv * self.scale


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_simulator():
    """Import the simulator from this checkout's ``src`` (never from an
    installed copy); None when the checkout holds no simulator."""
    sys.path[:0] = [SRC, ROOT]
    try:
        import repro
        from simbench import calibrate, layers, workloads
    except ImportError as exc:
        print(f"error: cannot import the simulator: {exc}", file=sys.stderr)
        return None
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: repro imported from {repro.__file__}", file=sys.stderr)
        return None
    return calibrate, layers, workloads


def source_digest() -> str:
    """SHA-256 over the simulator's sources (the commit may be unknown)."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_rep(calibrate, workload, inputs, executor: str) -> Rep:
    """Set up, run and check once, bracketed by the calibration loop."""
    gc.collect()
    before = calibrate.loop_s()
    start = time.perf_counter()
    state = workload.setup(inputs, executor)
    built = time.perf_counter()
    try:
        outcome = workload.run(state)
        done = time.perf_counter()
        after = calibrate.loop_s()
        problems = workload.check(state, outcome)
    finally:
        workload.close(state)
    scale = calibrate.REFERENCE_S * 2 / (before + after)
    return Rep(built - start, done - built, scale, outcome, problems)


def measure(calibrate, workload, inputs, executor, seconds, min_runs):
    reps: List[Rep] = []
    start = time.perf_counter()
    while len(reps) < min_runs or time.perf_counter() - start < seconds:
        reps.append(one_rep(calibrate, workload, inputs, executor))
    return reps


def layer_metrics(profiler, reps: List[Rep], untraced: List[Rep]) -> Dict[str, float]:
    """Per-run averages of the traced runs' span totals and counters,
    span times scaled to the reference host speed."""
    runs = len(reps)
    scale = statistics.median(rep.scale for rep in reps)
    counters = reps[-1].outcome.counters
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name in counters:
            metrics[name] = float(counters[name])
    for span, totals in profiler.totals.items():
        if f"{span}.calls" in metrics:
            metrics[f"{span}.calls"] = totals.calls / runs
        if f"{span}.self_s" in metrics:
            metrics[f"{span}.self_s"] = totals.self_s / runs * scale
        if f"{span}_s" in metrics:
            metrics[f"{span}_s"] = totals.inclusive_s / runs * scale
    events = metrics["sim.events"]
    if events:
        metrics["sim.us_per_event"] = statistics.median(
            rep.run_s * rep.scale for rep in untraced
        ) / events * 1e6
    traced_us = statistics.median(rep.us_per_inv for rep in reps)
    untraced_us = statistics.median(rep.us_per_inv for rep in untraced)
    metrics["bench.trace_overhead_pct"] = (traced_us / untraced_us - 1.0) * 100.0
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_simulator()
    if modules is None:
        return 2
    calibrate, layers, workloads = modules
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    # Wrappers cannot report back from forked shards, so a traced run
    # uses the inline executor (bit-identical to the process one) for
    # its untraced and traced phases alike.
    executor = "inline" if args.trace else "process"
    problems: List[str] = []
    report: Dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "config": workload.config,
    }
    if workload.name == "fleet":
        report["shard_executor"] = executor

    inputs = workload.inputs(args.seed)
    warmup: Optional[Rep] = None
    reps: List[Rep] = []
    traced: List[Rep] = []
    profiler = None
    try:
        if workload.name == "testbed":
            headline_problems, paper_err_pct = workloads.headline_check()
            problems += headline_problems
            report["paper_err_pct"] = paper_err_pct
        # Warm-up: lazy imports and first-call costs land here, untimed.
        warmup = one_rep(calibrate, workload, inputs, executor)
        problems += warmup.problems
        phase_s = args.seconds / 2 if args.trace else args.seconds
        reps = measure(calibrate, workload, inputs, executor, phase_s, MIN_RUNS)
        if args.trace:
            profiler = layers.LayerProfiler()
            profiler.install()
            try:
                traced = measure(
                    calibrate, workload, inputs, executor, phase_s, MIN_TRACED_RUNS
                )
            finally:
                profiler.uninstall()
    except Exception:
        traceback.print_exc()
        problems.append("a run raised")

    measured = reps + traced
    for rep in measured:
        problems += rep.problems
    digests = [rep.outcome.stats for rep in [warmup] + measured if rep is not None]
    if any(stats != digests[0] for stats in digests):
        problems.append("simulated statistics differ between runs of one input")
    if digests and args.seed == workloads.DEFAULT_SEED:
        problems += workloads.reference_problems(
            workload.name, digests[0], workloads.load_reference()
        )

    attempted = sum(rep.outcome.submitted for rep in measured)
    failed = sum(
        rep.outcome.submitted if rep.problems else rep.outcome.lost
        for rep in measured
    )
    if not measured:
        attempted = failed = 1
    correct = not problems

    metrics: Dict[str, float] = {}
    if reps and (traced or not args.trace):
        if args.trace:
            metrics = layer_metrics(profiler, traced, reps)
        else:
            rss = peak_rss_mib() + max(
                rep.outcome.counters.get("shard.peak_rss_mib", 0.0)
                for rep in measured
            )
            metrics = {
                "us_per_inv": statistics.median(rep.us_per_inv for rep in reps),
                "setup_s": statistics.median(rep.setup_s * rep.scale for rep in reps),
                "peak_rss_mib": rss,
            }
        report["simulated"] = digests[0]
        report["runs"] = len(reps)
        report["raw_us_per_inv_median"] = statistics.median(
            rep.raw_us_per_inv for rep in reps
        )
        report["raw_setup_s_median"] = statistics.median(rep.setup_s for rep in reps)
        report["scale_runs"] = [rep.scale for rep in reps]
        report["traced_runs"] = len(traced)
        report["invocations_per_run"] = reps[0].outcome.submitted
        report["failed_ratio"] = failed / attempted
    report["problems"] = problems[:20]

    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{workload.name:9s} {name:28s} {value:.6g} {units[name]}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
