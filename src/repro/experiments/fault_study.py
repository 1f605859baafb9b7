"""Fault study: goodput and energy under escalating chaos.

The paper's dependability argument (Sec. III-c, and the 95 %-online TCO
scenario) is qualitative: SBCs fail rarely, and the orchestration
platform resubmits around failures.  This experiment makes it
quantitative.  A saturated 8-worker cluster runs the full workload
suite while the chaos engine injects board crashes, boot failures,
stuck GPIO lines, link/switch outages, and backend faults at an
escalating rate scale; the orchestrator runs the full recovery stack
(at-least-once resubmission with idempotency keys, per-attempt timeout
retries with backoff, straggler hedging, per-worker circuit breakers).

Reported per fault-rate point: goodput (completed logical jobs per
minute), jobs lost (must be zero — the deadline knob is off), p99
end-to-end latency, mean time to recovery for board faults, recovery
activity (resubmissions, timeout retries, hedges, duplicates
suppressed), and the energy overhead relative to the fault-free run.

Every point is an independent, seeded task on the shared
:func:`~repro.experiments.runner.map_traced` runner, so the sweep is
bit-identical at any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster import MicroFaaSCluster
from repro.core.policies import RecoveryPolicy
from repro.core.telemetry import percentiles
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments.report import Table, format_table
from repro.experiments.runner import map_traced
from repro.obs.trace import FinishedTrace, TraceConfig
from repro.reliability.chaos import ChaosEngine, ChaosPlan, ChaosProfile
from repro.services.backend import BackendCapacityModel

#: Chaos sampling horizon: long enough to cover the saturated run at
#: the default workload volume (the run itself ends when the last job
#: completes).
CHAOS_HORIZON_S = 120.0


@dataclass(frozen=True)
class FaultStudyTask:
    """Picklable spec for one fault-rate point."""

    fault_rate_scale: float
    worker_count: int
    invocations_per_function: int
    seed: int
    trace: Optional[TraceConfig] = None


@dataclass(frozen=True)
class FaultStudyPoint:
    """One fault-rate point's measurements."""

    fault_rate_scale: float
    jobs_submitted: int
    jobs_delivered: int
    jobs_lost: int
    goodput_per_min: float
    p99_latency_s: float
    mean_recovery_s: Optional[float]
    faults_injected: int
    resubmissions: int
    timeout_retries: int
    hedges: int
    duplicates_suppressed: int
    boards_abandoned: int
    duration_s: float
    energy_joules: float

    @property
    def joules_per_function(self) -> float:
        if self.jobs_delivered == 0:
            return float("nan")
        return self.energy_joules / self.jobs_delivered


@dataclass(frozen=True)
class FaultStudyResult:
    points: List[FaultStudyPoint]

    @property
    def baseline(self) -> FaultStudyPoint:
        """The fault-free point (lowest rate; scale 0 in the default sweep)."""
        return min(self.points, key=lambda p: p.fault_rate_scale)

    def energy_overhead(self, point: FaultStudyPoint) -> float:
        """Fractional J/function increase over the fault-free run."""
        base = self.baseline.joules_per_function
        if base == 0:
            return 0.0
        return point.joules_per_function / base - 1.0

    @property
    def total_jobs_lost(self) -> int:
        return sum(point.jobs_lost for point in self.points)


def _run_fault_point(
    task: FaultStudyTask,
) -> Tuple[FaultStudyPoint, List[FinishedTrace]]:
    """Worker: one saturated run under one chaos rate scale."""
    cluster = MicroFaaSCluster(
        worker_count=task.worker_count,
        seed=task.seed,
        policy=LeastLoadedPolicy(),
        backend=BackendCapacityModel(),
        recovery=RecoveryPolicy(),
        trace=task.trace,
    )
    plan = ChaosPlan.sample(
        ChaosProfile(scale=task.fault_rate_scale),
        worker_count=task.worker_count,
        horizon_s=CHAOS_HORIZON_S,
        streams=cluster.streams.spawn("chaos"),
        switch_count=len(cluster.switches),
    )
    engine = ChaosEngine(cluster)
    engine.apply(plan)
    result = cluster.run_saturated(
        invocations_per_function=task.invocations_per_function
    )
    orchestrator = cluster.orchestrator
    # Exactly-once delivery check: every logical job appears once in the
    # result log (telemetry), lost jobs excepted (the deadline knob is
    # off, so there should be none).
    submitted = len(orchestrator.jobs)
    delivered = orchestrator.telemetry.count
    if delivered + orchestrator.jobs_lost != submitted:
        raise RuntimeError(
            f"delivery mismatch at scale {task.fault_rate_scale}: "
            f"{submitted} submitted, {delivered} delivered, "
            f"{orchestrator.jobs_lost} lost"
        )
    latencies = [
        job.end_to_end_s
        for job in orchestrator.jobs.values()
        if job.t_completed is not None and job.failure is None
    ]
    point = FaultStudyPoint(
        fault_rate_scale=task.fault_rate_scale,
        jobs_submitted=submitted,
        jobs_delivered=delivered,
        jobs_lost=orchestrator.jobs_lost,
        goodput_per_min=delivered / result.duration_s * 60.0,
        p99_latency_s=(
            percentiles(latencies, [99.0], method="nearest")[0]
            if latencies
            else 0.0
        ),
        mean_recovery_s=engine.mean_recovery_s,
        faults_injected=engine.injected,
        resubmissions=orchestrator.resubmissions,
        timeout_retries=orchestrator.timeout_retries,
        hedges=orchestrator.hedges,
        duplicates_suppressed=orchestrator.duplicates_suppressed,
        boards_abandoned=engine.boards_abandoned,
        duration_s=result.duration_s,
        energy_joules=result.energy_joules,
    )
    return point, cluster.finished_traces()


def run(
    fault_rate_scales: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    worker_count: int = 8,
    invocations_per_function: int = 4,
    seed: int = 7,
    jobs: int = 1,
    trace_path: Optional[str] = None,
) -> FaultStudyResult:
    """Sweep chaos rate scales over independent seeded cluster runs.

    With ``trace_path`` set, the highest-rate point records spans as
    it runs (its ``chaos_event`` annotations and the linked crashed and
    retried attempt spans) and its span trees are written to that path
    — the most fault-dense point is the one worth looking at in
    Perfetto.
    """
    if worker_count < 2:
        raise ValueError("the fault study needs at least two workers")
    if invocations_per_function < 1:
        raise ValueError("invocations_per_function must be >= 1")
    tasks = [
        FaultStudyTask(scale, worker_count, invocations_per_function, seed)
        for scale in fault_rate_scales
    ]
    points = map_traced(
        tasks,
        _run_fault_point,
        jobs=jobs,
        trace_path=trace_path,
        traced=max(tasks, key=lambda t: t.fault_rate_scale, default=None),
    )
    return FaultStudyResult(points=points)


def render(result: FaultStudyResult) -> str:
    rows = []
    for point in result.points:
        mttr = (
            f"{point.mean_recovery_s:.1f}"
            if point.mean_recovery_s is not None
            else "-"
        )
        rows.append(
            (
                f"{point.fault_rate_scale:g}",
                point.faults_injected,
                f"{point.goodput_per_min:.0f}",
                point.jobs_lost,
                f"{point.p99_latency_s:.1f}",
                mttr,
                point.resubmissions,
                point.timeout_retries,
                point.hedges,
                point.duplicates_suppressed,
                f"{result.energy_overhead(point) * 100:+.0f}%",
            )
        )
    table = format_table(
        [
            "scale",
            "faults",
            "goodput/min",
            "lost",
            "p99 s",
            "MTTR s",
            "resub",
            "retries",
            "hedges",
            "dups",
            "energy",
        ],
        rows,
        title="Fault study - recovery under escalating chaos",
    )
    baseline = result.baseline
    closing = (
        f"\nall {sum(p.jobs_submitted for p in result.points)} jobs across "
        f"the sweep delivered exactly once ({result.total_jobs_lost} lost); "
        f"fault-free baseline: {baseline.goodput_per_min:.0f} func/min at "
        f"{baseline.joules_per_function:.1f} J/function."
        if result.total_jobs_lost == 0
        else f"\nWARNING: {result.total_jobs_lost} jobs lost across the sweep."
    )
    return table + closing


def tables(result: FaultStudyResult) -> List[Table]:
    """``fault_study.csv``: recovery under chaos, one row per fault-rate
    point."""
    rows = [
        (p.fault_rate_scale, p.faults_injected, p.jobs_submitted,
         p.jobs_delivered, p.jobs_lost, p.goodput_per_min, p.p99_latency_s,
         p.mean_recovery_s if p.mean_recovery_s is not None else "",
         p.resubmissions, p.timeout_retries, p.hedges,
         p.duplicates_suppressed, p.boards_abandoned,
         p.joules_per_function, result.energy_overhead(p))
        for p in result.points
    ]
    return [(
        "fault_study.csv",
        ["fault_rate_scale", "faults_injected", "jobs_submitted",
         "jobs_delivered", "jobs_lost", "goodput_per_min", "p99_latency_s",
         "mean_recovery_s", "resubmissions", "timeout_retries", "hedges",
         "duplicates_suppressed", "boards_abandoned", "joules_per_function",
         "energy_overhead"],
        rows,
    )]
