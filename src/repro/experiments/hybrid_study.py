"""Hybrid study: sweeping the SBC:VM mix of a heterogeneous cluster.

The paper pits a 10-SBC MicroFaaS cluster against a 6-VM conventional
one; the harness makes the whole spectrum in between a one-liner.  This
experiment sweeps a :class:`~repro.cluster.hybrid.HybridCluster` across
SBC:VM mixes under the saturated workload and reports, per mix, the
aggregate throughput and J/function plus the per-platform split the
platform-tagged telemetry provides: jobs served, p99 latency, and
metered energy for the ``arm`` and ``x86`` fleets separately.  The
energy-aware default policy keeps work on SBCs and spills to VMs under
queue pressure, so the sweep shows how much throughput each VM buys and
what it costs in J/function.

Every mix is an independent, seeded task on the shared
:func:`~repro.experiments.runner.map_traced` runner, so the sweep is
bit-identical at any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.hybrid import HybridCluster
from repro.cluster.matching import hybrid_throughput_per_min
from repro.core.platform import ARM, X86
from repro.experiments.report import Table, format_table
from repro.experiments.runner import map_traced
from repro.obs.trace import FinishedTrace, TraceConfig
from repro.shard import ClusterSpec, ShardedCluster

#: Default sweep: the paper's two endpoints (10 SBCs / 6 VMs) and the
#: mixes in between.
DEFAULT_MIXES: Tuple[Tuple[int, int], ...] = (
    (10, 0),
    (8, 2),
    (6, 3),
    (4, 4),
    (2, 5),
    (0, 6),
)


@dataclass(frozen=True)
class HybridStudyTask:
    """Picklable spec for one SBC:VM mix point."""

    sbc_count: int
    vm_count: int
    invocations_per_function: int
    seed: int
    #: Shards to split this point's simulation across (1 = serial).
    #: The default energy-aware policy is shardable, so sharded points
    #: are bit-identical to serial ones — this is purely an
    #: execution-mode knob for very wide mixes.
    shards: int = 1
    trace: Optional[TraceConfig] = None


@dataclass(frozen=True)
class HybridStudyPoint:
    """One mix's measurements, aggregate and per platform."""

    sbc_count: int
    vm_count: int
    jobs_completed: int
    duration_s: float
    throughput_per_min: float
    energy_joules: float
    joules_per_function: float
    predicted_throughput_per_min: float
    arm_jobs: int
    x86_jobs: int
    arm_energy_joules: float
    x86_energy_joules: float
    arm_p99_latency_s: Optional[float]
    x86_p99_latency_s: Optional[float]

    @property
    def worker_count(self) -> int:
        return self.sbc_count + self.vm_count


@dataclass(frozen=True)
class HybridStudyResult:
    points: List[HybridStudyPoint]

    def best_joules_per_function(self) -> HybridStudyPoint:
        return min(self.points, key=lambda p: p.joules_per_function)

    def best_throughput(self) -> HybridStudyPoint:
        return max(self.points, key=lambda p: p.throughput_per_min)


def _run_mix_point(
    task: HybridStudyTask,
) -> Tuple[HybridStudyPoint, List[FinishedTrace]]:
    """Worker: one saturated run of one SBC:VM mix.

    A traced mix runs the serial engine (its recorder lives in the one
    cluster); the sharded engine's numbers are bit-identical.
    """
    if task.shards > 1 and task.trace is None:
        # Inline executor: this worker may itself be a run_map child
        # process, and the results are bit-identical either way — the
        # win here is memory (per-shard record pools), not wall-clock.
        sharded = ShardedCluster(
            ClusterSpec(
                kind="hybrid",
                sbc_count=task.sbc_count,
                vm_count=task.vm_count,
                seed=task.seed,
            ),
            task.shards,
            executor="inline",
        )
        result = sharded.run_saturated(
            invocations_per_function=task.invocations_per_function
        )
        traces: List[FinishedTrace] = []
    else:
        cluster = HybridCluster(
            sbc_count=task.sbc_count,
            vm_count=task.vm_count,
            seed=task.seed,
            trace=task.trace,
        )
        result = cluster.run_saturated(
            invocations_per_function=task.invocations_per_function
        )
        traces = cluster.finished_traces()
    telemetry = result.telemetry
    energy = result.energy_by_platform

    def platform_stats(platform: str) -> Tuple[int, Optional[float]]:
        if platform not in telemetry.platforms_seen:
            return 0, None
        return (
            telemetry.platform_count(platform),
            telemetry.platform_percentile_latency_s(platform, 99.0),
        )

    arm_jobs, arm_p99 = platform_stats(ARM)
    x86_jobs, x86_p99 = platform_stats(X86)
    point = HybridStudyPoint(
        sbc_count=task.sbc_count,
        vm_count=task.vm_count,
        jobs_completed=result.jobs_completed,
        duration_s=result.duration_s,
        throughput_per_min=result.throughput_per_min,
        energy_joules=result.energy_joules,
        joules_per_function=result.joules_per_function,
        predicted_throughput_per_min=hybrid_throughput_per_min(
            task.sbc_count, task.vm_count
        ),
        arm_jobs=arm_jobs,
        x86_jobs=x86_jobs,
        arm_energy_joules=energy.get(ARM, 0.0),
        x86_energy_joules=energy.get(X86, 0.0),
        arm_p99_latency_s=arm_p99,
        x86_p99_latency_s=x86_p99,
    )
    return point, traces


def run(
    mixes: Sequence[Tuple[int, int]] = DEFAULT_MIXES,
    invocations_per_function: int = 4,
    seed: int = 7,
    jobs: int = 1,
    trace_path: Optional[str] = None,
    shards: int = 1,
) -> HybridStudyResult:
    """Sweep SBC:VM mixes over independent seeded cluster runs.

    With ``trace_path`` set, the most heterogeneous point (largest
    ``min(sbc, vm)``, i.e. the most evenly mixed) records spans as it
    runs, on the serial engine, and its span trees are written to that
    path.

    ``shards > 1`` runs each point through the sharded engine
    (bit-identical results; see :class:`repro.shard.ShardedCluster`).
    Capped per point at its worker count.
    """
    if not mixes:
        raise ValueError("need at least one mix")
    for sbc_count, vm_count in mixes:
        if sbc_count < 0 or vm_count < 0:
            raise ValueError("worker counts must be non-negative")
        if sbc_count + vm_count < 1:
            raise ValueError("each mix needs at least one worker")
    if invocations_per_function < 1:
        raise ValueError("invocations_per_function must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    tasks = [
        HybridStudyTask(
            sbc,
            vm,
            invocations_per_function,
            seed,
            shards=min(shards, sbc + vm),
        )
        for sbc, vm in mixes
    ]
    points = map_traced(
        tasks,
        _run_mix_point,
        jobs=jobs,
        trace_path=trace_path,
        traced=max(
            tasks, key=lambda t: (min(t.sbc_count, t.vm_count), t.sbc_count)
        ),
    )
    return HybridStudyResult(points=points)


def render(result: HybridStudyResult) -> str:
    def p99(value: Optional[float]) -> str:
        return f"{value:.1f}" if value is not None else "-"

    rows = []
    for point in result.points:
        rows.append(
            (
                f"{point.sbc_count}+{point.vm_count}",
                point.jobs_completed,
                f"{point.throughput_per_min:.0f}",
                f"{point.predicted_throughput_per_min:.0f}",
                f"{point.joules_per_function:.1f}",
                point.arm_jobs,
                point.x86_jobs,
                f"{point.arm_energy_joules:.0f}",
                f"{point.x86_energy_joules:.0f}",
                p99(point.arm_p99_latency_s),
                p99(point.x86_p99_latency_s),
            )
        )
    table = format_table(
        [
            "sbc+vm",
            "jobs",
            "func/min",
            "pred",
            "J/func",
            "arm jobs",
            "x86 jobs",
            "arm J",
            "x86 J",
            "arm p99 s",
            "x86 p99 s",
        ],
        rows,
        title="Hybrid study - SBC:VM mix sweep (energy-aware policy)",
    )
    efficient = result.best_joules_per_function()
    fast = result.best_throughput()
    closing = (
        f"\nmost efficient mix: {efficient.sbc_count} SBC + "
        f"{efficient.vm_count} VM at "
        f"{efficient.joules_per_function:.1f} J/function; fastest mix: "
        f"{fast.sbc_count} SBC + {fast.vm_count} VM at "
        f"{fast.throughput_per_min:.0f} func/min."
    )
    return table + closing


def tables(result: HybridStudyResult) -> List[Table]:
    """``hybrid_study.csv``: one row per mix, with per-platform splits."""
    rows = [
        (p.sbc_count, p.vm_count, p.worker_count, p.jobs_completed,
         p.duration_s, p.throughput_per_min, p.predicted_throughput_per_min,
         p.energy_joules, p.joules_per_function, p.arm_jobs, p.x86_jobs,
         p.arm_energy_joules, p.x86_energy_joules,
         p.arm_p99_latency_s if p.arm_p99_latency_s is not None else "",
         p.x86_p99_latency_s if p.x86_p99_latency_s is not None else "")
        for p in result.points
    ]
    return [(
        "hybrid_study.csv",
        ["sbc_count", "vm_count", "workers", "jobs", "duration_s",
         "func_per_min", "predicted_func_per_min", "energy_joules",
         "joules_per_function", "arm_jobs", "x86_jobs", "arm_energy_joules",
         "x86_energy_joules", "arm_p99_latency_s", "x86_p99_latency_s"],
        rows,
    )]
