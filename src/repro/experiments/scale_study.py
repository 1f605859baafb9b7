"""Scale study: from the 10-SBC prototype toward datacenter scale.

The paper positions its testbed as "a small-scale proof-of-concept for a
future datacenter-scale serverless platform" (Sec. IV-B) and costs a
989-SBC rack in Table II.  This experiment asks what actually happens
when the prototype's architecture is scaled: worker throughput grows
linearly (hardware-isolated workers don't contend), ToR switches
accumulate (ceil(N/ports), as the TCO model assumes), and the paper's
*single-SBC orchestration platform* becomes the bottleneck — its
per-invocation dispatch/collect CPU caps the cluster around
``1 / (dispatch + collect)`` jobs per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cluster import MicroFaaSCluster
from repro.core.controlplane import ControlPlaneModel
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments.report import Table, format_table
from repro.experiments.runner import run_map
from repro.shard import ClusterSpec, ShardedCluster
from repro.workloads.profiles import PROFILES

#: The frontier sweep: cluster sizes from two racks up to five times the
#: TCO analysis's 989-SBC rack.  Points this large run with streaming
#: telemetry (see :func:`run`'s ``streaming_threshold``).
FRONTIER_WORKER_COUNTS = (2000, 3000, 4000, 5000)

#: The sharded-execution limit point: a hundred thousand workers — two
#: orders of magnitude past the costed rack.  Only reachable with
#: ``shards > 1`` (one serial event loop cannot turn the event volume
#: over in reasonable wall-clock) and streaming telemetry (exact-mode
#: records would not fit in memory).
FRONTIER_LIMIT_WORKER_COUNT = 100_000


@dataclass(frozen=True)
class ScalePoint:
    """One cluster size's measurement.

    ``unconstrained_per_min`` is the same cluster and workload with a
    free control plane — so ``scaling_efficiency`` isolates exactly what
    the single-SBC OP costs (batch-tail effects cancel out).
    """

    worker_count: int
    switch_count: int
    throughput_per_min: float
    unconstrained_per_min: float
    control_plane_utilization: float
    #: How many simulation shards produced this point (1 = serial).
    shards: int = 1

    @property
    def scaling_efficiency(self) -> float:
        """Throughput retained once the OP's CPU is accounted for."""
        return self.throughput_per_min / self.unconstrained_per_min


@dataclass(frozen=True)
class ScaleStudyResult:
    points: List[ScalePoint]
    control_plane: ControlPlaneModel

    @property
    def control_plane_ceiling_per_min(self) -> float:
        """Analytic control-plane capacity, func/min."""
        return self.control_plane.capacity_jobs_per_s * 60.0

    def op_link_utilization(self, throughput_per_min: float) -> float:
        """Fraction of the OP's GigE link that invocation payloads use.

        Shows the fabric is *not* the bottleneck at these scales — the
        contrast with Gand et al.'s network-bound Docker-Swarm cluster
        that Sec. II cites.
        """
        mean_payload = sum(
            p.input_bytes + p.output_bytes for p in PROFILES.values()
        ) / len(PROFILES)
        bits_per_s = throughput_per_min / 60.0 * mean_payload * 8
        return bits_per_s / 940e6


@dataclass(frozen=True)
class ScaleTask:
    """Picklable spec for one cluster size's constrained + free pair."""

    worker_count: int
    jobs_per_worker: int
    seed: int
    control_plane: ControlPlaneModel
    #: Use the streaming telemetry collector (frontier-scale points;
    #: value-identical to exact mode for everything a ScalePoint needs).
    streaming_telemetry: bool = False
    #: Split the simulation across this many shard processes.  With one
    #: shard the point runs the serial engine; with more, the control
    #: plane is sharded too (one OP dispatcher per shard), which is the
    #: "sharded OP" regime the render footnote points at — utilization
    #: is then total OP busy time over ``shards`` dispatcher-seconds.
    shards: int = 1


def _run_sharded_point(task: ScaleTask) -> ScalePoint:
    per_function = max(1, (task.jobs_per_worker * task.worker_count) // 17)
    constrained_spec = ClusterSpec(
        kind="microfaas",
        worker_count=task.worker_count,
        seed=task.seed,
        policy="least-loaded",
        telemetry_exact=not task.streaming_telemetry,
        control_plane=task.control_plane,
    )
    with ShardedCluster(constrained_spec, task.shards) as constrained:
        result = constrained.run_saturated(
            invocations_per_function=per_function
        )
        switch_count = constrained.stats.switch_count
        busy_seconds = constrained.stats.cp_busy_seconds
    free_spec = ClusterSpec(
        kind="microfaas",
        worker_count=task.worker_count,
        seed=task.seed,
        policy="least-loaded",
        telemetry_exact=not task.streaming_telemetry,
    )
    with ShardedCluster(free_spec, task.shards) as free:
        baseline = free.run_saturated(invocations_per_function=per_function)
    return ScalePoint(
        worker_count=task.worker_count,
        switch_count=switch_count,
        throughput_per_min=result.throughput_per_min,
        unconstrained_per_min=baseline.throughput_per_min,
        control_plane_utilization=busy_seconds
        / (task.shards * result.duration_s),
        shards=task.shards,
    )


def _run_scale_point(task: ScaleTask) -> ScalePoint:
    """Worker: one cluster size, measured with and without the OP."""
    if task.shards > 1:
        return _run_sharded_point(task)
    per_function = max(1, (task.jobs_per_worker * task.worker_count) // 17)
    exact = not task.streaming_telemetry
    # Both clusters share one construction plan: the fabric arithmetic
    # runs once instead of twice per point.
    blueprint = ClusterSpec(
        kind="microfaas", worker_count=task.worker_count
    ).blueprint()
    constrained = MicroFaaSCluster(
        worker_count=task.worker_count,
        seed=task.seed,
        policy=LeastLoadedPolicy(),
        control_plane=task.control_plane,
        telemetry_exact=exact,
        blueprint=blueprint,
    )
    result = constrained.run_saturated(invocations_per_function=per_function)
    free = MicroFaaSCluster(
        worker_count=task.worker_count,
        seed=task.seed,
        policy=LeastLoadedPolicy(),
        telemetry_exact=exact,
        blueprint=blueprint,
    )
    baseline = free.run_saturated(invocations_per_function=per_function)
    return ScalePoint(
        worker_count=task.worker_count,
        switch_count=len(constrained.switches),
        throughput_per_min=result.throughput_per_min,
        unconstrained_per_min=baseline.throughput_per_min,
        control_plane_utilization=constrained.control_plane.utilization(
            result.duration_s
        ),
    )


def run(
    worker_counts: Sequence[int] = (10, 50, 100, 200, 400, 600, 800),
    jobs_per_worker: int = 5,
    control_plane: ControlPlaneModel = ControlPlaneModel(),
    seed: int = 1,
    jobs: int = 1,
    streaming_threshold: int = 1000,
    shards: int = 1,
) -> ScaleStudyResult:
    """Sweep cluster sizes under the single-SBC control plane.

    Each size is an independent task spec (seed included), so the sweep
    parallelizes across ``jobs`` processes without changing any value.
    Points at or above ``streaming_threshold`` workers collect telemetry
    in streaming mode so their memory stays bounded (throughput and OP
    utilization are mode-independent).

    ``shards > 1`` splits every point's simulation across that many
    shard processes (see :mod:`repro.shard`) and shards the OP with it
    — required for the :data:`FRONTIER_LIMIT_WORKER_COUNT` point, where
    one event loop cannot turn over the event volume.  Prefer
    ``jobs=1`` when sharding: the parallelism budget is better spent
    inside each point than across points.
    """
    if jobs_per_worker < 1:
        raise ValueError("jobs_per_worker must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    tasks = [
        ScaleTask(
            count,
            jobs_per_worker,
            seed,
            control_plane,
            streaming_telemetry=count >= streaming_threshold,
            shards=shards,
        )
        for count in worker_counts
    ]
    points = run_map(tasks, _run_scale_point, jobs=jobs)
    return ScaleStudyResult(points=points, control_plane=control_plane)


def run_frontier(
    jobs_per_worker: int = 3,
    control_plane: ControlPlaneModel = ControlPlaneModel(),
    seed: int = 1,
    jobs: int = 1,
    shards: int = 1,
    worker_counts: Sequence[int] = FRONTIER_WORKER_COUNTS,
) -> ScaleStudyResult:
    """The 2,000–5,000-worker sweep (always streaming telemetry).

    Pass ``shards > 1`` with
    ``worker_counts=(*FRONTIER_WORKER_COUNTS, FRONTIER_LIMIT_WORKER_COUNT)``
    to push the sweep to the 100k-worker limit point.
    """
    return run(
        worker_counts=worker_counts,
        jobs_per_worker=jobs_per_worker,
        control_plane=control_plane,
        seed=seed,
        jobs=jobs,
        streaming_threshold=0,
        shards=shards,
    )


def render(result: ScaleStudyResult) -> str:
    sharded = any(point.shards > 1 for point in result.points)
    rows = [
        (
            point.worker_count,
            point.switch_count,
            f"{point.throughput_per_min:.0f}",
            f"{point.unconstrained_per_min:.0f}",
            f"{point.scaling_efficiency * 100:.0f}%",
            f"{point.control_plane_utilization * 100:.0f}%",
        )
        + ((point.shards,) if sharded else ())
        for point in result.points
    ]
    headers = ["workers", "switches", "func/min", "free OP", "retained", "OP util"]
    if sharded:
        headers.append("shards")
    table = format_table(
        headers,
        rows,
        title="Scale study - the prototype architecture beyond 10 SBCs",
    )
    busiest = max(p.throughput_per_min for p in result.points)
    if sharded:
        shards = max(p.shards for p in result.points)
        ceiling_note = (
            f"\nper-dispatcher OP ceiling: "
            f"{result.control_plane_ceiling_per_min:.0f} func/min "
            f"({result.control_plane.dispatch_s * 1000:.0f} ms dispatch + "
            f"{result.control_plane.collect_s * 1000:.0f} ms collect per job); "
            f"the {shards}-way sharded OP lifts the cluster ceiling to "
            f"{result.control_plane_ceiling_per_min * shards:.0f} func/min."
        )
    else:
        ceiling_note = (
            f"\nsingle-SBC control plane ceiling: "
            f"{result.control_plane_ceiling_per_min:.0f} func/min "
            f"({result.control_plane.dispatch_s * 1000:.0f} ms dispatch + "
            f"{result.control_plane.collect_s * 1000:.0f} ms collect per job); "
            "scaling past it needs a sharded OP — rerun with --shards N "
            "to model one (repro.shard splits both the simulation and "
            "the OP into N dispatchers)."
        )
    return table + ceiling_note + (
        f"\nOP uplink at the busiest point: "
        f"{result.op_link_utilization(busiest) * 100:.1f}% of GigE — "
        "the fabric is not the bottleneck; the control plane's CPU is."
    )


def tables(result: ScaleStudyResult) -> List[Table]:
    """``scale_study.csv``: one row per cluster size."""
    rows = [
        (p.worker_count, p.switch_count, p.throughput_per_min,
         p.unconstrained_per_min, p.scaling_efficiency,
         p.control_plane_utilization,
         result.op_link_utilization(p.throughput_per_min))
        for p in result.points
    ]
    return [(
        "scale_study.csv",
        ["workers", "switches", "func_per_min", "free_op_func_per_min",
         "scaling_efficiency", "op_utilization", "op_link_utilization"],
        rows,
    )]
