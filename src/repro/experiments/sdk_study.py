"""SDK study: client-driven fan-out/map_reduce workloads (extension).

Every other experiment drives the cluster from the server side (batch
submission or arrival processes).  This one drives it through the
:mod:`repro.client` SDK the way a FaaS user would: ``users``
concurrent client sessions each issue a ``map_reduce`` — a fan-out of
``fanout`` invocations (round-robin over the 17-function suite)
chained into one reduce call whose input bills every map output
through the transfer model — over the default batching invoker, so
the whole fan-out rides the batched-arrival fast path.

The sweep crosses users × fan-out × backend kind (the paper's two
clusters plus the hybrid mix) and reports both sides of the contract:
backend throughput/energy (func/min, J/function) and client-perceived
latency (p50/p99 over the map futures, mean reduce latency), plus the
monitor's duplicate/timeout counters.

Every point is an independent seeded task on
:func:`~repro.experiments.runner.map_traced`, so the sweep is
bit-identical at any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.client import FunctionExecutor
from repro.cluster import (
    ConventionalCluster,
    HybridCluster,
    MicroFaaSCluster,
)
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments.report import Table, format_table
from repro.experiments.runner import map_traced
from repro.obs.trace import FinishedTrace, TraceConfig
from repro.workloads.base import ALL_FUNCTION_NAMES

#: Backend kinds the study sweeps (constructor shapes match the
#: paper's throughput-matched clusters; hybrid is the 6+3 midpoint).
BACKEND_KINDS: Tuple[str, ...] = ("microfaas", "conventional", "hybrid")

#: The reduce stage of every map_reduce (hash over gathered outputs).
REDUCE_FUNCTION = "CascSHA"


@dataclass(frozen=True)
class SdkStudyTask:
    """Picklable spec for one (users, fanout, backend) point."""

    users: int
    fanout: int
    kind: str
    seed: int
    trace: Optional[TraceConfig] = None


@dataclass(frozen=True)
class SdkStudyPoint:
    """One point's measurements, backend-side and client-side."""

    users: int
    fanout: int
    kind: str
    #: Client calls accepted (maps + reduces) and their outcomes.
    calls: int
    succeeded: int
    errors: int
    #: Backend-side accounting.
    jobs_completed: int
    duration_s: float
    throughput_per_min: float
    energy_joules: float
    joules_per_function: float
    #: Client-perceived latency over the map futures.
    client_p50_s: float
    client_p99_s: float
    #: Mean reduce latency (creation → resolution; includes the wait
    #: for every parent map).
    reduce_latency_s: float
    #: Monitor/invoker counters.
    duplicates_suppressed: int
    batches_flushed: int


@dataclass(frozen=True)
class SdkStudyResult:
    points: List[SdkStudyPoint]

    def best_joules_per_function(self) -> SdkStudyPoint:
        return min(self.points, key=lambda p: p.joules_per_function)


def build_backend(kind: str, seed: int, trace: Optional[TraceConfig] = None):
    """A seeded cluster for one backend kind."""
    if kind == "microfaas":
        return MicroFaaSCluster(
            worker_count=10, seed=seed, policy=LeastLoadedPolicy(),
            trace=trace,
        )
    if kind == "conventional":
        return ConventionalCluster(
            vm_count=6, seed=seed, policy=LeastLoadedPolicy(), trace=trace
        )
    if kind == "hybrid":
        return HybridCluster(sbc_count=6, vm_count=3, seed=seed, trace=trace)
    raise ValueError(f"unknown backend kind {kind!r}")


# Rank round(p*n)-1, unlike percentiles(method="nearest"): do not merge.
def _percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        raise ValueError("no values")
    rank = max(
        0, min(len(sorted_values) - 1, round(pct / 100.0 * len(sorted_values)) - 1)
    )
    return sorted_values[rank]


def _run_point(
    task: SdkStudyTask,
) -> Tuple[SdkStudyPoint, List[FinishedTrace]]:
    """Worker: one client-driven run of one sweep point."""
    cluster = build_backend(task.kind, task.seed, trace=task.trace)
    executor = FunctionExecutor(cluster)
    reduce_futures = []
    map_futures = []
    names = ALL_FUNCTION_NAMES
    for user in range(task.users):
        # Round-robin fan-out, offset per user so sessions differ.
        fan = [
            names[(user + index) % len(names)]
            for index in range(task.fanout)
        ]
        reduce_future = executor.map_reduce(fan, REDUCE_FUNCTION)
        map_futures.extend(reduce_future.parents)
        reduce_futures.append(reduce_future)
    _done, not_done = executor.wait()
    if not_done:
        raise RuntimeError(f"{len(not_done)} unresolved SDK calls")
    duration_s = cluster.env.now
    result = cluster.result_snapshot(duration_s)
    latencies = sorted(f.latency_s for f in map_futures if f.success)
    stats = executor.stats
    point = SdkStudyPoint(
        users=task.users,
        fanout=task.fanout,
        kind=task.kind,
        calls=len(executor.futures),
        succeeded=stats.succeeded,
        errors=stats.failed,
        jobs_completed=result.jobs_completed,
        duration_s=duration_s,
        throughput_per_min=result.throughput_per_min,
        energy_joules=result.energy_joules,
        joules_per_function=result.joules_per_function,
        client_p50_s=_percentile(latencies, 50.0),
        client_p99_s=_percentile(latencies, 99.0),
        reduce_latency_s=(
            sum(f.latency_s for f in reduce_futures) / len(reduce_futures)
        ),
        duplicates_suppressed=stats.duplicates_suppressed,
        batches_flushed=getattr(executor.invoker, "batches_flushed", 0),
    )
    return point, cluster.finished_traces()


def run(
    user_counts: Sequence[int] = (1, 4),
    fanouts: Sequence[int] = (8, 32),
    kinds: Sequence[str] = BACKEND_KINDS,
    seed: int = 11,
    jobs: int = 1,
    trace_path: Optional[str] = None,
) -> SdkStudyResult:
    """Sweep users × fan-out × backend kind over independent tasks.

    With ``trace_path`` set, the widest point (most users × fan-out)
    on the first backend kind records spans as it runs and its span
    trees are written to that path.  Client spans
    (``client_submit``/``client_wait``/``client_retry``) land as
    annotations in each sampled job's span tree, so the trace shows
    the SDK layer nested into the platform's.
    """
    if not user_counts or not fanouts or not kinds:
        raise ValueError("need at least one user count, fanout, and kind")
    for users in user_counts:
        if users < 1:
            raise ValueError("user counts must be >= 1")
    for fanout in fanouts:
        if fanout < 1:
            raise ValueError("fanouts must be >= 1")
    for kind in kinds:
        if kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {kind!r}")
    tasks = [
        SdkStudyTask(users, fanout, kind, seed)
        for users in user_counts
        for fanout in fanouts
        for kind in kinds
    ]
    points = map_traced(
        tasks,
        _run_point,
        jobs=jobs,
        trace_path=trace_path,
        traced=max(
            tasks, key=lambda t: (t.users * t.fanout, t.kind == kinds[0])
        ),
    )
    return SdkStudyResult(points=points)


def render(result: SdkStudyResult) -> str:
    rows = []
    for point in result.points:
        rows.append(
            (
                point.kind,
                point.users,
                point.fanout,
                point.calls,
                point.jobs_completed,
                f"{point.throughput_per_min:.0f}",
                f"{point.joules_per_function:.1f}",
                f"{point.client_p50_s:.1f}",
                f"{point.client_p99_s:.1f}",
                f"{point.reduce_latency_s:.1f}",
                point.errors,
            )
        )
    table = format_table(
        [
            "backend",
            "users",
            "fanout",
            "calls",
            "jobs",
            "func/min",
            "J/func",
            "p50 s",
            "p99 s",
            "reduce s",
            "errors",
        ],
        rows,
        title="SDK study - client-driven map_reduce sweep",
    )
    best = result.best_joules_per_function()
    return table + (
        f"\nmost efficient point: {best.kind} at {best.users} users x "
        f"{best.fanout} fan-out, {best.joules_per_function:.1f} J/function "
        f"({best.client_p99_s:.1f} s client p99)."
    )


def tables(result: SdkStudyResult) -> List[Table]:
    """``sdk_study.csv``: one row per (users, fanout, backend)."""
    rows = [
        (p.kind, p.users, p.fanout, p.calls, p.succeeded, p.errors,
         p.jobs_completed, p.duration_s, p.throughput_per_min,
         p.energy_joules, p.joules_per_function, p.client_p50_s,
         p.client_p99_s, p.reduce_latency_s, p.duplicates_suppressed,
         p.batches_flushed)
        for p in result.points
    ]
    return [(
        "sdk_study.csv",
        ["backend", "users", "fanout", "calls", "succeeded", "errors",
         "jobs_completed", "duration_s", "func_per_min", "energy_joules",
         "joules_per_function", "client_p50_s", "client_p99_s",
         "reduce_latency_s", "duplicates_suppressed", "batches_flushed"],
        rows,
    )]
