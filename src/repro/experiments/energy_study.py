"""Energy study: the power-cap frontier and per-tenant budget runs.

Two sweeps over one diurnal arrival trace on the paper's SBC cluster:

1. **The cap frontier.**  Untenanted runs at each power-cap level.  A
   cap resolves to a DVFS step on the board's frequency ladder
   (:mod:`repro.hardware.power`): active draw falls with the square of
   the perf scale (CMOS), so joules per function drop while execute
   phases stretch — energy saved is paid for in p99 latency.  The
   frontier reports both, relative to the uncapped baseline, and is
   monotone along the ladder.  These points carry no control-plane
   state, so they shard (``--shards``) bit-identically.

2. **Tenant budget runs.**  The same trace split across N tenants
   (``job_id`` round-robin via the orchestrator's ``tenant_namer``
   hook), metered live by the :class:`~repro.energy.controlplane.
   EnergyLedger` and throttled by a :class:`~repro.core.policies.
   BudgetPolicy` at descending budget scales.  Each point reports the
   per-tenant attribution, how many submissions were delayed or shed,
   and the ledger's conservation residual (≤ 1e-9).  Budget points are
   always serial: the ledger meters per-board traces the coordinator
   does not hold.

Every point is an independent, seeded task on
:func:`~repro.experiments.runner.map_traced`, so the sweep is
bit-identical at any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.microfaas import MicroFaaSCluster
from repro.cluster.replay import replay_trace
from repro.core.policies import BudgetPolicy
from repro.experiments.report import Table, format_table
from repro.experiments.runner import map_traced
from repro.obs.trace import FinishedTrace, TraceConfig
from repro.shard import ClusterSpec, ShardedCluster
from repro.sim.rng import RandomStreams
from repro.workloads.traces import diurnal_trace

#: Cap ladder swept by default: uncapped, then the BeagleBone's two
#: lower DVFS steps (2.20 W peak -> 1.5 W selects the 0.8x step,
#: 1.0 W the 0.6x step).
DEFAULT_CAPS: Tuple[Optional[float], ...] = (None, 1.5, 1.0)

#: Budget scales swept by default (x :data:`BASE_BUDGET_J_PER_WINDOW`).
DEFAULT_BUDGET_SCALES: Tuple[float, ...] = (2.0, 1.0, 0.5)

#: Nominal per-tenant budget at scale 1.0.  Sized against the default
#: trace: ~1.5 jobs/s at peak over 3 tenants x ~5.7 J active per
#: function ~= 170 J per 60 s window per tenant, so scale 2.0 never
#: throttles, 1.0 throttles near peak, 0.5 throttles hard.
BASE_BUDGET_J_PER_WINDOW = 120.0

#: Budget accounting window (seconds).
BUDGET_WINDOW_S = 60.0

#: Power cap applied to the budgeted runs (cap + budgets compose).
BUDGETED_CAP_WATTS = 1.5


@dataclass(frozen=True)
class EnergyStudyTask:
    """Picklable spec for one study point.

    ``budget_scale is None`` marks an untenanted cap-frontier point;
    otherwise the point runs tenanted under a budget controller.
    """

    cap_watts: Optional[float]
    budget_scale: Optional[float]
    tenants: int
    trough_rate_per_s: float
    peak_rate_per_s: float
    period_s: float
    duration_s: float
    worker_count: int
    seed: int
    #: Shards for frontier points (budget points always run serial).
    shards: int = 1
    trace: Optional[TraceConfig] = None


@dataclass(frozen=True)
class EnergyStudyPoint:
    """One point's measurements."""

    cap_watts: Optional[float]
    budget_scale: Optional[float]
    jobs_completed: int
    duration_s: float
    throughput_per_min: float
    energy_joules: float
    joules_per_function: float
    p99_latency_s: float
    jobs_delayed: int
    jobs_shed: int
    #: Per-tenant attributed joules ``((tenant, joules), ...)`` sorted
    #: by tenant name; empty for untenanted frontier points.
    tenant_joules: Tuple[Tuple[str, float], ...]
    #: Ledger conservation residual (metered - attributed); None when
    #: no ledger was attached (frontier points).
    reconciliation_residual_j: Optional[float]
    idle_overhead_j: Optional[float]
    wasted_j: Optional[float]


@dataclass(frozen=True)
class FrontierEntry:
    """One cap level relative to the uncapped baseline."""

    point: EnergyStudyPoint
    energy_saved_j: float
    p99_paid_s: float


@dataclass(frozen=True)
class EnergyStudyResult:
    points: List[EnergyStudyPoint]

    def frontier_points(self) -> List[EnergyStudyPoint]:
        """Cap-frontier points, uncapped first then descending caps."""
        frontier = [p for p in self.points if p.budget_scale is None]
        return sorted(
            frontier,
            key=lambda p: -p.cap_watts if p.cap_watts is not None else float(
                "-inf"
            ),
        )

    def budget_points(self) -> List[EnergyStudyPoint]:
        """Tenanted budget points, descending budget scale."""
        budgeted = [p for p in self.points if p.budget_scale is not None]
        return sorted(budgeted, key=lambda p: -p.budget_scale)

    def frontier(self) -> List[FrontierEntry]:
        """The energy-saved vs p99-paid frontier vs the uncapped run."""
        frontier = self.frontier_points()
        if not frontier or frontier[0].cap_watts is not None:
            raise ValueError("frontier needs an uncapped baseline point")
        baseline = frontier[0]
        return [
            FrontierEntry(
                point=point,
                energy_saved_j=baseline.energy_joules - point.energy_joules,
                p99_paid_s=point.p99_latency_s - baseline.p99_latency_s,
            )
            for point in frontier
        ]


def _point_trace(task: EnergyStudyTask):
    """The shared diurnal arrival trace (seeded, regenerated per run)."""
    return diurnal_trace(
        task.trough_rate_per_s,
        task.peak_rate_per_s,
        period_s=task.period_s,
        duration_s=task.duration_s,
        streams=RandomStreams(task.seed),
    )


def _budget_policy(task: EnergyStudyTask) -> BudgetPolicy:
    return BudgetPolicy(
        window_s=BUDGET_WINDOW_S,
        default_budget_j=task.budget_scale * BASE_BUDGET_J_PER_WINDOW,
        action="delay",
    )


def _run_point(
    task: EnergyStudyTask,
) -> Tuple[EnergyStudyPoint, List[FinishedTrace]]:
    """Worker: one diurnal replay at one (cap, budget) setting.

    Frontier points (no budget) carry no control-plane state and shard;
    budget points are tenanted, metered and always serial, as is a
    traced point (its recorder lives in the one cluster).
    """
    if task.budget_scale is None and task.shards > 1 and task.trace is None:
        sharded = ShardedCluster(
            ClusterSpec(
                kind="microfaas",
                worker_count=task.worker_count,
                seed=task.seed,
                power_cap_watts=task.cap_watts,
            ),
            task.shards,
            executor="inline",
        )
        result = sharded.replay_trace(_point_trace(task))
        traces: List[FinishedTrace] = []
    else:
        cluster = MicroFaaSCluster(
            worker_count=task.worker_count, seed=task.seed, trace=task.trace
        )
        if task.cap_watts is not None:
            cluster.set_power_cap(task.cap_watts)
        if task.budget_scale is not None:
            cluster.enable_tenant_budgets(_budget_policy(task))
            tenants = task.tenants
            cluster.orchestrator.tenant_namer = (
                lambda job_id, function: f"tenant-{job_id % tenants}"
            )
        result = replay_trace(cluster, _point_trace(task))
        traces = cluster.finished_traces()
    if task.budget_scale is None:
        control = dict(
            jobs_delayed=0,
            jobs_shed=0,
            tenant_joules=(),
            reconciliation_residual_j=None,
            idle_overhead_j=None,
            wasted_j=None,
        )
    else:
        ledger = cluster.orchestrator.ledger
        # Settle the ledger's tails before reading its joules.
        report = ledger.reconcile(end=result.duration_s)
        control = dict(
            jobs_delayed=cluster.orchestrator.budgets.jobs_delayed,
            jobs_shed=cluster.orchestrator.jobs_shed,
            tenant_joules=tuple(sorted(ledger.tenant_joules.items())),
            reconciliation_residual_j=report.residual_joules,
            idle_overhead_j=ledger.overhead_joules["idle"],
            wasted_j=ledger.overhead_joules["wasted"],
        )
    point = EnergyStudyPoint(
        cap_watts=task.cap_watts,
        budget_scale=task.budget_scale,
        jobs_completed=result.jobs_completed,
        duration_s=result.duration_s,
        throughput_per_min=result.throughput_per_min,
        energy_joules=result.energy_joules,
        joules_per_function=result.joules_per_function,
        p99_latency_s=result.telemetry.percentile_latency_s(99.0),
        **control,
    )
    return point, traces


def run(
    caps: Sequence[Optional[float]] = DEFAULT_CAPS,
    budget_scales: Sequence[float] = DEFAULT_BUDGET_SCALES,
    tenants: int = 3,
    worker_count: int = 8,
    trough_rate_per_s: float = 0.3,
    peak_rate_per_s: float = 1.5,
    period_s: float = 120.0,
    duration_s: float = 240.0,
    seed: int = 7,
    jobs: int = 1,
    trace_path: Optional[str] = None,
    shards: int = 1,
) -> EnergyStudyResult:
    """Sweep power caps (frontier) and tenant budgets over one trace.

    ``caps`` must include ``None`` — the uncapped baseline the frontier
    is measured against.  ``shards > 1`` runs each frontier point
    through the sharded engine (bit-identical; budget points stay
    serial).  With ``trace_path`` set, the largest-scale budget point
    records spans as it runs and its span trees are written there.
    """
    if None not in caps:
        raise ValueError("caps must include None (the uncapped baseline)")
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    if duration_s <= 0 or period_s <= 0:
        raise ValueError("trace durations must be positive")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    for scale in budget_scales:
        if scale <= 0:
            raise ValueError("budget scales must be positive")

    def make_task(cap, scale, point_shards):
        return EnergyStudyTask(
            cap_watts=cap,
            budget_scale=scale,
            tenants=tenants,
            trough_rate_per_s=trough_rate_per_s,
            peak_rate_per_s=peak_rate_per_s,
            period_s=period_s,
            duration_s=duration_s,
            worker_count=worker_count,
            seed=seed,
            shards=point_shards,
        )

    tasks = [
        make_task(cap, None, min(shards, worker_count)) for cap in caps
    ] + [
        make_task(BUDGETED_CAP_WATTS, scale, 1) for scale in budget_scales
    ]
    points = map_traced(
        tasks,
        _run_point,
        jobs=jobs,
        trace_path=trace_path,
        traced=max(
            (t for t in tasks if t.budget_scale is not None),
            key=lambda t: t.budget_scale,
            default=None,
        ),
    )
    return EnergyStudyResult(points=points)


def render(result: EnergyStudyResult) -> str:
    def cap_label(cap: Optional[float]) -> str:
        return f"{cap:.1f}W" if cap is not None else "none"

    rows = []
    for entry in result.frontier():
        point = entry.point
        rows.append(
            (
                cap_label(point.cap_watts),
                "-",
                point.jobs_completed,
                f"{point.throughput_per_min:.0f}",
                f"{point.energy_joules:.0f}",
                f"{point.joules_per_function:.2f}",
                f"{point.p99_latency_s:.2f}",
                f"{entry.energy_saved_j:.0f}",
                f"{entry.p99_paid_s:.2f}",
                "-",
                "-",
            )
        )
    for point in result.budget_points():
        rows.append(
            (
                cap_label(point.cap_watts),
                f"{point.budget_scale:.1f}x",
                point.jobs_completed,
                f"{point.throughput_per_min:.0f}",
                f"{point.energy_joules:.0f}",
                f"{point.joules_per_function:.2f}",
                f"{point.p99_latency_s:.2f}",
                "-",
                "-",
                point.jobs_delayed,
                point.jobs_shed,
            )
        )
    table = format_table(
        [
            "cap",
            "budget",
            "jobs",
            "func/min",
            "J",
            "J/func",
            "p99 s",
            "J saved",
            "p99 paid",
            "delayed",
            "shed",
        ],
        rows,
        title="Energy study - power-cap frontier + tenant budgets",
    )
    frontier = result.frontier()
    deepest = frontier[-1]
    closing = (
        f"\ncap {cap_label(deepest.point.cap_watts)} saves "
        f"{deepest.energy_saved_j:.0f} J over the uncapped run and pays "
        f"{deepest.p99_paid_s:.2f} s of p99."
    )
    budgeted = result.budget_points()
    if budgeted:
        tightest = budgeted[-1]
        residual = tightest.reconciliation_residual_j
        closing += (
            f"\ntightest budget ({tightest.budget_scale:.1f}x) delayed "
            f"{tightest.jobs_delayed} submissions; ledger residual "
            f"{residual:.2e} J."
        )
    return table + closing


def tables(result: EnergyStudyResult) -> List[Table]:
    """The cap frontier and the per-tenant attribution.

    ``energy_study.csv`` has one row per point, with the frontier's
    energy-saved / p99-paid columns on cap points;
    ``energy_study_tenants.csv`` has one row per (budget point, tenant)
    from the online ledger.
    """
    frontier = {e.point.cap_watts: e for e in result.frontier()}
    rows = []
    for p in result.points:
        entry = frontier.get(p.cap_watts) if p.budget_scale is None else None
        rows.append(
            (p.cap_watts if p.cap_watts is not None else "",
             p.budget_scale if p.budget_scale is not None else "",
             p.jobs_completed, p.duration_s, p.throughput_per_min,
             p.energy_joules, p.joules_per_function, p.p99_latency_s,
             entry.energy_saved_j if entry is not None else "",
             entry.p99_paid_s if entry is not None else "",
             p.jobs_delayed, p.jobs_shed,
             p.reconciliation_residual_j
             if p.reconciliation_residual_j is not None else "",
             p.idle_overhead_j if p.idle_overhead_j is not None else "",
             p.wasted_j if p.wasted_j is not None else "")
        )
    tenant_rows = [
        (p.cap_watts, p.budget_scale, tenant, joules)
        for p in result.budget_points()
        for tenant, joules in p.tenant_joules
    ]
    return [
        ("energy_study.csv",
         ["cap_watts", "budget_scale", "jobs", "duration_s", "func_per_min",
          "energy_joules", "joules_per_function", "p99_latency_s",
          "energy_saved_j", "p99_paid_s", "jobs_delayed", "jobs_shed",
          "reconciliation_residual_j", "idle_overhead_j", "wasted_j"],
         rows),
        ("energy_study_tenants.csv",
         ["cap_watts", "budget_scale", "tenant", "attributed_joules"],
         tenant_rows),
    ]
