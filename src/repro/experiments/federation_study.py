"""Federation study: goodput and failover across regions under outages.

The paper's cluster is one site; the ROADMAP's north star is "heavy
traffic from millions of users" — which, at planet scale, means
*regions*: several MicroFaaS clusters composed behind a fault-tolerant
gateway (:mod:`repro.federation`).  This experiment sweeps user
populations (10⁵–10⁷, driven through the batched-arrival fast path) ×
region counts × region-outage rates and reports what an operator of a
federated deployment would ask:

- goodput (delivered func/min) and the zero-lost-jobs invariant,
- client-perceived p50/p99 latency by client geography,
- failover MTTR (outage detection → recovery, per region and mean),
- cross-region traffic (jobs served away from home, payload bytes),
- energy per function, per region and aggregate.

User populations map to arrival rates at :data:`PER_USER_RPS`
invocations per user-second (10⁶ users ≈ 10 func/s federation-wide);
regions are sized from the rate against the BeagleBone's sustained
per-worker service rate at :data:`TARGET_UTILIZATION`.  Every sweep
point is an independent, seeded task on the shared
:func:`~repro.experiments.runner.map_traced` runner, so it is bit-identical at
any ``--jobs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.report import Table, format_table
from repro.experiments.runner import derive_seed, map_traced
from repro.federation import (
    FederatedCluster,
    GatewayConfig,
    RegionChaosInjector,
    RegionSpec,
)
from repro.obs.trace import FinishedTrace, TraceConfig
from repro.reliability.chaos import ChaosPlan, RegionChaosProfile
from repro.sim.rng import RandomStreams
from repro.workloads.traces import poisson_trace

#: Mean invocation rate one user contributes (≈ 0.9 invocations per
#: user-day): 10⁵ users ≈ 1 func/s, 10⁷ users ≈ 100 func/s.
PER_USER_RPS = 1e-5

#: Sustained per-worker service rate through boot→execute→report (the
#: testbed's ~200 func/min across 10 boards, Sec. V).
WORKER_JOBS_PER_S = 1.0 / 3.0

#: Regions are sized so offered load lands at this fraction of
#: capacity — busy enough to be interesting, headroom enough that a
#: single-region outage is absorbable.
TARGET_UTILIZATION = 0.6

#: Arrival-count threshold above which a point collects its telemetry
#: in streaming mode (the large-run fast path).
FAST_PATH_ARRIVALS = 10_000


@dataclass(frozen=True)
class FederationStudyTask:
    """Picklable spec for one (users × regions × outage-rate) point."""

    users: int
    region_count: int
    outage_rate_scale: float
    duration_s: float
    seed: int
    trace: Optional[TraceConfig] = None

    @property
    def rate_per_s(self) -> float:
        return self.users * PER_USER_RPS

    @property
    def workers_per_region(self) -> int:
        """Size each region for its share of the offered load."""
        total = self.rate_per_s / (WORKER_JOBS_PER_S * TARGET_UTILIZATION)
        return max(2, math.ceil(total / self.region_count))


@dataclass(frozen=True)
class RegionRow:
    """One region's share of one sweep point (CSV row shape)."""

    name: str
    workers: int
    jobs_in: int
    jobs_delivered: int
    energy_joules: float
    joules_per_function: float
    outages: int
    mean_recovery_s: Optional[float]
    cross_region_jobs: int
    cross_region_bytes: int


@dataclass(frozen=True)
class GeoLatencyRow:
    """Client-perceived latency for one client geography."""

    geo: str
    count: int
    mean_s: float
    p50_s: float
    p99_s: float


@dataclass(frozen=True)
class FederationStudyPoint:
    """One sweep point's measurements."""

    users: int
    region_count: int
    outage_rate_scale: float
    workers_per_region: int
    jobs_submitted: int
    jobs_delivered: int
    jobs_lost: int
    jobs_shed: int
    goodput_per_min: float
    reroutes: int
    hedges: int
    duplicates_suppressed: int
    ingress_drops: int
    outages: int
    mean_recovery_s: Optional[float]
    cross_region_jobs: int
    cross_region_bytes: int
    duration_s: float
    energy_joules: float
    regions: Tuple[RegionRow, ...]
    geo_latency: Tuple[GeoLatencyRow, ...]

    @property
    def joules_per_function(self) -> float:
        if self.jobs_delivered == 0:
            return float("nan")
        return self.energy_joules / self.jobs_delivered

    @property
    def worst_p99_s(self) -> float:
        """The slowest geography's p99 — the SLO the federation owes."""
        if not self.geo_latency:
            return 0.0
        return max(row.p99_s for row in self.geo_latency)

    @property
    def median_p50_s(self) -> float:
        if not self.geo_latency:
            return 0.0
        values = sorted(row.p50_s for row in self.geo_latency)
        return values[len(values) // 2]


@dataclass(frozen=True)
class FederationStudyResult:
    points: List[FederationStudyPoint]

    @property
    def total_jobs_lost(self) -> int:
        return sum(point.jobs_lost for point in self.points)


def _run_federation_point(
    task: FederationStudyTask,
) -> Tuple[FederationStudyPoint, List[FinishedTrace]]:
    """Worker: one federated arrival replay under one outage rate."""
    specs = [
        RegionSpec(
            name=f"region-{index}",
            geo=f"region-{index}",
            worker_count=task.workers_per_region,
            seed=derive_seed(task.seed, f"region-{index}"),
        )
        for index in range(task.region_count)
    ]
    exact = task.users * PER_USER_RPS * task.duration_s < FAST_PATH_ARRIVALS
    fed = FederatedCluster(
        specs,
        config=GatewayConfig(hedge_after_s=30.0),
        telemetry_exact=exact,
        trace=task.trace,
    )
    if task.outage_rate_scale > 0 and task.region_count > 1:
        profile = RegionChaosProfile(scale=task.outage_rate_scale)
        plan = ChaosPlan.sample_regions(
            profile,
            [spec.name for spec in specs],
            horizon_s=task.duration_s,
            streams=RandomStreams(derive_seed(task.seed, "region-chaos")),
        )
        RegionChaosInjector(fed, plan.events, profile=profile).start()
    streams = RandomStreams(derive_seed(task.seed, "arrivals"))
    arrivals = poisson_trace(task.rate_per_s, task.duration_s, streams=streams)
    # Client geographies: one uniform draw per arrival, batched so the
    # fast path stays fast and the draw count is arrival-count exact.
    geo_draws = streams.random_batch("client-geos", len(arrivals))
    geos = [
        f"region-{min(int(u * task.region_count), task.region_count - 1)}"
        for u in geo_draws
    ]
    result = fed.run_arrivals(arrivals, geos)
    if not result.reconciles():
        raise RuntimeError(
            f"federation accounting failed at users={task.users} "
            f"regions={task.region_count} scale={task.outage_rate_scale}: "
            f"{result.jobs_submitted} submitted, "
            f"{result.jobs_delivered} delivered, {result.jobs_shed} shed, "
            f"{result.jobs_lost} lost"
        )
    point = FederationStudyPoint(
        users=task.users,
        region_count=task.region_count,
        outage_rate_scale=task.outage_rate_scale,
        workers_per_region=task.workers_per_region,
        jobs_submitted=result.jobs_submitted,
        jobs_delivered=result.jobs_delivered,
        jobs_lost=result.jobs_lost,
        jobs_shed=result.jobs_shed,
        goodput_per_min=result.goodput_per_min,
        reroutes=result.reroutes,
        hedges=result.hedges,
        duplicates_suppressed=result.duplicates_suppressed,
        ingress_drops=result.ingress_drops,
        outages=sum(report.outages for report in result.region_reports),
        mean_recovery_s=result.mean_recovery_s,
        cross_region_jobs=result.cross_region_jobs,
        cross_region_bytes=result.cross_region_bytes,
        duration_s=result.duration_s,
        energy_joules=result.energy_joules,
        regions=tuple(
            RegionRow(
                name=report.name,
                workers=report.worker_count,
                jobs_in=report.jobs_in,
                jobs_delivered=report.jobs_delivered,
                energy_joules=report.energy_joules,
                joules_per_function=report.joules_per_function,
                outages=report.outages,
                mean_recovery_s=report.mean_recovery_s,
                cross_region_jobs=report.cross_region_jobs,
                cross_region_bytes=report.cross_region_bytes,
            )
            for report in result.region_reports
        ),
        geo_latency=tuple(
            GeoLatencyRow(geo=geo, count=count, mean_s=mean, p50_s=p50, p99_s=p99)
            for geo, (count, mean, p50, p99) in result.geo_latency.items()
        ),
    )
    return point, fed.finished_traces()


def run(
    user_counts: Sequence[int] = (100_000, 1_000_000),
    region_counts: Sequence[int] = (3,),
    outage_rate_scales: Sequence[float] = (0.0, 1.0),
    duration_s: float = 120.0,
    seed: int = 11,
    jobs: int = 1,
    trace_path: Optional[str] = None,
) -> FederationStudyResult:
    """Sweep users × regions × outage rates over independent runs.

    With ``trace_path`` set, the faultiest point at the smallest
    population records spans as it runs and its merged per-region span
    trees (labels are region names) are written there, with the
    gateway's ``reroute``/``region_outage`` annotations: a failover is
    followable span by span.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    tasks = [
        FederationStudyTask(users, regions, scale, duration_s, seed)
        for users in user_counts
        for regions in region_counts
        for scale in outage_rate_scales
    ]
    points = map_traced(
        tasks,
        _run_federation_point,
        jobs=jobs,
        trace_path=trace_path,
        traced=min(
            tasks,
            key=lambda t: (t.users, -t.outage_rate_scale, t.region_count),
            default=None,
        ),
    )
    return FederationStudyResult(points=points)


def render(result: FederationStudyResult) -> str:
    rows = []
    for point in result.points:
        mttr = (
            f"{point.mean_recovery_s:.1f}"
            if point.mean_recovery_s is not None
            else "-"
        )
        rows.append(
            (
                f"{point.users:,}",
                point.region_count,
                f"{point.outage_rate_scale:g}",
                point.workers_per_region,
                f"{point.goodput_per_min:.0f}",
                point.jobs_lost,
                point.jobs_shed,
                f"{point.median_p50_s:.2f}",
                f"{point.worst_p99_s:.2f}",
                mttr,
                point.reroutes,
                point.cross_region_jobs,
                f"{point.joules_per_function:.2f}",
            )
        )
    table = format_table(
        [
            "users",
            "regions",
            "outages",
            "w/region",
            "goodput/min",
            "lost",
            "shed",
            "p50 s",
            "p99 s",
            "MTTR s",
            "reroutes",
            "x-region",
            "J/func",
        ],
        rows,
        title="Federation study - regions, failover, and the WAN",
    )
    closing = (
        f"\nall {sum(p.jobs_submitted for p in result.points)} jobs across "
        f"the sweep delivered exactly once ({result.total_jobs_lost} lost; "
        "shed jobs are counted refusals, not losses)."
        if result.total_jobs_lost == 0
        else f"\nWARNING: {result.total_jobs_lost} jobs lost across the sweep."
    )
    return table + closing


def tables(result: FederationStudyResult) -> List[Table]:
    """``federation_study.csv``: one row per (point, region) plus an
    ``ALL`` aggregate row per point."""
    rows = []
    for p in result.points:
        for region in p.regions:
            rows.append(
                (p.users, p.region_count, p.outage_rate_scale, region.name,
                 region.workers, region.jobs_in, region.jobs_delivered, "",
                 "", "", region.outages,
                 region.mean_recovery_s
                 if region.mean_recovery_s is not None else "",
                 region.cross_region_jobs, region.cross_region_bytes,
                 region.energy_joules, region.joules_per_function)
            )
        rows.append(
            (p.users, p.region_count, p.outage_rate_scale, "ALL",
             p.workers_per_region * p.region_count, p.jobs_submitted,
             p.jobs_delivered, p.jobs_lost, p.goodput_per_min,
             p.worst_p99_s, p.outages,
             p.mean_recovery_s if p.mean_recovery_s is not None else "",
             p.cross_region_jobs, p.cross_region_bytes,
             p.energy_joules, p.joules_per_function)
        )
    return [(
        "federation_study.csv",
        ["users", "region_count", "outage_rate_scale", "region", "workers",
         "jobs_in", "jobs_delivered", "jobs_lost", "goodput_per_min",
         "worst_p99_s", "outages", "mean_recovery_s", "cross_region_jobs",
         "cross_region_bytes", "energy_joules", "joules_per_function"],
        rows,
    )]
