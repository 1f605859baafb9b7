"""CSV export of every paper artifact's data.

Each exporter regenerates an experiment and writes the series a plotting
tool needs — so downstream users can draw the actual figures without
rerunning simulations.  ``export_all(directory)`` writes the full set.
"""

from __future__ import annotations

import csv
import os
from typing import Dict, List, Optional, Sequence

from repro.experiments import (
    energy_study,
    fault_study,
    federation_study,
    fig1_boot,
    fig3_runtime,
    fig4_vmsweep,
    fig5_power,
    headline,
    hybrid_study,
    megatrace,
    scale_study,
    sdk_study,
    table2_tco,
)
from repro.workloads import ALL_FUNCTION_NAMES


def _write(path: str, headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)
    return path


def export_fig1(directory: str) -> str:
    """Boot-time trajectory: one row per development change."""
    result = fig1_boot.run()
    rows = []
    for arm, x86 in zip(result.trajectories["arm"], result.trajectories["x86"]):
        rows.append(
            (arm.label, arm.name, arm.real_s, arm.cpu_s, x86.real_s, x86.cpu_s)
        )
    return _write(
        os.path.join(directory, "fig1_boot.csv"),
        ["change", "name", "arm_real_s", "arm_cpu_s", "x86_real_s", "x86_cpu_s"],
        rows,
    )


def export_fig3(directory: str, invocations_per_function: int = 20) -> str:
    """Working/overhead split per function per cluster."""
    result = fig3_runtime.run(invocations_per_function=invocations_per_function)
    rows = []
    for name in ALL_FUNCTION_NAMES:
        mf = result.microfaas[name]
        cv = result.conventional[name]
        rows.append(
            (name, mf.working_s, mf.overhead_s, cv.working_s, cv.overhead_s,
             result.speed_ratio(name))
        )
    return _write(
        os.path.join(directory, "fig3_runtime.csv"),
        ["function", "mf_working_s", "mf_overhead_s",
         "conv_working_s", "conv_overhead_s", "mf_over_conv"],
        rows,
    )


def export_fig4(directory: str, invocations_per_function: int = 6) -> str:
    """Efficiency/throughput sweep over VM counts."""
    result = fig4_vmsweep.run(
        invocations_per_function=invocations_per_function
    )
    rows = [
        (p.vm_count, p.throughput_per_min, p.joules_per_function,
         p.average_watts, result.microfaas_jpf)
        for p in result.points
    ]
    return _write(
        os.path.join(directory, "fig4_vmsweep.csv"),
        ["vms", "func_per_min", "joules_per_function", "average_watts",
         "microfaas_reference_jpf"],
        rows,
    )


def export_fig5(directory: str) -> str:
    """Power vs active workers, both series."""
    result = fig5_power.run(measure=False)
    sbc = dict(zip(result.sbc_series.worker_counts, result.sbc_series.watts))
    vm = dict(zip(result.vm_series.worker_counts, result.vm_series.watts))
    counts = sorted(set(sbc) | set(vm))
    rows = [(n, sbc.get(n, ""), vm.get(n, "")) for n in counts]
    return _write(
        os.path.join(directory, "fig5_power.csv"),
        ["active_workers", "sbc_cluster_watts", "vm_host_watts"],
        rows,
    )


def export_table2(directory: str) -> str:
    """The TCO table, one row per (scenario, deployment)."""
    result = table2_tco.run()
    rows = [
        (c.scenario, c.deployment, c.compute_usd, c.network_usd,
         c.energy_usd, c.total_usd)
        for c in result.cells
    ]
    return _write(
        os.path.join(directory, "table2_tco.csv"),
        ["scenario", "deployment", "compute_usd", "network_usd",
         "energy_usd", "total_usd"],
        rows,
    )


def export_headline(directory: str, invocations_per_function: int = 30) -> str:
    """The headline metrics of both clusters."""
    result = headline.run(invocations_per_function=invocations_per_function)
    rows = [
        ("microfaas", result.microfaas.worker_count,
         result.microfaas.throughput_per_min,
         result.microfaas.joules_per_function,
         result.microfaas.average_watts),
        ("conventional", result.conventional.worker_count,
         result.conventional.throughput_per_min,
         result.conventional.joules_per_function,
         result.conventional.average_watts),
    ]
    return _write(
        os.path.join(directory, "headline.csv"),
        ["platform", "workers", "func_per_min", "joules_per_function",
         "average_watts"],
        rows,
    )


def export_fault_study(directory: str, invocations_per_function: int = 2) -> str:
    """Recovery under chaos: one row per fault-rate point."""
    result = fault_study.run(invocations_per_function=invocations_per_function)
    rows = [
        (p.fault_rate_scale, p.faults_injected, p.jobs_submitted,
         p.jobs_delivered, p.jobs_lost, p.goodput_per_min, p.p99_latency_s,
         p.mean_recovery_s if p.mean_recovery_s is not None else "",
         p.resubmissions, p.timeout_retries, p.hedges,
         p.duplicates_suppressed, p.boards_abandoned,
         p.joules_per_function, result.energy_overhead(p))
        for p in result.points
    ]
    return _write(
        os.path.join(directory, "fault_study.csv"),
        ["fault_rate_scale", "faults_injected", "jobs_submitted",
         "jobs_delivered", "jobs_lost", "goodput_per_min", "p99_latency_s",
         "mean_recovery_s", "resubmissions", "timeout_retries", "hedges",
         "duplicates_suppressed", "boards_abandoned", "joules_per_function",
         "energy_overhead"],
        rows,
    )


def export_federation_study(
    directory: str,
    user_counts: Sequence[int] = (100_000, 1_000_000),
    duration_s: float = 60.0,
) -> str:
    """The federation sweep: one row per (point, region) plus an ALL
    aggregate row per point."""
    result = federation_study.run(
        user_counts=user_counts, duration_s=duration_s
    )
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
    return _write(
        os.path.join(directory, "federation_study.csv"),
        ["users", "region_count", "outage_rate_scale", "region", "workers",
         "jobs_in", "jobs_delivered", "jobs_lost", "goodput_per_min",
         "worst_p99_s", "outages", "mean_recovery_s", "cross_region_jobs",
         "cross_region_bytes", "energy_joules", "joules_per_function"],
        rows,
    )


def export_hybrid_study(
    directory: str, invocations_per_function: int = 2
) -> str:
    """The SBC:VM mix sweep: one row per mix, with per-platform splits."""
    result = hybrid_study.run(
        invocations_per_function=invocations_per_function
    )
    rows = [
        (p.sbc_count, p.vm_count, p.worker_count, p.jobs_completed,
         p.duration_s, p.throughput_per_min, p.predicted_throughput_per_min,
         p.energy_joules, p.joules_per_function, p.arm_jobs, p.x86_jobs,
         p.arm_energy_joules, p.x86_energy_joules,
         p.arm_p99_latency_s if p.arm_p99_latency_s is not None else "",
         p.x86_p99_latency_s if p.x86_p99_latency_s is not None else "")
        for p in result.points
    ]
    return _write(
        os.path.join(directory, "hybrid_study.csv"),
        ["sbc_count", "vm_count", "workers", "jobs", "duration_s",
         "func_per_min", "predicted_func_per_min", "energy_joules",
         "joules_per_function", "arm_jobs", "x86_jobs", "arm_energy_joules",
         "x86_energy_joules", "arm_p99_latency_s", "x86_p99_latency_s"],
        rows,
    )


def export_scale_study(
    directory: str,
    worker_counts: Sequence[int] = (10, 100, 400),
    jobs_per_worker: int = 2,
) -> str:
    """Cluster-size sweep: one row per scale point."""
    result = scale_study.run(
        worker_counts=worker_counts, jobs_per_worker=jobs_per_worker
    )
    rows = [
        (p.worker_count, p.switch_count, p.throughput_per_min,
         p.unconstrained_per_min, p.scaling_efficiency,
         p.control_plane_utilization,
         result.op_link_utilization(p.throughput_per_min))
        for p in result.points
    ]
    return _write(
        os.path.join(directory, "scale_study.csv"),
        ["workers", "switches", "func_per_min", "free_op_func_per_min",
         "scaling_efficiency", "op_utilization", "op_link_utilization"],
        rows,
    )


def export_sdk_study(
    directory: str,
    user_counts: Sequence[int] = (1, 4),
    fanouts: Sequence[int] = (8, 32),
) -> str:
    """The client SDK sweep: one row per (users, fanout, backend)."""
    result = sdk_study.run(user_counts=user_counts, fanouts=fanouts)
    rows = [
        (p.kind, p.users, p.fanout, p.calls, p.succeeded, p.errors,
         p.jobs_completed, p.duration_s, p.throughput_per_min,
         p.energy_joules, p.joules_per_function, p.client_p50_s,
         p.client_p99_s, p.reduce_latency_s, p.duplicates_suppressed,
         p.batches_flushed)
        for p in result.points
    ]
    return _write(
        os.path.join(directory, "sdk_study.csv"),
        ["backend", "users", "fanout", "calls", "succeeded", "errors",
         "jobs_completed", "duration_s", "func_per_min", "energy_joules",
         "joules_per_function", "client_p50_s", "client_p99_s",
         "reduce_latency_s", "duplicates_suppressed", "batches_flushed"],
        rows,
    )


def export_megatrace(directory: str, invocations: int = 1_000_000) -> str:
    """The megatrace replay's operator metrics, one row per run."""
    result = megatrace.run(invocations=invocations)
    rows = [
        (result.invocations, result.worker_count, result.rate_per_s,
         result.sim_duration_s, result.throughput_per_min,
         result.mean_latency_s, result.p99_latency_s,
         result.joules_per_function, result.wall_clock_s,
         result.peak_rss_mib, result.records_retained,
         result.sketch_buckets)
    ]
    return _write(
        os.path.join(directory, "megatrace.csv"),
        ["invocations", "workers", "rate_per_s", "sim_duration_s",
         "func_per_min", "mean_latency_s", "p99_latency_s",
         "joules_per_function", "wall_clock_s", "peak_rss_mib",
         "records_retained", "sketch_buckets"],
        rows,
    )


def export_energy_study(
    directory: str, duration_s: float = 240.0
) -> List[str]:
    """The energy study: the cap frontier and the per-tenant attribution.

    Two files — ``energy_study.csv`` (one row per point, with the
    frontier's energy-saved / p99-paid columns on cap points) and
    ``energy_study_tenants.csv`` (one row per (budget point, tenant)
    from the online ledger).
    """
    result = energy_study.run(duration_s=duration_s)
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
    study_path = _write(
        os.path.join(directory, "energy_study.csv"),
        ["cap_watts", "budget_scale", "jobs", "duration_s", "func_per_min",
         "energy_joules", "joules_per_function", "p99_latency_s",
         "energy_saved_j", "p99_paid_s", "jobs_delayed", "jobs_shed",
         "reconciliation_residual_j", "idle_overhead_j", "wasted_j"],
        rows,
    )
    tenant_rows = [
        (p.cap_watts, p.budget_scale, tenant, joules)
        for p in result.budget_points()
        for tenant, joules in p.tenant_joules
    ]
    tenants_path = _write(
        os.path.join(directory, "energy_study_tenants.csv"),
        ["cap_watts", "budget_scale", "tenant", "attributed_joules"],
        tenant_rows,
    )
    return [study_path, tenants_path]


def export_trace(directory: str, invocations_per_function: int = 12) -> str:
    """Perfetto-ready span trees from a traced headline run.

    Unlike the CSV exporters this is not tabular data: it is the Chrome
    trace-event JSON of every invocation's span tree on both clusters,
    ready to load at https://ui.perfetto.dev.
    """
    path = os.path.join(directory, "headline_trace.json")
    headline.run(
        invocations_per_function=invocations_per_function, trace_path=path
    )
    return path


def export_all(
    directory: str,
    invocations_per_function: int = 12,
) -> List[str]:
    """Write every artifact's CSV into ``directory`` (created if needed).

    The megatrace export is not included — a million-invocation run
    is its own deliberate act (:func:`export_megatrace`).
    """
    os.makedirs(directory, exist_ok=True)
    return [
        export_fig1(directory),
        export_fig3(directory, invocations_per_function),
        export_fig4(directory, max(4, invocations_per_function // 2)),
        export_fig5(directory),
        export_table2(directory),
        export_headline(directory, invocations_per_function),
        export_fault_study(directory, max(2, invocations_per_function // 6)),
        export_federation_study(directory),
        export_hybrid_study(directory, max(2, invocations_per_function // 6)),
        export_scale_study(directory),
        export_sdk_study(directory),
        *export_energy_study(directory),
        export_trace(directory, invocations_per_function),
    ]


__all__ = [
    "export_all",
    "export_energy_study",
    "export_fault_study",
    "export_federation_study",
    "export_fig1",
    "export_fig3",
    "export_fig4",
    "export_fig5",
    "export_headline",
    "export_hybrid_study",
    "export_megatrace",
    "export_scale_study",
    "export_sdk_study",
    "export_table2",
    "export_trace",
]
