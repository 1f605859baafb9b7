"""Fig. 5: average power vs. number of active workers.

Two series: the SBC cluster (near-linear, passing close to the origin —
boards that aren't working are powered off) and the VM host (a 60 W idle
floor and a concave climb).  Reported with the proportionality metrics
that quantify the contrast, plus simulation cross-checks: actual cluster
runs with a fixed number of busy workers whose measured average power
must land on the analytic lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster import ConventionalCluster, MicroFaaSCluster
from repro.core.scheduler import RoundRobinPolicy
from repro.energy.proportionality import (
    ProportionalitySeries,
    linearity_r_squared,
    proportionality_index,
    sbc_cluster_power_series,
    vm_host_power_series,
)
from repro.experiments.report import Table, format_table


@dataclass(frozen=True)
class Fig5Result:
    sbc_series: ProportionalitySeries
    vm_series: ProportionalitySeries
    #: Measured (active workers, average watts) cross-check points.
    sbc_measured: Tuple[Tuple[int, float], ...] = ()
    vm_measured: Tuple[Tuple[int, float], ...] = ()

    @property
    def sbc_proportionality(self) -> float:
        return proportionality_index(self.sbc_series)

    @property
    def vm_proportionality(self) -> float:
        return proportionality_index(self.vm_series)

    @property
    def sbc_linearity(self) -> float:
        return linearity_r_squared(self.sbc_series)


def _measure_sbc(active: int, invocations: int, seed: int) -> float:
    """Average power of a cluster where exactly ``active`` of 10 boards
    work continuously (jobs pinned round-robin over the active set)."""
    cluster = MicroFaaSCluster(
        worker_count=10, seed=seed, policy=RoundRobinPolicy()
    )
    from repro.workloads import ALL_FUNCTION_NAMES

    # Pin jobs round-robin over the first `active` of the 10 queues.
    # Every active queue receives the identical function sequence so all
    # boards stay busy for the same span (no straggler tail skewing the
    # window average).
    orchestrator = cluster.orchestrator
    for i in range(invocations * active):
        function = ALL_FUNCTION_NAMES[(i // active) % 17]
        orchestrator.submit_assigned(orchestrator.make_job(function), i % active)
    done = orchestrator.wait_all()
    cluster.env.run(until=done)
    return cluster.energy_joules(0.0, cluster.env.now) / cluster.env.now


def _measure_vm(active: int, invocations: int, seed: int) -> float:
    """Average host power with exactly ``active`` busy VMs."""
    cluster = ConventionalCluster(
        vm_count=max(active, 1), seed=seed, policy=RoundRobinPolicy()
    )
    from repro.workloads import ALL_FUNCTION_NAMES

    for i in range(invocations * active):
        cluster.orchestrator.submit_function(ALL_FUNCTION_NAMES[i % 17])
    done = cluster.orchestrator.wait_all()
    cluster.env.run(until=done)
    return cluster.energy_joules(0.0, cluster.env.now) / cluster.env.now


def run(
    sbc_cluster_size: int = 10,
    max_vms: int = 12,
    measure: bool = True,
    measured_points: Tuple[int, ...] = (2, 5, 8),
    invocations: int = 6,
    seed: int = 1,
) -> Fig5Result:
    """Regenerate Fig. 5: analytic series plus simulation cross-checks."""
    sbc_measured: List[Tuple[int, float]] = []
    vm_measured: List[Tuple[int, float]] = []
    if measure:
        for active in measured_points:
            sbc_measured.append(
                (active, _measure_sbc(active, invocations, seed))
            )
            vm_measured.append((active, _measure_vm(active, invocations, seed)))
    return Fig5Result(
        sbc_series=sbc_cluster_power_series(sbc_cluster_size),
        vm_series=vm_host_power_series(max_vms),
        sbc_measured=tuple(sbc_measured),
        vm_measured=tuple(vm_measured),
    )


def render(result: Fig5Result) -> str:
    sbc = dict(zip(result.sbc_series.worker_counts, result.sbc_series.watts))
    vm = dict(zip(result.vm_series.worker_counts, result.vm_series.watts))
    counts = sorted(set(sbc) | set(vm))
    rows = [
        (
            n,
            f"{sbc[n]:.2f}" if n in sbc else "-",
            f"{vm[n]:.1f}" if n in vm else "-",
        )
        for n in counts
    ]
    table = format_table(
        ["active workers", "SBC cluster W", "VM host W"],
        rows,
        title="Fig. 5 - Average power vs active workers "
              "(note the idle-power difference at qty 0)",
    )
    footer = (
        f"\nSBC idle {result.sbc_series.idle_watts:.2f} W vs VM host idle "
        f"{result.vm_series.idle_watts:.0f} W; proportionality index "
        f"SBC {result.sbc_proportionality:.2f} vs VM "
        f"{result.vm_proportionality:.2f}; SBC linearity R^2 = "
        f"{result.sbc_linearity:.4f}"
    )
    if result.sbc_measured:
        checks = ", ".join(
            f"{n} active: {w:.1f} W" for n, w in result.sbc_measured
        )
        footer += f"\nsimulated SBC cross-checks: {checks}"
    return table + footer


def tables(result: Fig5Result) -> List[Table]:
    """``fig5_power.csv``: both analytic power series per active-worker
    count (blank where a series has no point)."""
    sbc = dict(zip(result.sbc_series.worker_counts, result.sbc_series.watts))
    vm = dict(zip(result.vm_series.worker_counts, result.vm_series.watts))
    counts = sorted(set(sbc) | set(vm))
    rows = [(n, sbc.get(n, ""), vm.get(n, "")) for n in counts]
    return [(
        "fig5_power.csv",
        ["active_workers", "sbc_cluster_watts", "vm_host_watts"],
        rows,
    )]
