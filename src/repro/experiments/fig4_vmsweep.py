"""Fig. 4: conventional-cluster efficiency and throughput vs. VM count.

Sweeps the number of microVMs on the rack server, running the full
17-function mix at each point, and reports throughput (func/min) and
energy efficiency (J/function).  The paper's observations to reproduce:

- at the throughput-matched 6 VMs the cluster burns ~32.0 J/function;
- efficiency improves with VM count until the host saturates, peaking
  around 16.1 J/function;
- the MicroFaaS reference line (5.7 J/function) stays below the
  conventional curve everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro import paper
from repro.cluster import ConventionalCluster, MicroFaaSCluster
from repro.core.scheduler import LeastLoadedPolicy
from repro.energy.efficiency import peak_efficiency
from repro.experiments.report import Table, format_table
from repro.experiments.runner import run_map

@dataclass(frozen=True)
class SweepPoint:
    """One VM count's measurement."""

    vm_count: int
    throughput_per_min: float
    joules_per_function: float
    average_watts: float


@dataclass(frozen=True)
class Fig4Result:
    points: List[SweepPoint]
    microfaas_jpf: float

    @property
    def peak(self) -> SweepPoint:
        """The efficiency peak of the sweep."""
        best_count, _ = peak_efficiency(
            [(p.vm_count, p.joules_per_function) for p in self.points]
        )
        return next(p for p in self.points if p.vm_count == best_count)

    def at(self, vm_count: int) -> SweepPoint:
        for point in self.points:
            if point.vm_count == vm_count:
                return point
        raise KeyError(f"no sweep point at {vm_count} VMs")


@dataclass(frozen=True)
class SweepTask:
    """Picklable spec for one sweep point (its seed rides along)."""

    platform: str  # "conventional" or "microfaas"
    vm_count: int
    invocations_per_function: int
    seed: int


def _run_sweep_task(task: SweepTask):
    """Worker for one sweep point (runs in-process or in a pool)."""
    if task.platform == "microfaas":
        microfaas = MicroFaaSCluster(
            worker_count=10, seed=task.seed, policy=LeastLoadedPolicy()
        )
        mf_result = microfaas.run_saturated(
            invocations_per_function=task.invocations_per_function
        )
        return mf_result.joules_per_function
    cluster = ConventionalCluster(
        vm_count=task.vm_count,
        seed=task.seed,
        policy=LeastLoadedPolicy(),
        quantum_s=0.15,
    )
    result = cluster.run_saturated(
        invocations_per_function=task.invocations_per_function
    )
    return SweepPoint(
        vm_count=task.vm_count,
        throughput_per_min=result.throughput_per_min,
        joules_per_function=result.joules_per_function,
        average_watts=result.average_watts,
    )


def run(
    vm_counts: Sequence[int] = (1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24),
    invocations_per_function: int = 8,
    seed: int = 1,
    measure_microfaas: bool = True,
    jobs: int = 1,
) -> Fig4Result:
    """Regenerate Fig. 4's sweep.

    Sweep points are independent, so they fan across ``jobs`` worker
    processes; every point carries its own seed, keeping results
    identical at any ``jobs`` value.
    """
    tasks = [
        SweepTask("conventional", vm_count, invocations_per_function, seed)
        for vm_count in vm_counts
    ]
    if measure_microfaas:
        tasks.append(SweepTask("microfaas", 10, invocations_per_function, seed))
    outputs = run_map(tasks, _run_sweep_task, jobs=jobs)
    if measure_microfaas:
        points, microfaas_jpf = outputs[:-1], outputs[-1]
    else:
        points, microfaas_jpf = outputs, paper.MICROFAAS_J_PER_FUNC
    return Fig4Result(points=list(points), microfaas_jpf=microfaas_jpf)


def render(result: Fig4Result) -> str:
    from repro.experiments.report import format_xy_chart

    rows = [
        (
            point.vm_count,
            f"{point.throughput_per_min:.1f}",
            f"{point.joules_per_function:.1f}",
            f"{point.average_watts:.1f}",
        )
        for point in result.points
    ]
    table = format_table(
        ["VMs", "func/min", "J/func", "avg W"],
        rows,
        title="Fig. 4 - Conventional cluster vs VM count "
              f"(paper: {paper.CONVENTIONAL_J_PER_FUNC} J/func at "
              f"{paper.CONVENTIONAL_VMS} VMs, "
              f"peak {paper.CONVENTIONAL_PEAK_J_PER_FUNC} J/func)",
    )
    peak = result.peak
    xs = [p.vm_count for p in result.points]
    chart = format_xy_chart(
        {
            "conventional J/func": (xs, [p.joules_per_function for p in result.points]),
            "microfaas reference": (
                xs, [result.microfaas_jpf] * len(result.points),
            ),
        },
        title="",
        x_label="VMs",
        y_label="J/function",
    )
    return table + "\n" + chart + (
        f"\npeak efficiency: {peak.joules_per_function:.1f} J/func at "
        f"{peak.vm_count} VMs; MicroFaaS reference: "
        f"{result.microfaas_jpf:.1f} J/func (always lower)"
    )


def tables(result: Fig4Result) -> List[Table]:
    """``fig4_vmsweep.csv``: efficiency and throughput per VM count."""
    rows = [
        (p.vm_count, p.throughput_per_min, p.joules_per_function,
         p.average_watts, result.microfaas_jpf)
        for p in result.points
    ]
    return [(
        "fig4_vmsweep.csv",
        ["vms", "func_per_min", "joules_per_function", "average_watts",
         "microfaas_reference_jpf"],
        rows,
    )]
