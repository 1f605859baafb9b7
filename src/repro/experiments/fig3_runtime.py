"""Fig. 3: per-function runtime split into Working and Overhead.

Runs the 17-function mix on both clusters and reports, per function and
cluster, the mean time spent executing the function body (*Working*)
and the mean time spent receiving input / returning the result
(*Overhead*) — plus the two aggregate claims Sec. V makes about the
comparison (4 of 17 faster on MicroFaaS; 9 more at over half speed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster import ConventionalCluster, MicroFaaSCluster
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments.report import Table, format_table
from repro.workloads import ALL_FUNCTION_NAMES


@dataclass(frozen=True)
class RuntimeSplit:
    """One cluster's Fig. 3 bar for one function."""

    working_s: float
    overhead_s: float

    @property
    def runtime_s(self) -> float:
        return self.working_s + self.overhead_s


@dataclass(frozen=True)
class Fig3Result:
    """Working/Overhead per function per cluster."""

    microfaas: Dict[str, RuntimeSplit]
    conventional: Dict[str, RuntimeSplit]

    def speed_ratio(self, function: str) -> float:
        """MicroFaaS runtime over conventional runtime (>1 = slower)."""
        return (
            self.microfaas[function].runtime_s
            / self.conventional[function].runtime_s
        )

    @property
    def faster_on_microfaas(self) -> List[str]:
        """Functions MicroFaaS executes faster (the paper counts 4)."""
        return [
            name for name in self.microfaas if self.speed_ratio(name) < 1.0
        ]

    @property
    def above_half_speed(self) -> List[str]:
        """Slower, but at more than half the conventional speed (9)."""
        return [
            name for name in self.microfaas
            if 1.0 <= self.speed_ratio(name) <= 2.0
        ]

    @property
    def below_half_speed(self) -> List[str]:
        return [
            name for name in self.microfaas if self.speed_ratio(name) > 2.0
        ]


def _splits(telemetry) -> Dict[str, RuntimeSplit]:
    return {
        name: RuntimeSplit(
            working_s=stats.mean_working_s, overhead_s=stats.mean_overhead_s
        )
        for name, stats in telemetry.all_function_stats().items()
    }


def run(invocations_per_function: int = 20, seed: int = 1) -> Fig3Result:
    """Regenerate Fig. 3's data from full cluster simulations."""
    microfaas = MicroFaaSCluster(
        worker_count=10, seed=seed, policy=LeastLoadedPolicy()
    )
    mf_result = microfaas.run_saturated(
        invocations_per_function=invocations_per_function
    )
    conventional = ConventionalCluster(
        vm_count=6, seed=seed, policy=LeastLoadedPolicy()
    )
    cv_result = conventional.run_saturated(
        invocations_per_function=invocations_per_function
    )
    return Fig3Result(
        microfaas=_splits(mf_result.telemetry),
        conventional=_splits(cv_result.telemetry),
    )


def render(result: Fig3Result) -> str:
    rows = []
    for name in ALL_FUNCTION_NAMES:
        mf = result.microfaas[name]
        cv = result.conventional[name]
        rows.append(
            (
                name,
                f"{mf.working_s * 1000:.0f}",
                f"{mf.overhead_s * 1000:.0f}",
                f"{cv.working_s * 1000:.0f}",
                f"{cv.overhead_s * 1000:.0f}",
                f"{result.speed_ratio(name):.2f}",
            )
        )
    table = format_table(
        ["function", "MF work ms", "MF ovh ms", "Conv work ms",
         "Conv ovh ms", "MF/Conv"],
        rows,
        title="Fig. 3 - Runtime split into Working and Overhead",
    )
    return table + (
        f"\nfaster on MicroFaaS: {len(result.faster_on_microfaas)} "
        f"(paper: 4); above half speed: {len(result.above_half_speed)} "
        f"(paper: 9); below half speed: {len(result.below_half_speed)} "
        f"(paper: 4)"
    )


def tables(result: Fig3Result) -> List[Table]:
    """``fig3_runtime.csv``: the working/overhead split per function on
    both clusters."""
    rows = []
    for name in ALL_FUNCTION_NAMES:
        mf = result.microfaas[name]
        cv = result.conventional[name]
        rows.append(
            (name, mf.working_s, mf.overhead_s, cv.working_s, cv.overhead_s,
             result.speed_ratio(name))
        )
    return [(
        "fig3_runtime.csv",
        ["function", "mf_working_s", "mf_overhead_s",
         "conv_working_s", "conv_overhead_s", "mf_over_conv"],
        rows,
    )]
