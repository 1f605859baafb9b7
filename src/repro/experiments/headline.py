"""The Sec. V headline experiment.

Runs both throughput-matched clusters over the full 17-function mix and
reports the four numbers the abstract leads with:

- 10-SBC MicroFaaS throughput (paper: 200.6 func/min);
- 6-VM conventional throughput (paper: 211.7 func/min);
- energy per function on each (paper: 5.7 J vs 32.0 J);
- the resulting efficiency ratio (paper: 5.6x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import paper
from repro.cluster import ClusterResult, ConventionalCluster, MicroFaaSCluster
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments.report import Table, format_table
from repro.experiments.runner import map_traced
from repro.obs.trace import FinishedTrace, TraceConfig

PAPER = {
    "microfaas_fpm": paper.MICROFAAS_FUNC_PER_MIN,
    "conventional_fpm": paper.CONVENTIONAL_FUNC_PER_MIN,
    "microfaas_jpf": paper.MICROFAAS_J_PER_FUNC,
    "conventional_jpf": paper.CONVENTIONAL_J_PER_FUNC,
    "ratio": paper.ENERGY_EFFICIENCY_RATIO,
}


@dataclass(frozen=True)
class HeadlineResult:
    microfaas: ClusterResult
    conventional: ClusterResult

    @property
    def efficiency_ratio(self) -> float:
        return (
            self.conventional.joules_per_function
            / self.microfaas.joules_per_function
        )

    @property
    def throughput_matched(self) -> bool:
        """Within 10 % of each other, as the paper's sizing intends."""
        mf = self.microfaas.throughput_per_min
        cv = self.conventional.throughput_per_min
        return abs(mf - cv) / cv < 0.10


@dataclass(frozen=True)
class HeadlineTask:
    """Picklable spec for one side of the comparison."""

    platform: str  # "microfaas" or "conventional"
    invocations_per_function: int
    seed: int
    trace: Optional[TraceConfig] = None


def _run_cluster(
    task: HeadlineTask,
) -> Tuple[ClusterResult, List[FinishedTrace]]:
    """Worker: run one throughput-matched cluster at capacity."""
    if task.platform == "microfaas":
        cluster = MicroFaaSCluster(
            worker_count=10, seed=task.seed, policy=LeastLoadedPolicy(),
            trace=task.trace,
        )
    else:
        cluster = ConventionalCluster(
            vm_count=6, seed=task.seed, policy=LeastLoadedPolicy(),
            trace=task.trace,
        )
    result = cluster.run_saturated(
        invocations_per_function=task.invocations_per_function
    )
    return result, cluster.finished_traces()


def run(
    invocations_per_function: int = 30,
    seed: int = 1,
    jobs: int = 1,
    cache: bool = True,  # ignored; simbench/workloads.py still passes it
    trace_path: Optional[str] = None,
) -> HeadlineResult:
    """Run the headline comparison.

    Uses the least-loaded assignment policy so the measured window is a
    true capacity measurement (random sampling converges to the same
    numbers at the paper's 1,000 invocations per function, but leaves
    straggler tails at smaller counts).  The two clusters are
    independent simulations, so they fan out like any sweep.

    With ``trace_path`` set, both clusters record per-invocation spans
    as they run and their merged span trees are written to that path
    (Chrome trace-event JSON, or JSONL if the path ends in ``.jsonl``);
    the headline numbers are unchanged.
    """
    trace = TraceConfig() if trace_path is not None else None
    mf_result, cv_result = map_traced(
        [
            HeadlineTask(platform, invocations_per_function, seed, trace)
            for platform in ("microfaas", "conventional")
        ],
        _run_cluster,
        jobs=jobs,
        trace_path=trace_path,
    )
    return HeadlineResult(microfaas=mf_result, conventional=cv_result)


def render(result: HeadlineResult) -> str:
    rows = [
        (
            "throughput (func/min)",
            f"{result.microfaas.throughput_per_min:.1f}",
            f"{PAPER['microfaas_fpm']}",
            f"{result.conventional.throughput_per_min:.1f}",
            f"{PAPER['conventional_fpm']}",
        ),
        (
            "energy (J/function)",
            f"{result.microfaas.joules_per_function:.2f}",
            f"{PAPER['microfaas_jpf']}",
            f"{result.conventional.joules_per_function:.2f}",
            f"{PAPER['conventional_jpf']}",
        ),
        (
            "average power (W)",
            f"{result.microfaas.average_watts:.1f}",
            "-",
            f"{result.conventional.average_watts:.1f}",
            "-",
        ),
    ]
    table = format_table(
        ["metric", "MicroFaaS", "(paper)", "Conventional", "(paper)"],
        rows,
        title="Headline comparison - throughput-matched clusters",
    )
    return table + (
        f"\nenergy-efficiency ratio: {result.efficiency_ratio:.1f}x "
        f"(paper: {PAPER['ratio']}x); throughput matched: "
        f"{result.throughput_matched}"
    )


def tables(result: HeadlineResult) -> List[Table]:
    """``headline.csv``: the headline metrics of both clusters."""
    rows = [
        (platform, r.worker_count, r.throughput_per_min,
         r.joules_per_function, r.average_watts)
        for platform, r in (
            ("microfaas", result.microfaas),
            ("conventional", result.conventional),
        )
    ]
    return [(
        "headline.csv",
        ["platform", "workers", "func_per_min", "joules_per_function",
         "average_watts"],
        rows,
    )]
