"""Table I: the workload function suite, characterized live.

Executes every function for real on the local platform and reports its
category, description, FunctionBench provenance, and measured local
latency — the reproduction's equivalent of Table I plus a sanity
characterization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.report import format_table
from repro.experiments.runner import run_map
from repro.runtime import LocalFaaSPlatform
from repro.workloads import ALL_FUNCTION_NAMES, registry


@dataclass(frozen=True)
class WorkloadRow:
    """One Table I row, with a live measurement attached."""

    name: str
    category: str
    description: str
    from_functionbench: bool
    live_latency_s: float


@dataclass(frozen=True)
class Table1Result:
    rows: List[WorkloadRow]

    @property
    def cpu_bound(self) -> List[WorkloadRow]:
        return [r for r in self.rows if r.category == "cpu"]

    @property
    def network_bound(self) -> List[WorkloadRow]:
        return [r for r in self.rows if r.category == "network"]


@dataclass(frozen=True)
class WorkloadTask:
    """Picklable spec for one function's live characterization."""

    name: str
    scale: float
    repeats: int
    seed: int


def _run_row(task: WorkloadTask) -> WorkloadRow:
    """Worker: execute one Table I function for real and time it."""
    function = registry()[task.name]
    with LocalFaaSPlatform(workers=2, seed=task.seed) as platform:
        latencies = [
            platform.invoke(task.name, scale=task.scale).latency_s
            for _ in range(task.repeats)
        ]
    return WorkloadRow(
        name=task.name,
        category=function.category,
        description=function.description,
        from_functionbench=function.from_functionbench,
        live_latency_s=sum(latencies) / len(latencies),
    )


def run(
    scale: float = 0.05,
    repeats: int = 1,
    seed: int = 7,
    jobs: int = 1,
) -> Table1Result:
    """Execute every Table I function live and time it.

    Each function characterizes independently (one task per row), so
    the suite fans across ``jobs`` processes.  Every call measures
    afresh: the latencies are live wall-clock timings.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    tasks = [
        WorkloadTask(name, scale, repeats, seed)
        for name in ALL_FUNCTION_NAMES
    ]
    rows = run_map(tasks, _run_row, jobs=jobs)
    return Table1Result(rows=rows)


def render(result: Table1Result) -> str:
    rows = [
        (
            row.name + ("*" if row.from_functionbench else ""),
            row.category,
            row.description,
            f"{row.live_latency_s * 1000:.1f}",
        )
        for row in result.rows
    ]
    table = format_table(
        ["function", "class", "description", "live ms"],
        rows,
        title="Table I - Workload functions "
              "(* adapted from FunctionBench); live = real execution here",
    )
    return (
        table
        + f"\n{len(result.cpu_bound)} CPU/RAM-bound, "
        + f"{len(result.network_bound)} network-bound"
    )
