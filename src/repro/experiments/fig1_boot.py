"""Fig. 1: worker-OS boot time across the development history.

Replays the nine optimizations (A-I) on both platforms and reports the
real and CPU boot-time series the figure plots, ending at the published
1.51 s (ARM) and 0.96 s (x86).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bootos.timeline import TrajectoryPoint, development_trajectory
from repro.experiments.report import Table, format_table


@dataclass(frozen=True)
class Fig1Result:
    """The two trajectories of Fig. 1."""

    trajectories: Dict[str, List[TrajectoryPoint]]

    @property
    def final_real_s(self) -> Dict[str, float]:
        return {
            platform: points[-1].real_s
            for platform, points in self.trajectories.items()
        }


def run() -> Fig1Result:
    """Regenerate Fig. 1's data."""
    return Fig1Result(
        trajectories={
            platform: development_trajectory(platform)
            for platform in ("arm", "x86")
        }
    )


def render(result: Fig1Result) -> str:
    """Fig. 1 as a table: one row per development change."""
    arm = result.trajectories["arm"]
    x86 = result.trajectories["x86"]
    rows = []
    for arm_point, x86_point in zip(arm, x86):
        rows.append(
            (
                arm_point.label,
                arm_point.name,
                f"{arm_point.real_s:.2f}",
                f"{arm_point.cpu_s:.2f}",
                f"{x86_point.real_s:.2f}",
                f"{x86_point.cpu_s:.2f}",
            )
        )
    table = format_table(
        ["change", "description", "ARM real (s)", "ARM CPU (s)",
         "x86 real (s)", "x86 CPU (s)"],
        rows,
        title="Fig. 1 - Worker OS boot time through development "
              "(paper final: 1.51 s ARM / 0.96 s x86)",
    )
    finals = result.final_real_s
    footer = (
        f"\nfinal: ARM {finals['arm']:.2f} s, x86 {finals['x86']:.2f} s"
    )
    return table + footer


def tables(result: Fig1Result) -> List[Table]:
    """``fig1_boot.csv``: one row per development change."""
    rows = [
        (arm.label, arm.name, arm.real_s, arm.cpu_s, x86.real_s, x86.cpu_s)
        for arm, x86 in zip(
            result.trajectories["arm"], result.trajectories["x86"]
        )
    ]
    return [(
        "fig1_boot.csv",
        ["change", "name", "arm_real_s", "arm_cpu_s", "x86_real_s", "x86_cpu_s"],
        rows,
    )]
