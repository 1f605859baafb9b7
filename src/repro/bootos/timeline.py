"""Boot timelines and the Fig. 1 development trajectory.

:class:`BootTimeline` expands a :class:`~repro.bootos.stages.BootSequence`
into per-stage start/end events (useful for worker simulation and for
rendering Gantt-style output), and :func:`development_trajectory` replays
the paper's development history change by change, yielding the series
Fig. 1 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bootos.optimizations import DEVELOPMENT_HISTORY, BootOptimization
from repro.bootos.stages import (
    BootSequence,
    StageName,
    baseline_sequence,
    optimized_sequence,
)

#: Published final boot times (Sec. IV-A).
FINAL_ARM_REAL_S = 1.51
FINAL_X86_REAL_S = 0.96
#: CPU-busy totals implied by the calibrated stage fractions.
FINAL_ARM_CPU_S = 1.1514
FINAL_X86_CPU_S = 0.758


@dataclass(frozen=True)
class StageInterval:
    """One executed stage within a boot timeline."""

    stage: StageName
    start_s: float
    end_s: float
    cpu_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class BootTimeline:
    """Per-stage schedule of one boot of a given sequence."""

    def __init__(self, sequence: BootSequence, start_time: float = 0.0):
        self.sequence = sequence
        self.start_time = start_time
        self.intervals: List[StageInterval] = []
        t = start_time
        for stage in sequence:
            self.intervals.append(
                StageInterval(
                    stage=stage.name,
                    start_s=t,
                    end_s=t + stage.real_s,
                    cpu_s=stage.cpu_s,
                )
            )
            t += stage.real_s

    @property
    def real_s(self) -> float:
        """Wall-clock time from power-on to first network connection."""
        return self.sequence.real_s

    @property
    def cpu_s(self) -> float:
        """CPU-busy time during boot (kernel-reported)."""
        return self.sequence.cpu_s

    @property
    def end_time(self) -> float:
        return self.start_time + self.real_s

    def interval(self, stage: StageName) -> StageInterval:
        """Look up the interval of a stage."""
        for item in self.intervals:
            if item.stage is stage:
                return item
        raise KeyError(stage)


@dataclass(frozen=True)
class TrajectoryPoint:
    """One point of the Fig. 1 series."""

    label: str  # "baseline" or the optimization letter
    name: str
    real_s: float
    cpu_s: float


def development_trajectory(
    platform: str,
    history: Optional[Tuple[BootOptimization, ...]] = None,
) -> List[TrajectoryPoint]:
    """Replay the development history, one cumulative change at a time.

    Returns the series Fig. 1 plots: boot real/CPU time after each change.
    """
    history = DEVELOPMENT_HISTORY if history is None else history
    sequence = baseline_sequence(platform)
    points = [
        TrajectoryPoint(
            label="baseline",
            name="stock distribution",
            real_s=sequence.real_s,
            cpu_s=sequence.cpu_s,
        )
    ]
    for optimization in history:
        sequence = optimization.apply(sequence)
        points.append(
            TrajectoryPoint(
                label=optimization.letter,
                name=optimization.name,
                real_s=sequence.real_s,
                cpu_s=sequence.cpu_s,
            )
        )
    return points


def reboot_time_s(platform: str) -> float:
    """Time for a full clean-state reboot of the optimized worker OS.

    The paper's run-to-completion model reboots between jobs; Sec. III-a
    claims SBCs reboot in under 2 s (vs. >= 55 s for a rack server).
    """
    return optimized_sequence(platform).real_s


__all__ = [
    "BootTimeline",
    "FINAL_ARM_CPU_S",
    "FINAL_ARM_REAL_S",
    "FINAL_X86_CPU_S",
    "FINAL_X86_REAL_S",
    "StageInterval",
    "TrajectoryPoint",
    "development_trajectory",
    "reboot_time_s",
]
