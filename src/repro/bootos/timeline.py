"""The Fig. 1 development trajectory.

:func:`development_trajectory` replays the paper's development history
change by change, yielding the series Fig. 1 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bootos.optimizations import DEVELOPMENT_HISTORY, BootOptimization
from repro.bootos.stages import baseline_sequence

#: Published final boot times (Sec. IV-A).
FINAL_ARM_REAL_S = 1.51
FINAL_X86_REAL_S = 0.96
#: CPU-busy totals implied by the calibrated stage fractions.
FINAL_ARM_CPU_S = 1.1514
FINAL_X86_CPU_S = 0.758


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


__all__ = [
    "FINAL_ARM_CPU_S",
    "FINAL_ARM_REAL_S",
    "FINAL_X86_CPU_S",
    "FINAL_X86_REAL_S",
    "TrajectoryPoint",
    "development_trajectory",
]
