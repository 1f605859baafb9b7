"""Energy per power state: where a fleet's joules went.

Per-invocation joules come from the one attribution engine,
:class:`repro.energy.controlplane.EnergyLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

from repro.hardware.power import PowerState
from repro.hardware.sbc import SingleBoardComputer


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy attributed to each worker power state, in joules."""

    by_state: Mapping[str, float]

    def __post_init__(self) -> None:
        bad = {k: v for k, v in self.by_state.items() if v < 0}
        if bad:
            raise ValueError(f"negative energies: {bad}")

    @property
    def total_joules(self) -> float:
        return sum(self.by_state.values())

    def fraction(self, state: str) -> float:
        """Share of total energy spent in ``state``."""
        total = self.total_joules
        if total == 0:
            return 0.0
        return self.by_state.get(state, 0.0) / total


def sbc_state_breakdown(
    sbcs: Iterable[SingleBoardComputer],
) -> EnergyBreakdown:
    """Attribute a fleet's energy to power states via time-in-state.

    Uses each board's state-residency counters and per-state wattages, so
    it answers "where did the joules go" questions: how much was boot
    tax, how much was useful compute, how much leaked while off.
    """
    totals: Dict[str, float] = {state.value: 0.0 for state in PowerState}
    for sbc in sbcs:
        draws = {
            PowerState.OFF: sbc.spec.power.off,
            PowerState.BOOT: sbc.spec.power.boot,
            PowerState.IDLE: sbc.spec.power.idle,
            PowerState.CPU_BUSY: sbc.spec.power.cpu_busy,
            PowerState.IO_WAIT: sbc.spec.power.io_wait,
        }
        for state in PowerState:
            totals[state.value] += sbc.psm.time_in_state(state) * draws[state]
    return EnergyBreakdown(by_state=totals)


__all__ = [
    "EnergyBreakdown",
    "sbc_state_breakdown",
]
