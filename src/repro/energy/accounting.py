"""Energy breakdowns and unit helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

from repro.core.telemetry import InvocationRecord
from repro.hardware.power import PowerState
from repro.hardware.sbc import SingleBoardComputer

JOULES_PER_KWH = 3.6e6


def joules_to_kwh(joules: float) -> float:
    """Convert joules to kilowatt-hours."""
    return joules / JOULES_PER_KWH


def kwh_to_joules(kwh: float) -> float:
    """Convert kilowatt-hours to joules."""
    return kwh * JOULES_PER_KWH


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


def per_function_active_joules(
    records: Iterable[InvocationRecord],
    sbcs: Iterable[SingleBoardComputer],
) -> Dict[str, float]:
    """Trace-integrated joules per function over each record's service
    window (``t_started`` to ``t_completed``) on its worker's board.

    This is the record-level ground truth the per-span attribution in
    :mod:`repro.obs.energy` reconciles against: a delivered attempt's
    boot + transfer + execute spans tile exactly that window, so their
    energies must sum to this integral.  Only per-board-metered workers
    (SBCs) can be attributed; records from other platforms are skipped.
    """
    traces = {sbc.node_id: sbc.trace for sbc in sbcs}
    totals: Dict[str, float] = {}
    for record in records:
        trace = traces.get(record.worker_id)
        if trace is None:
            continue
        joules = trace.energy_joules(record.t_started, record.t_completed)
        totals[record.function] = totals.get(record.function, 0.0) + joules
    return totals


__all__ = [
    "EnergyBreakdown",
    "JOULES_PER_KWH",
    "joules_to_kwh",
    "kwh_to_joules",
    "per_function_active_joules",
    "sbc_state_breakdown",
]
