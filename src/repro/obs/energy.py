"""Per-span energy attribution (FaasMeter-style J-per-stage).

A thin view over the one energy engine,
:class:`repro.energy.controlplane.EnergyLedger`: its ``window_joules``
over a span's ``[start_s, end_s]`` on the span's worker yields the
joules that board spent inside the span.  Attribution walks the attempt
spans of a trace:

- every *phase* child (``boot``, ``input_transfer``, ``execute``,
  ``result_transfer``, ``reboot``) gets its integral;
- the **idle residual** is the attempt-window energy minus the phase
  energies — post-job grace, shutdown latency, anything the phases do
  not tile;
- the trace total is the sum over attempts.  Attempts are time-disjoint
  per board (a worker runs one job at a time) and a retried attempt
  runs on its own window, so retries and hedges can never double-count
  a joule — the chaos-fault reconciliation test pins this.

The delivered attempt's ``active_j`` (boot + transfers + execute) tiles
the ``[t_started, t_completed]`` window the ledger bills to
``ledger.function_joules``; the tests reconcile the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs.trace import ACTIVE_PHASES, FinishedTrace, REBOOT

#: Attempt children that get their own energy integral; everything else
#: inside the attempt window lands in the idle residual.
ENERGY_PHASES = ACTIVE_PHASES + (REBOOT,)


@dataclass(frozen=True)
class AttemptEnergy:
    """Joules one attempt burned on its board, split by phase."""

    attempt_span_id: int
    worker_id: int
    start_s: float
    end_s: float
    total_j: float
    phase_j: Dict[str, float]
    delivered: bool

    @property
    def idle_j(self) -> float:
        """Attempt-window energy no phase claims (grace, shutdown)."""
        return self.total_j - sum(self.phase_j.values())

    @property
    def active_j(self) -> float:
        """Boot + transfers + execute — the working envelope."""
        return sum(self.phase_j.get(name, 0.0) for name in ACTIVE_PHASES)


@dataclass(frozen=True)
class TraceEnergy:
    """Energy attribution of one full trace across all its attempts."""

    trace_id: int
    function: str
    label: str
    attempts: Tuple[AttemptEnergy, ...]

    @property
    def total_j(self) -> float:
        return sum(a.total_j for a in self.attempts)

    @property
    def active_j(self) -> float:
        return sum(a.active_j for a in self.attempts)

    @property
    def delivered_active_j(self) -> float:
        """Active joules of the attempt that produced the result."""
        return sum(a.active_j for a in self.attempts if a.delivered)

    @property
    def wasted_j(self) -> float:
        """Energy burned by attempts that did not deliver the result
        (lost hedges, crashed-then-retried executions)."""
        return sum(a.total_j for a in self.attempts if not a.delivered)

    def phase_totals(self) -> Dict[str, float]:
        """Joules per phase summed over attempts (plus ``idle``)."""
        totals: Dict[str, float] = {name: 0.0 for name in ENERGY_PHASES}
        idle = 0.0
        for attempt in self.attempts:
            for name, joules in attempt.phase_j.items():
                totals[name] = totals.get(name, 0.0) + joules
            idle += attempt.idle_j
        totals["idle"] = idle
        return totals


def attribute(trace: FinishedTrace, ledger) -> TraceEnergy:
    """Join one trace's span intervals against the ledger's boards.

    ledger:
        An :class:`~repro.energy.controlplane.EnergyLedger` covering the
        cluster (``cluster.enable_energy_ledger()``).  Attempts on
        workers it does not cover (VM guests, remote shard workers) are
        attributed zero energy rather than failing.
    """
    window_joules = ledger.window_joules
    attempt_energies: List[AttemptEnergy] = []
    for attempt in trace.attempts():
        worker_id = attempt.worker_id
        phase_j: Dict[str, float] = {}
        for child in trace.children_of(attempt.span_id):
            if child.name not in ENERGY_PHASES:
                continue
            joules = window_joules(worker_id, child.start_s, child.end_s)
            phase_j[child.name] = phase_j.get(child.name, 0.0) + joules
        attempt_energies.append(
            AttemptEnergy(
                attempt_span_id=attempt.span_id,
                worker_id=worker_id if worker_id is not None else -1,
                start_s=attempt.start_s,
                end_s=attempt.end_s,
                total_j=window_joules(
                    worker_id, attempt.start_s, attempt.end_s
                ),
                phase_j=phase_j,
                delivered=attempt.span_id == trace.delivered_attempt,
            )
        )
    return TraceEnergy(
        trace_id=trace.trace_id,
        function=trace.function,
        label=trace.label,
        attempts=tuple(attempt_energies),
    )


__all__ = [
    "ENERGY_PHASES",
    "AttemptEnergy",
    "TraceEnergy",
    "attribute",
]
