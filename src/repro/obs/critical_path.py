"""Critical-path decomposition of traced invocations.

The paper's Fig. 3 splits invocation latency into *Working* time (the
function body, backend waits included) and network/platform *Overhead*
(input + result transfer, session setup).  :class:`TelemetryCollector`
reports that split as post-hoc aggregates; this module re-derives it
from first principles by walking each trace's span tree along the path
that actually delivered the result:

    queue_wait → boot → input_transfer → execute → result_transfer

Because the worker emits those spans from the *same* timestamp
variables it feeds into :class:`~repro.core.telemetry.InvocationRecord`
(``execute`` duration *is* ``working_s``; ``input_transfer`` +
``result_transfer`` durations *are* ``overhead_s``), the per-function
means computed here must agree with the collector's to float-addition
noise — the headline-run reconciliation test pins the gap below 1e-9.

Only the **delivered attempt** contributes to a critical path: a losing
hedge or a crashed attempt burns energy (the energy ledger bills it to
``wasted``; :mod:`repro.obs.energy` shows it per span) but does not sit
on the latency path of the result the client saw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.telemetry import TelemetryCollector
from repro.obs.trace import (
    BOOT,
    EXECUTE,
    FinishedTrace,
    INPUT_TRANSFER,
    QUEUE_WAIT,
    RESULT_TRANSFER,
    Span,
)


@dataclass(frozen=True)
class CriticalPath:
    """Latency decomposition of one invocation's delivering attempt.

    ``latency_s`` is queue-entry to result delivery of the delivering
    attempt (the collector's end-to-end latency); ``unattributed_s`` is
    whatever part of it no segment claims (post-result slack inside the
    attempt window never lands here — the path ends at the result).
    """

    trace_id: int
    function: str
    label: str
    attempt_index: int  # 0-based position among the trace's attempts
    attempt_count: int
    worker_id: Optional[int]
    latency_s: float
    queue_wait_s: float
    boot_s: float
    input_transfer_s: float
    working_s: float
    result_transfer_s: float

    @property
    def overhead_s(self) -> float:
        """The Fig. 3 overhead bar: transfer + session time."""
        return self.input_transfer_s + self.result_transfer_s

    @property
    def runtime_s(self) -> float:
        """The Fig. 3 runtime bar: working + overhead (boot excluded)."""
        return self.working_s + self.overhead_s

    @property
    def unattributed_s(self) -> float:
        return self.latency_s - (
            self.queue_wait_s + self.boot_s + self.working_s
            + self.overhead_s
        )

    def segments(self) -> Dict[str, float]:
        """Ordered segment durations (the waterfall view)."""
        return {
            QUEUE_WAIT: self.queue_wait_s,
            BOOT: self.boot_s,
            INPUT_TRANSFER: self.input_transfer_s,
            EXECUTE: self.working_s,
            RESULT_TRANSFER: self.result_transfer_s,
        }


def _phase_duration(children: List[Span], name: str) -> float:
    return sum(s.duration_s for s in children if s.name == name)


def analyze(trace: FinishedTrace) -> Optional[CriticalPath]:
    """Critical path of one finished trace.

    Returns None for traces with no delivered attempt (jobs lost to
    ``_give_up``, or still in flight when the recorder was drained).
    """
    if trace.delivered_attempt is None:
        return None
    attempts = trace.attempts()
    delivered = None
    attempt_index = 0
    for index, attempt in enumerate(attempts):
        if attempt.span_id == trace.delivered_attempt:
            delivered = attempt
            attempt_index = index
            break
    if delivered is None:
        return None
    children = trace.children_of(delivered.span_id)
    queue_wait = 0.0
    for span in trace.find(QUEUE_WAIT):
        attrs = span.attrs or {}
        if attrs.get("attempt_span") == delivered.span_id:
            queue_wait = span.duration_s
            break
    result_spans = [s for s in children if s.name == RESULT_TRANSFER]
    # The path ends when the result left the worker, not when the
    # attempt span closed (housekeeping — reboot, shutdown — trails it).
    if result_spans:
        path_end = max(s.end_s for s in result_spans)
    else:
        execute_spans = [s for s in children if s.name == EXECUTE]
        path_end = (
            max(s.end_s for s in execute_spans)
            if execute_spans else delivered.end_s
        )
    return CriticalPath(
        trace_id=trace.trace_id,
        function=trace.function,
        label=trace.label,
        attempt_index=attempt_index,
        attempt_count=len(attempts),
        worker_id=delivered.worker_id,
        latency_s=(path_end - delivered.start_s) + queue_wait,
        queue_wait_s=queue_wait,
        boot_s=_phase_duration(children, BOOT),
        input_transfer_s=_phase_duration(children, INPUT_TRANSFER),
        working_s=_phase_duration(children, EXECUTE),
        result_transfer_s=_phase_duration(children, RESULT_TRANSFER),
    )


def analyze_all(traces: Iterable[FinishedTrace]) -> List[CriticalPath]:
    """Critical paths of every delivering trace, submission order."""
    paths = [analyze(trace) for trace in traces]
    return [path for path in paths if path is not None]


@dataclass(frozen=True)
class SegmentSummary:
    """Mean segment durations over a set of critical paths."""

    count: int
    mean_latency_s: float
    mean_queue_wait_s: float
    mean_boot_s: float
    mean_working_s: float
    mean_overhead_s: float
    mean_unattributed_s: float


def summarize(paths: Iterable[CriticalPath]) -> SegmentSummary:
    paths = list(paths)
    if not paths:
        raise ValueError("no critical paths")
    n = len(paths)
    return SegmentSummary(
        count=n,
        mean_latency_s=sum(p.latency_s for p in paths) / n,
        mean_queue_wait_s=sum(p.queue_wait_s for p in paths) / n,
        mean_boot_s=sum(p.boot_s for p in paths) / n,
        mean_working_s=sum(p.working_s for p in paths) / n,
        mean_overhead_s=sum(p.overhead_s for p in paths) / n,
        mean_unattributed_s=sum(p.unattributed_s for p in paths) / n,
    )


@dataclass(frozen=True)
class Reconciliation:
    """Trace-derived vs. collector-derived Fig. 3 split, per function."""

    function: str
    count_traces: int
    count_records: int
    trace_mean_working_s: float
    telemetry_mean_working_s: float
    trace_mean_overhead_s: float
    telemetry_mean_overhead_s: float

    @property
    def working_gap_s(self) -> float:
        return abs(self.trace_mean_working_s - self.telemetry_mean_working_s)

    @property
    def overhead_gap_s(self) -> float:
        return abs(
            self.trace_mean_overhead_s - self.telemetry_mean_overhead_s
        )

    def agrees(self, tolerance: float = 1e-9) -> bool:
        return (
            self.count_traces == self.count_records
            and self.working_gap_s <= tolerance
            and self.overhead_gap_s <= tolerance
        )


def reconcile(
    traces: Iterable[FinishedTrace],
    telemetry: TelemetryCollector,
) -> Dict[str, Reconciliation]:
    """Compare per-function working/overhead means against a collector.

    Meaningful only when every completed invocation was traced
    (``sample_rate=1.0`` and a ring large enough to hold the run) —
    otherwise the trace-side means are computed over a subset and the
    per-function counts will disagree, which ``agrees()`` reports.
    """
    by_function: Dict[str, List[CriticalPath]] = {}
    for path in analyze_all(traces):
        by_function.setdefault(path.function, []).append(path)
    out: Dict[str, Reconciliation] = {}
    for function in sorted(by_function):
        paths = by_function[function]
        try:
            stats = telemetry.function_stats(function)
        except KeyError:
            continue
        n = len(paths)
        out[function] = Reconciliation(
            function=function,
            count_traces=n,
            count_records=stats.count,
            trace_mean_working_s=sum(p.working_s for p in paths) / n,
            telemetry_mean_working_s=stats.mean_working_s,
            trace_mean_overhead_s=sum(p.overhead_s for p in paths) / n,
            telemetry_mean_overhead_s=stats.mean_overhead_s,
        )
    return out


def max_reconciliation_gap(
    reconciliations: Dict[str, Reconciliation],
) -> float:
    """Worst working/overhead mean disagreement across functions."""
    if not reconciliations:
        raise ValueError("no reconciliations")
    return max(
        max(r.working_gap_s, r.overhead_gap_s)
        for r in reconciliations.values()
    )


__all__ = [
    "CriticalPath",
    "Reconciliation",
    "SegmentSummary",
    "analyze",
    "analyze_all",
    "max_reconciliation_gap",
    "reconcile",
    "summarize",
]
