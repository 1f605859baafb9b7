"""Observability: per-invocation tracing, critical paths, span energy.

- :mod:`repro.obs.trace` — span model, recorders, sampling, ring buffer
- :mod:`repro.obs.critical_path` — latency decomposition + telemetry
  reconciliation
- :mod:`repro.obs.energy` — per-span energy attribution, a view over
  the :class:`~repro.energy.controlplane.EnergyLedger` window integral
- :mod:`repro.obs.export` — Chrome/Perfetto trace-event JSON and JSONL
  exporters, plus the CI schema validator
"""

from repro.obs.trace import (
    FinishedTrace,
    NULL_RECORDER,
    NullTraceRecorder,
    Span,
    TraceConfig,
    TraceRecorder,
    merge_traces,
)

__all__ = [
    "FinishedTrace",
    "NULL_RECORDER",
    "NullTraceRecorder",
    "Span",
    "TraceConfig",
    "TraceRecorder",
    "merge_traces",
]
