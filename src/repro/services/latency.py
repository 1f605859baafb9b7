"""Calibrated service-side operation latencies for the simulation layer.

When a workload function runs *for real* (:mod:`repro.runtime`) it calls
the in-process services directly.  When it runs inside the cluster
simulation, the worker instead waits out the operation's service time
plus the network round trip; this module holds the calibrated per-
operation service times (what the backend SBC spends processing one
request, excluding network).

Values are representative of the paper's backend SBCs: single-core ARM
boxes running Redis/PostgreSQL/MinIO/Kafka — fast for point ops, tens of
milliseconds for query processing and object handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

#: Service processing time per operation, seconds.
SERVICE_LATENCY: Mapping[str, float] = {
    "kv.set": 0.35e-3,
    "kv.get": 0.30e-3,
    "kv.update": 0.40e-3,
    "sql.select": 22e-3,
    "sql.update": 28e-3,
    "cos.get": 18e-3,
    "cos.put": 24e-3,
    "mq.produce": 1.4e-3,
    "mq.consume": 1.8e-3,
}


@dataclass(frozen=True)
class ServiceLatencyModel:
    """Lookup with optional uniform scaling (e.g. a loaded backend)."""

    latencies: Mapping[str, float] = None
    load_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.latencies is None:
            object.__setattr__(self, "latencies", dict(SERVICE_LATENCY))
        if self.load_factor <= 0:
            raise ValueError(f"load_factor must be positive, got {self.load_factor}")
        bad = {op: t for op, t in self.latencies.items() if t < 0}
        if bad:
            raise ValueError(f"negative latencies: {bad}")

    def service_time_s(self, operation: str) -> float:
        """Service time for one operation."""
        if operation not in self.latencies:
            raise KeyError(
                f"unknown service operation {operation!r}; "
                f"known: {sorted(self.latencies)}"
            )
        return self.latencies[operation] * self.load_factor


__all__ = ["SERVICE_LATENCY", "ServiceLatencyModel"]
