"""Reliability substrate: failures, replacement, and fleet availability.

Sec. III-c argues SBC fleets fail less often than rack servers (no
moving parts, less heat; cites a 2.3M-hour SBC MTBF vs a 235k-hour
server-board MTBF) and the TCO model's "realistic" scenario assumes a
95 % online rate.  This package makes those claims executable:

- :mod:`repro.reliability.mtbf` — exponential failure models from the
  cited MTBF figures, fleet availability math, expected replacements.
- :mod:`repro.reliability.chaos` — the one fault engine.  A worker
  crash cuts the board's power mid-job; after a detection delay the
  orchestrator marks the worker dead, drains its queue and recovers
  every lost job onto live workers, and the board rejoins after its
  repair delay.  The same engine injects boot failures with bounded
  power-cycle retries (a board that exhausts them is pulled from the
  rack for good), stuck GPIO lines, link/switch outages and
  backend-service faults, from a hand-written or sampled plan.
"""

from repro.reliability.chaos import (
    ChaosEngine,
    ChaosEvent,
    ChaosKind,
    ChaosPlan,
    ChaosProfile,
)
from repro.reliability.mtbf import (
    SBC_MTBF_HOURS,
    SERVER_MTBF_HOURS,
    FailureModel,
    expected_replacements,
)

__all__ = [
    "ChaosEngine",
    "ChaosEvent",
    "ChaosKind",
    "ChaosPlan",
    "ChaosProfile",
    "FailureModel",
    "SBC_MTBF_HOURS",
    "SERVER_MTBF_HOURS",
    "expected_replacements",
]
