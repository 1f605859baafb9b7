"""MTBF-based failure models and fleet availability.

The paper's footnote 4 compares a Technologic TS-7800-V2 SBC
(MTBF 2,320,456 h) against an Intel S2600CW server board
(MTBF 234,708 h) — an order of magnitude in favour of the SBC.  We
model failures as exponential (constant hazard, the standard MTBF
reading) and derive the quantities the TCO analysis needs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Footnote-4 MTBF figures, hours.
SBC_MTBF_HOURS = 2_320_456.0
SERVER_MTBF_HOURS = 234_708.0


@dataclass(frozen=True)
class FailureModel:
    """Exponential time-to-failure model."""

    mtbf_hours: float
    #: Time to detect a dead node and swap in a replacement, hours.
    repair_hours: float = 24.0

    def __post_init__(self) -> None:
        if self.mtbf_hours <= 0:
            raise ValueError("MTBF must be positive")
        if self.repair_hours < 0:
            raise ValueError("repair time cannot be negative")

    def availability(self) -> float:
        """Steady-state availability: MTBF / (MTBF + MTTR)."""
        return self.mtbf_hours / (self.mtbf_hours + self.repair_hours)


def expected_replacements(
    node_count: int, model: FailureModel, horizon_hours: float
) -> float:
    """Expected node replacements over a horizon (renewal approximation:
    failures replaced immediately, so each node fails at rate 1/MTBF)."""
    if node_count < 0:
        raise ValueError("node count cannot be negative")
    if horizon_hours < 0:
        raise ValueError("horizon cannot be negative")
    return node_count * horizon_hours / model.mtbf_hours


def sbc_failure_model(repair_hours: float = 24.0) -> FailureModel:
    """Failure model from the cited SBC MTBF."""
    return FailureModel(mtbf_hours=SBC_MTBF_HOURS, repair_hours=repair_hours)


def server_failure_model(repair_hours: float = 72.0) -> FailureModel:
    """Failure model from the cited server-board MTBF (longer repair:
    server swaps need scheduled maintenance)."""
    return FailureModel(
        mtbf_hours=SERVER_MTBF_HOURS, repair_hours=repair_hours
    )


__all__ = [
    "FailureModel",
    "SBC_MTBF_HOURS",
    "SERVER_MTBF_HOURS",
    "expected_replacements",
    "sbc_failure_model",
    "server_failure_model",
]
