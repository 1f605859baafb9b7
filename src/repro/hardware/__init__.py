"""Hardware models: SBC and rack-server specs, power states and traces.

This package models the physical substrate of the paper's two test
clusters:

- :mod:`repro.hardware.specs` — immutable spec sheets for the BeagleBone
  Black SBC, the Thinkmate RAX rack server (AMD Opteron 6172), the Dell
  PowerEdge R6515 used in the TCO analysis, and the Cisco Catalyst ToR
  switch.
- :mod:`repro.hardware.power` — power-state machines producing
  piecewise-constant power traces, plus the concave utilization→power
  curve of a non-energy-proportional rack server.
- :mod:`repro.hardware.sbc` — a single-board computer with GPIO-driven
  power control (the paper's worker node).
- :mod:`repro.hardware.rackserver` — the virtualization host.
"""

from repro.hardware.power import (
    PowerState,
    PowerStateMachine,
    PowerTrace,
    UtilizationPowerModel,
)
from repro.hardware.rackserver import RackServer
from repro.hardware.sbc import SingleBoardComputer
from repro.hardware.specs import (
    BEAGLEBONE_BLACK,
    CATALYST_2960S,
    DELL_POWEREDGE_R6515,
    THINKMATE_RAX,
    CpuSpec,
    NicSpec,
    RackServerSpec,
    SbcPowerDraw,
    SbcSpec,
    SwitchSpec,
)

__all__ = [
    "BEAGLEBONE_BLACK",
    "CATALYST_2960S",
    "CpuSpec",
    "DELL_POWEREDGE_R6515",
    "NicSpec",
    "PowerState",
    "PowerStateMachine",
    "PowerTrace",
    "RackServer",
    "RackServerSpec",
    "SbcPowerDraw",
    "SbcSpec",
    "SingleBoardComputer",
    "SwitchSpec",
    "THINKMATE_RAX",
    "UtilizationPowerModel",
]
