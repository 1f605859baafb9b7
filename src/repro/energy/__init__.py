"""Energy accounting and analysis.

- :mod:`repro.energy.controlplane` — the one per-invocation attribution
  engine, :class:`EnergyLedger` (it holds the worker → board power
  trace map and the window integral every joule report reads), plus
  arrival forecasts for predictive warm pools, warming balance sheets,
  and carbon/price signals.
- :mod:`repro.energy.accounting` — energy per power state
  (:func:`sbc_state_breakdown`).
- :mod:`repro.energy.efficiency` — the peak-efficiency search behind
  Fig. 4 and the analytic per-function energy model.
- :mod:`repro.energy.proportionality` — energy-proportionality metrics
  and the power-vs-active-workers series of Fig. 5.
"""

from repro.energy.accounting import EnergyBreakdown, sbc_state_breakdown
from repro.energy.controlplane import (
    ArrivalForecast,
    CarbonSignal,
    EnergyLedger,
    ReconciliationReport,
    WarmingAccount,
)
from repro.energy.efficiency import peak_efficiency
from repro.energy.proportionality import (
    ProportionalitySeries,
    linearity_r_squared,
    proportionality_index,
    sbc_cluster_power_series,
    vm_host_power_series,
)

__all__ = [
    "ArrivalForecast",
    "CarbonSignal",
    "EnergyBreakdown",
    "EnergyLedger",
    "ProportionalitySeries",
    "ReconciliationReport",
    "WarmingAccount",
    "linearity_r_squared",
    "peak_efficiency",
    "proportionality_index",
    "sbc_cluster_power_series",
    "sbc_state_breakdown",
    "vm_host_power_series",
]
