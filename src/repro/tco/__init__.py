"""Total-cost-of-ownership model (Cui et al., simplified per Sec. V).

Reproduces Table II exactly: the 5-year single-rack cost comparison
between 41 conventional rack servers and a throughput-equivalent
MicroFaaS deployment of 989 SBCs behind 21 ToR switches.

- :mod:`repro.tco.assumptions` — every constant from the paper's
  appendix.
- :mod:`repro.tco.model` — the compute/network/energy cost model.
- :mod:`repro.tco.analysis` — Table II and sensitivity sweeps.
"""

from repro.tco.assumptions import (
    IDEAL,
    PAPER_CONVENTIONAL_RACK,
    PAPER_MICROFAAS_RACK,
    REALISTIC,
    CostAssumptions,
    DeploymentSpec,
    OperatingConditions,
)
from repro.tco.analysis import (
    Table2Cell,
    sbc_price_sensitivity,
    table2,
    tco_savings_fraction,
)
from repro.tco.model import CostBreakdown, TcoModel

__all__ = [
    "CostAssumptions",
    "CostBreakdown",
    "DeploymentSpec",
    "IDEAL",
    "OperatingConditions",
    "PAPER_CONVENTIONAL_RACK",
    "PAPER_MICROFAAS_RACK",
    "REALISTIC",
    "Table2Cell",
    "TcoModel",
    "sbc_price_sensitivity",
    "table2",
    "tco_savings_fraction",
]
