"""Table II generation and TCO sensitivity analyses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.tco.assumptions import (
    CostAssumptions,
    DeploymentSpec,
    IDEAL,
    OperatingConditions,
    PAPER_CONVENTIONAL_RACK,
    PAPER_MICROFAAS_RACK,
    REALISTIC,
)
from repro.tco.model import TcoModel


@dataclass(frozen=True)
class Table2Cell:
    """One (scenario, deployment) column of Table II, whole dollars."""

    scenario: str
    deployment: str
    compute_usd: int
    network_usd: int
    energy_usd: int
    total_usd: int


def table2(
    conventional: DeploymentSpec = PAPER_CONVENTIONAL_RACK,
    microfaas: DeploymentSpec = PAPER_MICROFAAS_RACK,
    assumptions: CostAssumptions = CostAssumptions(),
) -> List[Table2Cell]:
    """Regenerate Table II: four columns, whole-dollar amounts.

    Totals are sums of the rounded components, matching the paper's
    presentation.
    """
    model = TcoModel(assumptions)
    cells = []
    for conditions in (IDEAL, REALISTIC):
        for spec in (conventional, microfaas):
            rounded = model.evaluate(spec, conditions).rounded()
            cells.append(
                Table2Cell(
                    scenario=conditions.name,
                    deployment=spec.name,
                    compute_usd=int(rounded.compute_usd),
                    network_usd=int(rounded.network_usd),
                    energy_usd=int(rounded.energy_usd),
                    total_usd=int(rounded.total_usd),
                )
            )
    return cells


def tco_savings_fraction(
    conditions: OperatingConditions,
    conventional: DeploymentSpec = PAPER_CONVENTIONAL_RACK,
    microfaas: DeploymentSpec = PAPER_MICROFAAS_RACK,
    assumptions: CostAssumptions = CostAssumptions(),
) -> float:
    """MicroFaaS saving over conventional, as a fraction of the
    conventional total (the paper reports 32.5-34.2 %)."""
    model = TcoModel(assumptions)
    conventional_total = model.evaluate(conventional, conditions).rounded().total_usd
    microfaas_total = model.evaluate(microfaas, conditions).rounded().total_usd
    return 1.0 - microfaas_total / conventional_total


def sbc_price_sensitivity(
    prices_usd: Tuple[float, ...] = (35.0, 52.5, 75.0, 100.0, 150.0),
    conditions: OperatingConditions = REALISTIC,
    assumptions: CostAssumptions = CostAssumptions(),
) -> List[Tuple[float, float]]:
    """(sbc_price, savings_fraction): where does the MicroFaaS advantage
    break even as boards get more expensive?"""
    rows = []
    for price in prices_usd:
        if price <= 0:
            raise ValueError("price must be positive")
        spec = DeploymentSpec(
            name="microfaas",
            node_count=PAPER_MICROFAAS_RACK.node_count,
            node_cost_usd=price,
            node_loaded_watts=PAPER_MICROFAAS_RACK.node_loaded_watts,
            node_idle_watts=PAPER_MICROFAAS_RACK.node_idle_watts,
            switch_count=PAPER_MICROFAAS_RACK.switch_count,
        )
        rows.append(
            (price, tco_savings_fraction(conditions, microfaas=spec,
                                         assumptions=assumptions))
        )
    return rows


__all__ = [
    "Table2Cell",
    "sbc_price_sensitivity",
    "table2",
    "tco_savings_fraction",
]
