"""Table II: 5-year single-rack lifetime cost comparison.

This one reproduces the paper to the dollar — the appendix fully
specifies the model.  Also reports the savings range (32.5-34.2 %) and
the sensitivity sweeps DESIGN.md calls out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import paper
from repro.experiments.report import Table, format_table
from repro.tco import (
    IDEAL,
    REALISTIC,
    Table2Cell,
    sbc_price_sensitivity,
    table2,
    tco_savings_fraction,
)


@dataclass(frozen=True)
class Table2Result:
    cells: List[Table2Cell]
    ideal_savings: float
    realistic_savings: float
    price_sensitivity: List[Tuple[float, float]]

    def cell(self, scenario: str, deployment: str) -> Table2Cell:
        for cell in self.cells:
            if cell.scenario == scenario and cell.deployment == deployment:
                return cell
        raise KeyError((scenario, deployment))


def run() -> Table2Result:
    """Regenerate Table II and the sensitivity sweep."""
    return Table2Result(
        cells=table2(),
        ideal_savings=tco_savings_fraction(IDEAL),
        realistic_savings=tco_savings_fraction(REALISTIC),
        price_sensitivity=sbc_price_sensitivity(),
    )


def render(result: Table2Result) -> str:
    by_key: Dict[Tuple[str, str], Table2Cell] = {
        (c.scenario, c.deployment): c for c in result.cells
    }
    rows = []
    for expense in ("compute", "network", "energy", "total"):
        rows.append(
            [expense.capitalize()]
            + [
                f"${getattr(by_key[(scenario, deployment)], expense + '_usd'):,}"
                for scenario in ("ideal", "realistic")
                for deployment in ("conventional", "microfaas")
            ]
        )
    table = format_table(
        ["expense", "ideal conv.", "ideal MicroFaaS",
         "realistic conv.", "realistic MicroFaaS"],
        rows,
        title="Table II - 5-year single-rack lifetime cost (USD)",
    )
    sensitivity = ", ".join(
        f"${price:.0f}: {savings * 100:+.1f}%"
        for price, savings in result.price_sensitivity
    )
    return table + (
        f"\nsavings: ideal {result.ideal_savings * 100:.1f}% "
        f"(paper {paper.TCO_SAVINGS_IDEAL * 100:.1f}%), "
        f"realistic {result.realistic_savings * 100:.1f}% "
        f"(paper {paper.TCO_SAVINGS_REALISTIC * 100:.1f}%)"
        f"\nSBC-price sensitivity (realistic): {sensitivity}"
    )


def tables(result: Table2Result) -> List[Table]:
    """``table2_tco.csv``: one row per (scenario, deployment)."""
    rows = [
        (c.scenario, c.deployment, c.compute_usd, c.network_usd,
         c.energy_usd, c.total_usd)
        for c in result.cells
    ]
    return [(
        "table2_tco.csv",
        ["scenario", "deployment", "compute_usd", "network_usd",
         "energy_usd", "total_usd"],
        rows,
    )]
