"""Tests for the TCO model — Table II reproduces to the dollar."""

import pytest

from repro.tco import (
    CostAssumptions,
    DeploymentSpec,
    IDEAL,
    OperatingConditions,
    PAPER_CONVENTIONAL_RACK,
    PAPER_MICROFAAS_RACK,
    REALISTIC,
    TcoModel,
    sbc_price_sensitivity,
    table2,
    tco_savings_fraction,
)

#: Table II of the paper, to the dollar.
PAPER_TABLE2 = {
    ("ideal", "conventional"): (82_451, 574, 41_676, 124_701),
    ("ideal", "microfaas"): (51_923, 12_280, 17_884, 82_087),
    ("realistic", "conventional"): (86_791, 574, 29_242, 116_607),
    ("realistic", "microfaas"): (54_655, 12_280, 11_778, 78_713),
}


def test_table2_reproduces_every_cell_exactly():
    for cell in table2():
        expected = PAPER_TABLE2[(cell.scenario, cell.deployment)]
        assert (
            cell.compute_usd,
            cell.network_usd,
            cell.energy_usd,
            cell.total_usd,
        ) == expected, (cell.scenario, cell.deployment)


def test_savings_match_paper_range():
    """Sec. V: 'the MicroFaaS cluster is 32.5-34.2% less expensive'."""
    assert tco_savings_fraction(IDEAL) == pytest.approx(0.342, abs=0.001)
    assert tco_savings_fraction(REALISTIC) == pytest.approx(0.325, abs=0.001)


def test_compute_cost_components():
    model = TcoModel()
    assert model.compute_cost(PAPER_CONVENTIONAL_RACK, IDEAL) == pytest.approx(
        41 * 2011
    )
    assert model.compute_cost(PAPER_MICROFAAS_RACK, IDEAL) == pytest.approx(
        989 * 52.50
    )
    # Realistic: online rate divides acquisition.
    assert model.compute_cost(
        PAPER_CONVENTIONAL_RACK, REALISTIC
    ) == pytest.approx(41 * 2011 / 0.95)


def test_network_cost_components():
    model = TcoModel()
    assert model.network_cost(PAPER_CONVENTIONAL_RACK) == pytest.approx(
        500 + 41 * 1.80
    )
    assert model.network_cost(PAPER_MICROFAAS_RACK) == pytest.approx(
        21 * 500 + 989 * 1.80
    )


def test_energy_cost_formula_conventional_ideal():
    """(41 x 150 W x SPUE + 40.87 W) x PUE x 43,200 h x $0.10/kWh."""
    model = TcoModel()
    watts = (41 * 150 * 1.2 + 40.87) * 1.3
    expected = watts * 43_200 / 1000 * 0.10
    assert model.energy_cost(
        PAPER_CONVENTIONAL_RACK, IDEAL
    ) == pytest.approx(expected)
    assert round(expected) == 41_676  # the printed cell


def test_average_node_watts_interpolates():
    model = TcoModel()
    assert model.average_node_watts(
        PAPER_CONVENTIONAL_RACK, REALISTIC
    ) == pytest.approx(105.0)
    assert model.average_node_watts(
        PAPER_MICROFAAS_RACK, REALISTIC
    ) == pytest.approx(1.044)


def test_online_rate_does_not_scale_energy():
    """Replacement nodes consume in place of failed ones."""
    model = TcoModel()
    full = OperatingConditions("a", utilization=0.5, online_rate=1.0)
    degraded = OperatingConditions("b", utilization=0.5, online_rate=0.9)
    assert model.energy_cost(
        PAPER_CONVENTIONAL_RACK, full
    ) == pytest.approx(model.energy_cost(PAPER_CONVENTIONAL_RACK, degraded))


def test_assumption_validation():
    with pytest.raises(ValueError):
        CostAssumptions(pue=0.9)
    with pytest.raises(ValueError):
        CostAssumptions(electricity_usd_per_kwh=0.0)
    with pytest.raises(ValueError):
        CostAssumptions(lifetime_hours=0.0)


def test_deployment_validation():
    with pytest.raises(ValueError):
        DeploymentSpec("x", 0, 1.0, 2.0, 1.0, 1)
    with pytest.raises(ValueError):
        DeploymentSpec("x", 1, 1.0, 1.0, 2.0, 1)  # idle > loaded
    with pytest.raises(ValueError):
        DeploymentSpec("x", 1, -1.0, 2.0, 1.0, 1)


def test_conditions_validation():
    with pytest.raises(ValueError):
        OperatingConditions("x", utilization=1.5, online_rate=1.0)
    with pytest.raises(ValueError):
        OperatingConditions("x", utilization=0.5, online_rate=0.0)


def test_energy_proportionality_dominates_at_zero_utilization():
    """An idle conventional rack still burns 60 W/server; an idle
    MicroFaaS rack draws almost nothing beyond its switches."""
    model = TcoModel()
    idle = OperatingConditions("idle", utilization=0.0, online_rate=1.0)
    conventional = model.energy_cost(PAPER_CONVENTIONAL_RACK, idle)
    microfaas = model.energy_cost(PAPER_MICROFAAS_RACK, idle)
    assert conventional > 2.5 * microfaas


def test_sbc_price_sensitivity_monotone():
    rows = sbc_price_sensitivity()
    savings = [s for _p, s in rows]
    assert all(b < a for a, b in zip(savings, savings[1:]))
    # At the paper's $52.50 the saving is ~32.5 %.
    at_paper_price = dict(rows)[52.5]
    assert at_paper_price == pytest.approx(0.325, abs=0.001)
    with pytest.raises(ValueError):
        sbc_price_sensitivity(prices_usd=(0.0,))


def test_breakeven_sbc_price_is_between_retail_and_2x():
    """MicroFaaS stays cheaper at retail but the advantage dies before
    boards reach ~$100 — the low unit price is load-bearing."""
    rows = sbc_price_sensitivity(prices_usd=(52.5, 85.0, 100.0, 150.0))
    savings = dict(rows)
    assert savings[52.5] > 0.3
    assert savings[100.0] < 0
    assert savings[150.0] < savings[100.0]
