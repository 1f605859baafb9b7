"""The paper-constants module agrees with the models built from it."""

import pytest

from repro import paper
from repro.bootos import optimized_sequence
from repro.cluster.matching import (
    match_vm_count,
    microfaas_throughput_per_min,
    vm_throughput_per_min,
)
from repro.energy.proportionality import (
    sbc_cluster_power_series,
    vm_host_power_series,
)
from repro.hardware.specs import (
    BEAGLEBONE_BLACK,
    CATALYST_2960S,
    DELL_POWEREDGE_R6515,
    THINKMATE_RAX,
)
from repro.reliability import SBC_MTBF_HOURS, SERVER_MTBF_HOURS
from repro.tco import IDEAL, REALISTIC, table2, tco_savings_fraction
from repro.tco.assumptions import CostAssumptions


def test_boot_constants_match_boot_model():
    assert optimized_sequence("arm").real_s == pytest.approx(
        paper.BOOT_ARM_S, abs=0.005
    )
    assert optimized_sequence("x86").real_s == pytest.approx(
        paper.BOOT_X86_S, abs=0.005
    )


def test_hardware_constants_match_specs():
    assert BEAGLEBONE_BLACK.unit_cost_usd == paper.SBC_COST_USD
    assert BEAGLEBONE_BLACK.power.off == paper.SBC_IDLE_WATTS
    assert THINKMATE_RAX.idle_watts == paper.SERVER_IDLE_WATTS
    assert THINKMATE_RAX.loaded_watts == paper.SERVER_LOADED_WATTS
    assert THINKMATE_RAX.cpu.cores == paper.HOST_CORES
    assert THINKMATE_RAX.reboot_s == paper.RACK_SERVER_REBOOT_S
    assert DELL_POWEREDGE_R6515.unit_cost_usd == paper.SERVER_COST_USD
    assert CATALYST_2960S.watts == paper.SWITCH_WATTS
    assert CATALYST_2960S.ports == paper.SWITCH_PORTS
    assert CATALYST_2960S.unit_cost_usd == paper.SWITCH_COST_USD


def test_throughput_constants_match_matching_model():
    assert microfaas_throughput_per_min(
        paper.MICROFAAS_WORKERS
    ) == pytest.approx(paper.MICROFAAS_FUNC_PER_MIN, abs=0.5)
    assert vm_throughput_per_min(paper.CONVENTIONAL_VMS) == pytest.approx(
        paper.CONVENTIONAL_FUNC_PER_MIN, abs=0.5
    )
    assert match_vm_count(paper.MICROFAAS_WORKERS) == paper.CONVENTIONAL_VMS


def test_headline_ratio_is_consistent():
    assert (
        paper.CONVENTIONAL_J_PER_FUNC / paper.MICROFAAS_J_PER_FUNC
    ) == pytest.approx(paper.ENERGY_EFFICIENCY_RATIO, abs=0.05)


def test_tco_constants_match_model():
    assumptions = CostAssumptions()
    assert assumptions.pue == paper.PUE
    assert assumptions.spue == paper.SPUE
    assert assumptions.lifetime_hours == paper.TCO_LIFETIME_HOURS
    assert assumptions.cable_usd_per_node == paper.CABLE_USD_PER_NODE
    for cell in table2():
        assert (
            cell.compute_usd, cell.network_usd, cell.energy_usd,
            cell.total_usd,
        ) == paper.TABLE2_USD[(cell.scenario, cell.deployment)]
    assert tco_savings_fraction(IDEAL) == pytest.approx(
        paper.TCO_SAVINGS_IDEAL, abs=0.001
    )
    assert tco_savings_fraction(REALISTIC) == pytest.approx(
        paper.TCO_SAVINGS_REALISTIC, abs=0.001
    )


def test_mtbf_constants_match():
    assert SBC_MTBF_HOURS == paper.SBC_MTBF_HOURS
    assert SERVER_MTBF_HOURS == paper.SERVER_BOARD_MTBF_HOURS


def test_all_constants_exported():
    assert "MICROFAAS_J_PER_FUNC" in paper.__all__
    assert all(name.isupper() for name in paper.__all__)


# -- proportionality score (Wong & Annavaram style) -------------------------------
