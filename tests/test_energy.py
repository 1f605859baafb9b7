"""Tests for energy accounting, efficiency, and proportionality."""

import pytest

from repro.cluster import MicroFaaSCluster
from repro.core.scheduler import LeastLoadedPolicy
from repro.energy import (
    EnergyBreakdown,
    linearity_r_squared,
    peak_efficiency,
    proportionality_index,
    sbc_cluster_power_series,
    sbc_state_breakdown,
    vm_host_power_series,
)
from repro.energy.proportionality import ProportionalitySeries


# -- breakdown --------------------------------------------------------------------


def test_breakdown_totals_and_fractions():
    breakdown = EnergyBreakdown(by_state={"boot": 30.0, "cpu_busy": 70.0})
    assert breakdown.total_joules == pytest.approx(100.0)
    assert breakdown.fraction("boot") == pytest.approx(0.3)
    assert breakdown.fraction("ghost") == 0.0


def test_breakdown_rejects_negative():
    with pytest.raises(ValueError):
        EnergyBreakdown(by_state={"boot": -1.0})


def test_sbc_state_breakdown_matches_trace_energy():
    cluster = MicroFaaSCluster(worker_count=4, seed=5, policy=LeastLoadedPolicy())
    result = cluster.run_saturated(invocations_per_function=2)
    breakdown = sbc_state_breakdown(cluster.sbcs)
    assert breakdown.total_joules == pytest.approx(
        result.energy_joules, rel=0.01
    )


def test_boot_energy_is_a_visible_tax():
    """Rebooting per job costs a meaningful share of the energy —
    that's the price of the clean-state guarantee."""
    cluster = MicroFaaSCluster(worker_count=4, seed=5, policy=LeastLoadedPolicy())
    cluster.run_saturated(invocations_per_function=2)
    breakdown = sbc_state_breakdown(cluster.sbcs)
    assert 0.2 < breakdown.fraction("boot") < 0.8


# -- efficiency ---------------------------------------------------------------------


def test_peak_efficiency_finds_minimum():
    sweep = [(1, 135.0), (6, 32.0), (16, 16.1), (20, 17.0)]
    assert peak_efficiency(sweep) == (16, 16.1)


def test_peak_efficiency_validation():
    with pytest.raises(ValueError):
        peak_efficiency([])
    with pytest.raises(ValueError):
        peak_efficiency([(0, 5.0)])
    with pytest.raises(ValueError):
        peak_efficiency([(1, -5.0)])


# -- proportionality (Fig. 5) -----------------------------------------------------------


def test_sbc_series_is_nearly_linear_through_origin():
    series = sbc_cluster_power_series(10)
    assert series.idle_watts == pytest.approx(10 * 0.128)
    assert linearity_r_squared(series) > 0.999


def test_sbc_series_slope_matches_appendix_loaded_power():
    """Each active board adds ~P_ss = 1.96 W."""
    series = sbc_cluster_power_series(10)
    slope = (series.watts[-1] - series.watts[0]) / 10
    # The nameplate P_ss is 1.96 W; the mix-weighted busy average sits a
    # bit below it because network-bound phases idle the CPU.
    assert slope == pytest.approx(1.96, rel=0.12)


def test_vm_series_has_high_idle_intercept():
    """Fig. 5: 'Notice the difference in idle power consumption.'"""
    vm = vm_host_power_series(12)
    sbc = sbc_cluster_power_series(10)
    assert vm.idle_watts == pytest.approx(60.0)
    assert vm.idle_watts > 40 * sbc.idle_watts


def test_vm_series_is_concave_not_linear():
    vm = vm_host_power_series(12)
    # First VM adds far more power than the last one.
    first_step = vm.watts[1] - vm.watts[0]
    last_step = vm.watts[-1] - vm.watts[-2]
    assert first_step > 2 * last_step


def test_proportionality_indices_contrast():
    """MicroFaaS is nearly perfectly energy-proportional; the
    conventional host is not."""
    sbc = proportionality_index(sbc_cluster_power_series(10))
    vm = proportionality_index(vm_host_power_series(12))
    assert sbc > 0.9
    assert vm < 0.6
    assert sbc > vm + 0.3


def test_series_validation():
    with pytest.raises(ValueError):
        ProportionalitySeries("x", (0, 1), (1.0,))
    with pytest.raises(ValueError):
        ProportionalitySeries("x", (0,), (-1.0,))
    series = ProportionalitySeries("x", (1, 2), (1.0, 2.0))
    with pytest.raises(ValueError):
        _ = series.idle_watts  # no zero point
    with pytest.raises(ValueError):
        sbc_cluster_power_series(0)
    with pytest.raises(ValueError):
        vm_host_power_series(0)


def test_linearity_validation():
    with pytest.raises(ValueError):
        linearity_r_squared(ProportionalitySeries("x", (1,), (1.0,)))


def test_efficiency_ratio_from_results():
    from repro.cluster import ConventionalCluster
    from repro.experiments.headline import HeadlineResult

    mf = MicroFaaSCluster(worker_count=10, seed=1, policy=LeastLoadedPolicy())
    mf_result = mf.run_saturated(invocations_per_function=12)
    cv = ConventionalCluster(vm_count=6, seed=1, policy=LeastLoadedPolicy())
    cv_result = cv.run_saturated(invocations_per_function=12)
    result = HeadlineResult(microfaas=mf_result, conventional=cv_result)
    assert result.efficiency_ratio == pytest.approx(5.6, rel=0.1)
