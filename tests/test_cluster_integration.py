"""Integration tests: full cluster runs reproducing Sec. V behaviour.

These exercise the whole stack — orchestrator, GPIO, boot model, network
transfers, workload profiles, power traces — and check the paper's
aggregate claims at reduced invocation counts.
"""

import pytest

from repro.cluster import ConventionalCluster, MicroFaaSCluster
from repro.core.scheduler import LeastLoadedPolicy, RoundRobinPolicy
from repro.hardware.power import PowerState


def run_microfaas(per_function=12, **kwargs):
    kwargs.setdefault("policy", LeastLoadedPolicy())
    cluster = MicroFaaSCluster(worker_count=10, seed=1, **kwargs)
    result = cluster.run_saturated(invocations_per_function=per_function)
    return cluster, result


def run_conventional(per_function=12, **kwargs):
    kwargs.setdefault("policy", LeastLoadedPolicy())
    cluster = ConventionalCluster(vm_count=6, seed=1, **kwargs)
    result = cluster.run_saturated(invocations_per_function=per_function)
    return cluster, result


# ---------------------------------------------------------------------------
# MicroFaaS cluster
# ---------------------------------------------------------------------------


def test_microfaas_completes_every_job():
    _cluster, result = run_microfaas()
    assert result.jobs_completed == 12 * 17


def test_microfaas_throughput_near_published():
    _cluster, result = run_microfaas(per_function=30)
    assert result.throughput_per_min == pytest.approx(200.6, rel=0.03)


def test_microfaas_energy_per_function_near_published():
    _cluster, result = run_microfaas(per_function=30)
    assert result.joules_per_function == pytest.approx(5.7, rel=0.03)


def test_microfaas_workers_power_off_when_done():
    cluster, _result = run_microfaas()
    assert not any(sbc.is_powered for sbc in cluster.sbcs)
    assert all(sbc.state is PowerState.OFF for sbc in cluster.sbcs)


def test_microfaas_every_job_pays_a_boot():
    """Run-to-completion: boots == jobs on every worker."""
    cluster, result = run_microfaas()
    for sbc in cluster.sbcs:
        assert sbc.boot_count == sbc.jobs_completed


def test_microfaas_gpio_wakes_sleeping_workers():
    cluster, _result = run_microfaas()
    assert all(
        cluster.gpio.line(i).pulses > 0 for i in range(len(cluster.sbcs))
    )


def test_microfaas_boot_time_recorded_as_published():
    _cluster, result = run_microfaas(per_function=2)
    boots = [r.boot_s for r in result.telemetry.records]
    assert all(b == pytest.approx(1.51, abs=0.01) for b in boots)


def test_microfaas_telemetry_splits_working_and_overhead():
    _cluster, result = run_microfaas(per_function=4)
    stats = result.telemetry.all_function_stats()
    assert len(stats) == 17
    for s in stats.values():
        assert s.mean_working_s > 0
        assert s.mean_overhead_s > 0.028  # at least the ARM session cost


def test_microfaas_zero_jitter_is_deterministic():
    results = []
    for _ in range(2):
        cluster = MicroFaaSCluster(worker_count=4, seed=9, jitter_sigma=0.0)
        results.append(cluster.run_saturated(invocations_per_function=3))
    assert results[0].duration_s == results[1].duration_s
    assert results[0].energy_joules == results[1].energy_joules


def test_microfaas_paper_arrivals_mode():
    cluster = MicroFaaSCluster(worker_count=10, seed=2)
    result = cluster.run_paper_arrivals(
        jobs_per_second=2, total_jobs=60
    )
    assert result.jobs_completed == 60
    # At 2 jobs/s (120/min) the cluster is underutilized: boards spend
    # time powered off, so energy per function stays near the busy cost.
    assert result.joules_per_function < 8.0


def test_microfaas_validation():
    with pytest.raises(ValueError):
        MicroFaaSCluster(worker_count=0)
    cluster = MicroFaaSCluster(worker_count=2)
    with pytest.raises(ValueError):
        cluster.run_saturated(invocations_per_function=0)


# ---------------------------------------------------------------------------
# Conventional cluster
# ---------------------------------------------------------------------------


def test_conventional_completes_every_job():
    _cluster, result = run_conventional()
    assert result.jobs_completed == 12 * 17


def test_conventional_throughput_near_published():
    _cluster, result = run_conventional(per_function=30)
    assert result.throughput_per_min == pytest.approx(211.7, rel=0.03)


def test_conventional_energy_per_function_near_published():
    _cluster, result = run_conventional(per_function=30)
    assert result.joules_per_function == pytest.approx(32.0, rel=0.04)


def test_headline_energy_efficiency_ratio():
    """Sec. V headline: a 5.6x energy-efficiency gap."""
    _mf, mf_result = run_microfaas(per_function=30)
    _cv, cv_result = run_conventional(per_function=30)
    ratio = cv_result.joules_per_function / mf_result.joules_per_function
    assert ratio == pytest.approx(5.6, rel=0.05)


def test_conventional_host_never_powers_off():
    cluster, result = run_conventional(per_function=4)
    assert cluster.server.is_powered
    # Average power can never drop below the host's idle floor.
    assert result.average_watts >= cluster.server.spec.idle_watts * 0.99


def test_conventional_vm_boot_time_recorded():
    _cluster, result = run_conventional(per_function=2)
    boots = [r.boot_s for r in result.telemetry.records]
    assert all(b == pytest.approx(0.96, abs=0.05) for b in boots)


def test_conventional_rejects_more_vms_than_ram():
    with pytest.raises(ValueError, match="RAM"):
        ConventionalCluster(vm_count=26)


def test_conventional_oversubscribed_cluster_still_completes():
    cluster = ConventionalCluster(vm_count=18, seed=3, quantum_s=0.15)
    result = cluster.run_saturated(invocations_per_function=3)
    assert result.jobs_completed == 3 * 17
    # Past CPU saturation, the host runs near its loaded power.
    assert result.average_watts > 120.0


# ---------------------------------------------------------------------------
# Cross-cluster comparisons (Fig. 3 directionality)
# ---------------------------------------------------------------------------


def test_fig3_directionality_in_simulation():
    """Redis/MQ ops faster on MicroFaaS; CascSHA much slower."""
    _mf, mf_result = run_microfaas(per_function=8)
    _cv, cv_result = run_conventional(per_function=8)
    mf_stats = mf_result.telemetry.all_function_stats()
    cv_stats = cv_result.telemetry.all_function_stats()
    for fast in ("RedisInsert", "MQProduce"):
        assert (
            mf_stats[fast].mean_runtime_s < cv_stats[fast].mean_runtime_s
        ), fast
    assert (
        mf_stats["CascSHA"].mean_runtime_s
        > 2 * cv_stats["CascSHA"].mean_runtime_s
    )


def test_overhead_larger_on_microfaas_for_bulky_payloads():
    """Fast Ethernet + ARM session cost: RegExSearch overhead is much
    bigger on the SBC than on the GigE VM."""
    _mf, mf_result = run_microfaas(per_function=4)
    _cv, cv_result = run_conventional(per_function=4)
    mf_ovh = mf_result.telemetry.function_stats("RegExSearch").mean_overhead_s
    cv_ovh = cv_result.telemetry.function_stats("RegExSearch").mean_overhead_s
    assert mf_ovh > 2 * cv_ovh
