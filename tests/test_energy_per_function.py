"""Tests for per-function energy and the idle-grace policy."""

import pytest

from repro.cluster import MicroFaaSCluster, replay_trace
from repro.core.lifecycle import RunToCompletionPolicy
from repro.sim.rng import RandomStreams
from repro.workloads.base import ALL_FUNCTION_NAMES
from repro.workloads.profiles import PROFILES
from repro.workloads.traces import poisson_trace


def per_function_energy_j(
    boot_s=1.51, power_boot_w=1.90, power_cpu_w=2.20, power_io_w=1.20
):
    """Analytic per-function MicroFaaS energy from the calibrated profiles.

    Splits each invocation into boot, CPU, and I/O phases at the SBC's
    per-state draws (overhead transfer time is I/O).  The mix-weighted
    mean of the result is the published 5.7 J/function; individual
    functions range from ~3 J (MQProduce) to ~11 J (MatMul).
    """
    session_s, goodput = 28e-3, 90e6
    energies = {}
    for name in ALL_FUNCTION_NAMES:
        profile = PROFILES[name]
        payload = profile.input_bytes + profile.output_bytes
        overhead_s = session_s + payload * 8 / goodput
        cpu_s = profile.work_arm_s * profile.cpu_fraction_arm
        io_s = profile.work_arm_s - cpu_s + overhead_s
        energies[name] = (
            boot_s * power_boot_w + cpu_s * power_cpu_w + io_s * power_io_w
        )
    return energies


def test_per_function_energy_mix_mean_is_published_value():
    energies = per_function_energy_j()
    assert sum(energies.values()) / len(energies) == pytest.approx(
        5.7, rel=1e-3
    )


def test_per_function_energy_ordering_is_sensible():
    energies = per_function_energy_j()
    # Heavy compute costs the most; tiny queue ops the least.
    assert energies["MatMul"] == max(energies.values())
    assert energies["MQProduce"] == min(energies.values())
    assert energies["MatMul"] > 2.5 * energies["MQProduce"]
    # Every function pays at least the boot tax.
    boot_tax = 1.51 * 1.90
    assert all(e > boot_tax for e in energies.values())


def test_per_function_energy_matches_simulation():
    """The analytic split agrees with measured per-function cluster
    energy (single-function runs, zero jitter)."""
    energies = per_function_energy_j()
    for name in ("CascSHA", "MQProduce"):
        cluster = MicroFaaSCluster(worker_count=2, seed=1, jitter_sigma=0.0)
        for _ in range(6):
            cluster.orchestrator.submit_function(name)
        cluster.env.run(until=cluster.orchestrator.wait_all())
        measured = cluster.energy_joules(0.0, cluster.env.now) / 6
        assert measured == pytest.approx(energies[name], rel=0.03), name


def test_idle_grace_saves_power_cycles_not_boots():
    """With reboot-between-jobs, a grace period can only reduce GPIO
    power cycles (boards stay on between close arrivals); the clean-
    state boot per job remains."""
    def run(grace):
        policy = RunToCompletionPolicy(
            reboot_between_jobs=True,
            power_off_when_idle=True,
            idle_grace_s=grace,
        )
        trace = poisson_trace(1.2, 60.0, streams=RandomStreams(14))
        cluster = MicroFaaSCluster(
            worker_count=4, seed=14, worker_policy=policy
        )
        replay_trace(cluster, trace)
        pulses = sum(
            cluster.gpio.line(i).pulses for i in range(len(cluster.sbcs))
        )
        boots = sum(sbc.boot_count for sbc in cluster.sbcs)
        jobs = sum(sbc.jobs_completed for sbc in cluster.sbcs)
        return pulses, boots, jobs

    eager_pulses, eager_boots, eager_jobs = run(grace=0.0)
    lazy_pulses, lazy_boots, lazy_jobs = run(grace=8.0)
    assert eager_jobs == lazy_jobs
    assert lazy_pulses < eager_pulses  # fewer off/on cycles
    assert lazy_boots == lazy_jobs  # but still one clean boot per job
