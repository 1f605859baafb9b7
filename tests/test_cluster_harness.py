"""Harness-refactor regression tests.

The facades are now thin single-pool compositions over
:class:`~repro.cluster.harness.ClusterHarness`; these pins assert they
produce **bit-identical** results to the pre-refactor seed clusters
(exact float equality, no tolerance) across all three drivers —
saturated, paper arrivals, and trace replay.
"""

import pytest

from repro.cluster import (
    ClusterHarness,
    ConventionalCluster,
    HybridCluster,
    MicroFaaSCluster,
    MicroVmPool,
    SbcPool,
    replay_trace,
)
from repro.core.platform import ARM, CONVENTIONAL, HYBRID, MICROFAAS, X86
from repro.core.scheduler import LeastLoadedPolicy
from repro.sim.rng import RandomStreams
from repro.workloads.traces import poisson_trace
from tests.power_meter import metered_watts


# ---------------------------------------------------------------------------
# Bit-identical pins (values captured from the pre-harness clusters)
# ---------------------------------------------------------------------------


def test_microfaas_saturated_is_bit_identical_to_seed():
    result = MicroFaaSCluster(
        worker_count=10, seed=1, policy=LeastLoadedPolicy()
    ).run_saturated(invocations_per_function=30)
    assert result.jobs_completed == 510
    assert result.duration_s == 153.83822999106283
    assert result.energy_joules == 2901.780468675479
    assert result.telemetry.mean_latency_s() == 77.7359011786214
    assert result.platform == MICROFAAS


def test_conventional_saturated_is_bit_identical_to_seed():
    result = ConventionalCluster(
        vm_count=6, seed=1, policy=LeastLoadedPolicy()
    ).run_saturated(invocations_per_function=30)
    assert result.jobs_completed == 510
    assert result.duration_s == 145.2755447116729
    assert result.energy_joules == 16310.48716775716
    assert result.telemetry.mean_latency_s() == 73.31396433991416
    assert result.platform == CONVENTIONAL


def test_paper_arrivals_are_bit_identical_to_seed():
    microfaas = MicroFaaSCluster(10, seed=2).run_paper_arrivals(
        jobs_per_second=2, total_jobs=60
    )
    assert microfaas.duration_s == 43.111874195645136
    assert microfaas.energy_joules == 388.03463038565474
    conventional = ConventionalCluster(6, seed=2).run_paper_arrivals(
        jobs_per_second=2, total_jobs=60
    )
    assert conventional.duration_s == 33.95382937158088
    assert conventional.energy_joules == 3237.7458583029975


def test_replay_is_bit_identical_to_seed():
    trace = poisson_trace(1.5, 60.0, streams=RandomStreams(2))
    microfaas = replay_trace(MicroFaaSCluster(10, seed=2), trace)
    assert microfaas.jobs_completed == 76
    assert microfaas.duration_s == 73.78649651038525
    assert microfaas.energy_joules == 519.2892989038523
    conventional = replay_trace(ConventionalCluster(6, seed=2), trace)
    assert conventional.jobs_completed == 76
    assert conventional.duration_s == 63.51325182749038
    assert conventional.energy_joules == 5489.416504924443


def test_headline_numbers_survive_the_refactor():
    """The paper's operating point: ~198.9/210.6 func/min, 5.69/31.98 J."""
    microfaas = MicroFaaSCluster(
        worker_count=10, seed=1, policy=LeastLoadedPolicy()
    ).run_saturated(invocations_per_function=30)
    conventional = ConventionalCluster(
        vm_count=6, seed=1, policy=LeastLoadedPolicy()
    ).run_saturated(invocations_per_function=30)
    assert microfaas.throughput_per_min == pytest.approx(198.9, abs=0.1)
    assert conventional.throughput_per_min == pytest.approx(210.6, abs=0.1)
    assert microfaas.joules_per_function == pytest.approx(5.69, abs=0.01)
    assert conventional.joules_per_function == pytest.approx(31.98, abs=0.01)


# ---------------------------------------------------------------------------
# Composition structure
# ---------------------------------------------------------------------------


def test_facades_are_single_pool_harness_compositions():
    microfaas = MicroFaaSCluster(worker_count=2)
    conventional = ConventionalCluster(vm_count=2)
    assert isinstance(microfaas, ClusterHarness)
    assert isinstance(conventional, ClusterHarness)
    assert len(microfaas.pools) == 1
    assert isinstance(microfaas.pools[0], SbcPool)
    assert len(conventional.pools) == 1
    assert isinstance(conventional.pools[0], MicroVmPool)


def test_queue_platform_tags():
    microfaas = MicroFaaSCluster(worker_count=2)
    conventional = ConventionalCluster(vm_count=2)
    assert all(q.platform == ARM for q in microfaas.orchestrator.queues)
    assert all(q.platform == X86 for q in conventional.orchestrator.queues)


def test_worker_lookup_helpers():
    cluster = MicroFaaSCluster(worker_count=2)
    assert cluster.workers[0].platform == ARM
    assert cluster.worker_endpoint(1) == "sbc-1"
    assert cluster.sbc_for(0) is cluster.sbcs[0]
    with pytest.raises(KeyError):
        cluster.worker_endpoint(9)
    conventional = ConventionalCluster(vm_count=2)
    assert conventional.workers[0].platform == X86
    assert conventional.worker_endpoint(0) == "vm-0"
    with pytest.raises(KeyError):
        conventional.sbc_for(0)


def test_pool_energy_attribution_on_facades():
    result = MicroFaaSCluster(worker_count=2, seed=3).run_saturated(
        invocations_per_function=1
    )
    assert result.pool_energy == ((ARM, result.energy_joules),)
    assert result.energy_by_platform == {ARM: result.energy_joules}
    conventional = ConventionalCluster(vm_count=2, seed=3).run_saturated(
        invocations_per_function=1
    )
    assert conventional.pool_energy == ((X86, conventional.energy_joules),)


def test_harness_requires_a_pool_and_pools_validate_counts():
    with pytest.raises(ValueError, match="at least one worker pool"):
        ClusterHarness([], platform=HYBRID)
    with pytest.raises(ValueError, match="at least one worker"):
        MicroFaaSCluster(worker_count=0)
    with pytest.raises(ValueError, match="at least one VM"):
        ConventionalCluster(vm_count=0)
    with pytest.raises(ValueError, match="RAM"):
        ConventionalCluster(vm_count=10_000)


def test_respawn_validation_matches_pre_refactor_behaviour():
    cluster = MicroFaaSCluster(worker_count=2)
    with pytest.raises(KeyError):
        cluster.respawn_worker(5)
    with pytest.raises(RuntimeError, match="still alive"):
        cluster.respawn_worker(0)


def test_vm_pool_does_not_support_respawn():
    conventional = ConventionalCluster(vm_count=1)
    with pytest.raises(NotImplementedError):
        conventional.pool.respawn_worker(conventional, 0)


def test_conventional_bridge_contributes_no_switch_power():
    """include_switch_power sums all switches; the 0 W software bridge
    must not change the old single-switch accounting."""
    cluster = ConventionalCluster(vm_count=2, include_switch_power=True)
    assert cluster.bridge.watts == 0.0
    assert metered_watts(cluster) == (
        cluster.server.watts + cluster.switch.watts
    )


def test_traced_facades_keep_their_labels():
    from repro.obs.trace import TraceConfig

    microfaas = MicroFaaSCluster(worker_count=1, trace=TraceConfig())
    conventional = ConventionalCluster(vm_count=1, trace=TraceConfig())
    assert microfaas.tracer.label == MICROFAAS
    assert conventional.tracer.label == CONVENTIONAL
