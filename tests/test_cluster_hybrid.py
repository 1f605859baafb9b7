"""Tests for the heterogeneous (SBC + microVM) cluster.

Covers the energy-aware assignment policy, per-platform energy and
telemetry attribution, platform-tagged spans, and chaos on a mixed
fleet (SBC faults recover; VM-targeted board/GPIO faults are counted
as skipped, not crashes).
"""

import pytest

from repro.cluster import HybridCluster, MicroVmPool, SbcPool
from repro.core import SchedulingState, TelemetryCollector, WorkerQueue
from repro.core.job import Job
from repro.core.platform import ARM, HYBRID, X86
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import EnergyAwarePolicy, make_policy
from repro.obs.trace import ATTEMPT, TraceConfig
from repro.reliability import ChaosEngine, ChaosEvent, ChaosKind, ChaosPlan
from repro.sim import Environment


def job(i=0):
    return Job(job_id=i, function="FloatOps", input_bytes=1, output_bytes=1)


def bound(policy, platforms):
    """``policy`` bound to fresh workers of ``platforms``; returns
    their queues."""
    env = Environment()
    state = SchedulingState()
    queues = []
    for i, p in enumerate(platforms):
        state.add_workers(1, p)
        queues.append(WorkerQueue(env, worker_id=i, platform=p, state=state))
    policy.bind(state, queues)
    return queues


# ---------------------------------------------------------------------------
# EnergyAwarePolicy
# ---------------------------------------------------------------------------


def test_energy_aware_prefers_least_loaded_sbc():
    policy = EnergyAwarePolicy()
    queues = bound(policy, [ARM, X86, ARM])
    queues[0].push(job(1))
    assert policy.select(job(2)) == 2


def test_energy_aware_spills_only_under_real_pressure():
    policy = EnergyAwarePolicy(spill_threshold=2)
    queues = bound(policy, [ARM, X86])
    # Below threshold: stay on the SBC even though the VM is empty.
    queues[0].push(job(1))
    assert policy.select(job(2)) == 0
    # At threshold with a shallower VM: spill.
    queues[0].push(job(3))
    assert policy.select(job(4)) == 1
    # At threshold but the VM is just as deep: spilling buys nothing.
    queues[1].push(job(5))
    queues[1].push(job(6))
    assert policy.select(job(7)) == 0


def test_energy_aware_degrades_to_least_loaded_when_homogeneous():
    policy = EnergyAwarePolicy()
    arm_only = bound(policy, [ARM, ARM, ARM])
    arm_only[0].push(job(1))
    arm_only[1].push(job(2))
    assert policy.select(job(3)) == 2
    x86_only = bound(policy, [X86, X86])
    x86_only[0].push(job(4))
    assert policy.select(job(5)) == 1


def test_energy_aware_validation_and_factory():
    with pytest.raises(ValueError):
        EnergyAwarePolicy(spill_threshold=0)
    policy = EnergyAwarePolicy()
    bound(policy, [])
    with pytest.raises(ValueError):
        policy.select(job(0))
    assert make_policy("energy-aware").name == "energy-aware"


# ---------------------------------------------------------------------------
# Cluster composition and end-to-end runs
# ---------------------------------------------------------------------------


def test_hybrid_validation():
    with pytest.raises(ValueError, match="non-negative"):
        HybridCluster(sbc_count=-1, vm_count=2)
    with pytest.raises(ValueError, match="at least one worker"):
        HybridCluster(sbc_count=0, vm_count=0)


def test_hybrid_orders_pools_sbc_first():
    cluster = HybridCluster(sbc_count=3, vm_count=2)
    assert cluster.platform == HYBRID
    assert isinstance(cluster.pools[0], SbcPool)
    assert isinstance(cluster.pools[1], MicroVmPool)
    assert [cluster.workers[i].platform for i in range(5)] == [
        ARM, ARM, ARM, X86, X86,
    ]
    assert cluster.worker_endpoint(2) == "sbc-2"
    assert cluster.worker_endpoint(3) == "vm-3"


def test_degenerate_mixes_build_single_platform_clusters():
    sbc_only = HybridCluster(sbc_count=2, vm_count=0)
    assert len(sbc_only.pools) == 1
    assert sbc_only.vms == []
    vm_only = HybridCluster(sbc_count=0, vm_count=2)
    assert len(vm_only.pools) == 1
    assert vm_only.sbcs == []
    assert vm_only.run_saturated(invocations_per_function=1).jobs_completed == 17


@pytest.mark.parametrize(
    "sbc_count,vm_count,invocations,jobs",
    [(6, 3, 10, 170), (4, 2, 4, 68)],
    ids=["6+3x10", "4+2x4"],
)
def test_hybrid_run_serves_both_platforms_and_splits_the_bill(
    sbc_count, vm_count, invocations, jobs
):
    cluster = HybridCluster(sbc_count=sbc_count, vm_count=vm_count, seed=1)
    result = cluster.run_saturated(invocations_per_function=invocations)
    assert result.jobs_completed == jobs
    telemetry = result.telemetry
    assert telemetry.platforms_seen == [ARM, X86]
    assert (
        telemetry.platform_count(ARM) + telemetry.platform_count(X86) == jobs
    )
    # The energy-aware policy keeps the bulk of the work on the SBCs.
    assert telemetry.platform_count(ARM) > telemetry.platform_count(X86)
    energy = result.energy_by_platform
    assert set(energy) == {ARM, X86}
    assert energy[ARM] + energy[X86] == pytest.approx(result.energy_joules)
    assert result.platform == HYBRID


def test_hybrid_is_deterministic_across_rebuilds():
    a = HybridCluster(sbc_count=4, vm_count=2, seed=5).run_saturated(
        invocations_per_function=3
    )
    b = HybridCluster(sbc_count=4, vm_count=2, seed=5).run_saturated(
        invocations_per_function=3
    )
    assert a.duration_s == b.duration_s
    assert a.energy_joules == b.energy_joules
    assert a.pool_energy == b.pool_energy


def test_streaming_telemetry_tracks_exact_per_platform():
    exact = HybridCluster(sbc_count=4, vm_count=2, seed=3).run_saturated(
        invocations_per_function=4
    )
    streaming = HybridCluster(
        sbc_count=4, vm_count=2, seed=3, telemetry_exact=False
    ).run_saturated(invocations_per_function=4)
    for platform in (ARM, X86):
        assert streaming.telemetry.platform_count(
            platform
        ) == exact.telemetry.platform_count(platform)
        assert streaming.telemetry.platform_percentile_latency_s(
            platform, 99.0
        ) == pytest.approx(
            exact.telemetry.platform_percentile_latency_s(platform, 99.0),
            rel=0.05,
        )


def test_attempt_spans_carry_platform_tags():
    cluster = HybridCluster(
        sbc_count=2, vm_count=1, seed=2, trace=TraceConfig()
    )
    cluster.run_saturated(invocations_per_function=2)
    platforms = set()
    for trace in cluster.finished_traces():
        for span in trace.find(ATTEMPT):
            platforms.add(span.attrs["platform"])
    assert platforms == {ARM, X86}


# ---------------------------------------------------------------------------
# Chaos on a mixed fleet
# ---------------------------------------------------------------------------


def make_chaos_cluster():
    return HybridCluster(
        sbc_count=3, vm_count=2, seed=7, recovery=RecoveryPolicy()
    )


def test_chaos_board_fault_on_vm_target_is_skipped():
    cluster = make_chaos_cluster()
    engine = ChaosEngine(cluster)
    # Worker 4 is a VM: there is no board to crash or GPIO line to wedge.
    events = [
        ChaosEvent(ChaosKind.WORKER_CRASH, 5.0, 4, 4.0),
        ChaosEvent(ChaosKind.GPIO_STUCK, 6.0, 4, 4.0),
    ]
    engine.apply(ChaosPlan(events=tuple(events)))
    result = cluster.run_saturated(invocations_per_function=4)
    assert engine.skipped_unsupported == 2
    assert result.jobs_completed == 68
    assert cluster.orchestrator.jobs_lost == 0


def test_chaos_sbc_fault_on_hybrid_recovers():
    cluster = make_chaos_cluster()
    engine = ChaosEngine(cluster)
    events = [ChaosEvent(ChaosKind.WORKER_CRASH, 5.0, 1, 4.0)]
    engine.apply(ChaosPlan(events=tuple(events)))
    result = cluster.run_saturated(invocations_per_function=4)
    assert engine.injected == 1
    assert engine.skipped_unsupported == 0
    assert engine.mean_recovery_s == pytest.approx(4.0)
    assert result.jobs_completed == 68
    assert 1 not in cluster.orchestrator.dead_workers


def test_chaos_link_fault_reaches_vm_endpoints():
    cluster = make_chaos_cluster()
    engine = ChaosEngine(cluster)
    events = [ChaosEvent(ChaosKind.LINK_DEGRADE, 1.0, 4, 30.0, magnitude=8.0)]
    engine.apply(ChaosPlan(events=tuple(events)))
    result = cluster.run_saturated(invocations_per_function=4)
    assert engine.injected == 1
    assert engine.skipped_unsupported == 0
    assert result.jobs_completed == 68
