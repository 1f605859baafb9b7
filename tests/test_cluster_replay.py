"""Tests for trace replay over the harness compositions."""

import pytest

from repro.cluster import (
    ConventionalCluster,
    HybridCluster,
    MicroFaaSCluster,
    replay_trace,
)
from repro.core.platform import CONVENTIONAL, HYBRID, MICROFAAS
from repro.sim.rng import RandomStreams
from repro.workloads.traces import poisson_trace
from tests.arrivals import pairs_trace


def test_empty_trace_rejected():
    cluster = MicroFaaSCluster(worker_count=1)
    with pytest.raises(ValueError, match="empty trace"):
        replay_trace(cluster, pairs_trace([], duration_s=1.0))


def test_replay_labels_results_with_the_cluster_platform():
    trace = poisson_trace(1.0, 30.0, streams=RandomStreams(6))
    assert (
        replay_trace(MicroFaaSCluster(4, seed=1), trace).platform == MICROFAAS
    )
    assert (
        replay_trace(ConventionalCluster(2, seed=1), trace).platform
        == CONVENTIONAL
    )
    assert (
        replay_trace(
            HybridCluster(sbc_count=2, vm_count=1, seed=1), trace
        ).platform
        == HYBRID
    )


def test_hybrid_replay_attributes_energy_per_pool():
    trace = poisson_trace(1.0, 30.0, streams=RandomStreams(6))
    result = replay_trace(HybridCluster(sbc_count=2, vm_count=1, seed=1), trace)
    assert result.jobs_completed == len(trace)
    energy = result.energy_by_platform
    assert set(energy) == {"arm", "x86"}
    assert sum(energy.values()) == pytest.approx(result.energy_joules)


def test_hybrid_replay_preserves_arrival_order_within_batches():
    """Arrivals sharing a timestamp are submitted as one batch; the jobs
    must still appear in trace order with the batch's timestamp."""
    events = [
        (0.5, "FloatOps"),
        (2.0, "MatMul"),
        (2.0, "AES128"),
        (2.0, "FloatOps"),
        (4.0, "MatMul"),
    ]
    trace = pairs_trace(events, duration_s=10.0)
    cluster = HybridCluster(sbc_count=2, vm_count=1, seed=3)
    result = replay_trace(cluster, trace)
    assert result.jobs_completed == len(events)
    jobs = [cluster.orchestrator.jobs[i] for i in sorted(cluster.orchestrator.jobs)]
    assert [j.function for j in jobs] == [f for _, f in events]
    assert [j.t_submit for j in jobs] == [t for t, _ in events]


def test_replay_duration_covers_the_trace_window():
    # One early arrival, long trace: the result window is the trace
    # length, and the idle tail is billed.
    trace = pairs_trace([(0.1, "FloatOps")], duration_s=60.0)
    result = replay_trace(HybridCluster(sbc_count=1, vm_count=1, seed=1), trace)
    assert result.duration_s == 60.0
    assert result.jobs_completed == 1
