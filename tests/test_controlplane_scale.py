"""Tests for the control-plane model and the scale study."""

import pytest

from repro.cluster import MicroFaaSCluster
from repro.core.controlplane import ControlPlane, ControlPlaneModel
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments import scale_study
from repro.sim import Environment


# -- model ------------------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        ControlPlaneModel(dispatch_s=-1.0)
    with pytest.raises(ValueError):
        ControlPlaneModel(cores=0)


def test_model_capacity():
    model = ControlPlaneModel(dispatch_s=3e-3, collect_s=2e-3, cores=1)
    assert model.capacity_jobs_per_s == pytest.approx(200.0)


def test_zero_cost_model_is_unbounded():
    model = ControlPlaneModel(dispatch_s=0.0, collect_s=0.0)
    assert model.capacity_jobs_per_s == float("inf")


def test_control_plane_serializes_requests():
    env = Environment()
    cp = ControlPlane(env, ControlPlaneModel(dispatch_s=0.1, collect_s=0.0))
    finish = []

    def client():
        yield from cp.dispatch()
        finish.append(env.now)

    for _ in range(4):
        env.process(client())
    env.run()
    assert finish == pytest.approx([0.1, 0.2, 0.3, 0.4])
    assert cp.dispatches == 4
    assert cp.utilization(0.4) == pytest.approx(1.0)


def test_control_plane_utilization_validation():
    env = Environment()
    cp = ControlPlane(env, ControlPlaneModel())
    with pytest.raises(ValueError):
        cp.utilization(0.0)


# -- cluster integration -------------------------------------------------------------


def test_cluster_without_control_plane_is_unchanged():
    cluster = MicroFaaSCluster(worker_count=4, seed=1)
    assert cluster.control_plane is None
    result = cluster.run_saturated(invocations_per_function=3)
    assert result.jobs_completed == 3 * 17


def test_control_plane_negligible_at_testbed_scale():
    """At 10 workers the OP's CPU is a rounding error — the paper's
    testbed never sees its control-plane ceiling."""
    with_cp = MicroFaaSCluster(
        worker_count=10, seed=1, policy=LeastLoadedPolicy(),
        control_plane=ControlPlaneModel(),
    )
    r_with = with_cp.run_saturated(invocations_per_function=12)
    without = MicroFaaSCluster(
        worker_count=10, seed=1, policy=LeastLoadedPolicy()
    )
    r_without = without.run_saturated(invocations_per_function=12)
    assert r_with.throughput_per_min == pytest.approx(
        r_without.throughput_per_min, rel=0.05
    )
    assert with_cp.control_plane.utilization(r_with.duration_s) < 0.05


def test_multi_switch_fabric_grows_with_workers():
    small = MicroFaaSCluster(worker_count=10)
    large = MicroFaaSCluster(worker_count=100)
    assert len(small.switches) == 1
    assert len(large.switches) >= 5
    # Every endpoint still resolves a path to the OP.
    assert large.transfers.rtt_s("sbc-99", "op") > 0
    # Far workers cross more switch hops than near ones.
    assert large.transfers.rtt_s("sbc-99", "op") > large.transfers.rtt_s(
        "sbc-0", "op"
    )


def test_trunk_ports_are_accounted():
    cluster = MicroFaaSCluster(worker_count=60)
    for switch in cluster.switches[:-1]:
        assert switch.ports_free >= 0
        assert switch.trunks  # chained


def test_large_cluster_completes_and_stays_correct():
    cluster = MicroFaaSCluster(
        worker_count=120, seed=2, policy=LeastLoadedPolicy(),
        control_plane=ControlPlaneModel(),
    )
    result = cluster.run_saturated(invocations_per_function=12)
    assert result.jobs_completed == 12 * 17
    for sbc in cluster.sbcs:
        assert sbc.boot_count == sbc.jobs_completed


# -- scale study ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def study():
    return scale_study.run(
        worker_counts=(10, 100, 400, 800), jobs_per_worker=4
    )


def test_scale_study_linear_until_the_control_plane_binds(study):
    points = {p.worker_count: p for p in study.points}
    # Small clusters lose nothing to the OP's CPU.
    assert points[10].scaling_efficiency > 0.98
    assert points[100].scaling_efficiency > 0.95
    # At 800 workers the single-SBC OP visibly bends the curve.
    assert points[800].scaling_efficiency < 0.90
    assert points[800].control_plane_utilization > 0.5
    # Efficiency degrades monotonically as the OP saturates.
    efficiencies = [p.scaling_efficiency for p in study.points]
    assert efficiencies == sorted(efficiencies, reverse=True)


def test_scale_study_switch_counts(study):
    points = {p.worker_count: p for p in study.points}
    assert points[10].switch_count == 1
    assert points[400].switch_count >= 18


def test_scale_study_stays_under_analytic_ceiling(study):
    ceiling = study.control_plane_ceiling_per_min
    assert ceiling == pytest.approx(12_000.0)
    for point in study.points:
        assert point.throughput_per_min < ceiling


def test_scale_study_render(study):
    text = scale_study.render(study)
    assert "control plane ceiling" in text
    assert "workers" in text


def test_scale_study_validation():
    with pytest.raises(ValueError):
        scale_study.run(worker_counts=(10,), jobs_per_worker=0)
