"""Tests for the queueing models — including validation against the
full cluster simulation."""

import pytest

from repro.analysis import (
    ClusterQueueModel,
    erlang_c,
    service_moments,
    size_for_slo,
)
from repro.cluster import MicroFaaSCluster, replay_trace
from repro.core.scheduler import LeastLoadedPolicy, RandomSamplingPolicy
from repro.sim.rng import RandomStreams
from repro.workloads.traces import poisson_trace


# -- moments ----------------------------------------------------------------------


def test_service_mean_matches_cluster_calibration():
    mean, second = service_moments()
    # The calibrated mean cycle: 10 workers at 200.6 func/min.
    assert mean == pytest.approx(10 * 60 / 200.6, rel=1e-3)
    assert second > mean**2  # positive variance


def test_service_moments_validation():
    with pytest.raises(ValueError):
        service_moments(functions=())
    with pytest.raises(ValueError):
        service_moments(jitter_sigma=-0.1)


def test_jitter_increases_second_moment_only():
    mean_a, second_a = service_moments(jitter_sigma=0.0)
    mean_b, second_b = service_moments(jitter_sigma=0.3)
    assert mean_a == pytest.approx(mean_b)
    assert second_b > second_a


# -- Erlang C ---------------------------------------------------------------------


def test_erlang_c_single_server_equals_rho():
    """For M/M/1, P(wait) = rho."""
    assert erlang_c(1, 0.5) == pytest.approx(0.5)
    assert erlang_c(1, 0.9) == pytest.approx(0.9)


def test_erlang_c_known_value():
    """Classic call-centre example: c=10, a=8 erlangs => ~0.409."""
    assert erlang_c(10, 8.0) == pytest.approx(0.409, abs=0.01)


def test_erlang_c_more_servers_less_waiting():
    assert erlang_c(12, 8.0) < erlang_c(10, 8.0)


def test_erlang_c_validation():
    with pytest.raises(ValueError):
        erlang_c(0, 0.5)
    with pytest.raises(ValueError):
        erlang_c(2, -1.0)
    with pytest.raises(ValueError):
        erlang_c(2, 2.0)  # unstable


# -- cluster model -----------------------------------------------------------------


def test_capacity_matches_matching_module():
    model = ClusterQueueModel(workers=10)
    assert model.capacity_per_s() * 60 == pytest.approx(200.6, rel=1e-3)


def test_utilization_and_stability():
    model = ClusterQueueModel(workers=10)
    assert model.utilization(1.672) == pytest.approx(0.5, abs=0.01)
    with pytest.raises(ValueError, match="unstable"):
        model.random_split_wait_s(4.0)
    with pytest.raises(ValueError):
        model.central_queue_wait_s(-1.0)


def test_random_split_waits_dominate_central_queue():
    """The analytic queue-imbalance tax: random sampling always waits
    longer than least-loaded, and the gap explodes at low load."""
    model = ClusterQueueModel(workers=10)
    for rate in (0.5, 1.5, 2.5, 3.2):
        assert model.random_split_wait_s(rate) > model.central_queue_wait_s(
            rate
        )

    def imbalance_tax(rate):
        return model.random_split_wait_s(rate) / model.central_queue_wait_s(
            rate
        )

    assert imbalance_tax(0.5) > imbalance_tax(3.2) > 1.0


def test_mean_latency_composition():
    model = ClusterQueueModel(workers=10)
    mean, _ = model.moments
    latency = model.mean_latency_s(2.0, "least-loaded")
    assert latency == pytest.approx(
        model.central_queue_wait_s(2.0) + mean
    )
    with pytest.raises(KeyError):
        model.mean_latency_s(2.0, "packing")


def test_model_validation():
    with pytest.raises(ValueError):
        ClusterQueueModel(workers=0)


# -- validation against the simulator -------------------------------------------------


def _simulated_wait(policy, rate, seed=31, duration=400.0):
    trace = poisson_trace(rate, duration, streams=RandomStreams(seed))
    cluster = MicroFaaSCluster(worker_count=10, seed=seed, policy=policy)
    result = replay_trace(cluster, trace)
    return result.telemetry.mean_queue_wait_s()


def test_central_queue_model_bounds_least_loaded_simulation():
    """M/G/c is a lower bound for JSQ-without-jockeying: an assigned
    job cannot migrate when another queue frees first.  Simulated waits
    sit above the bound but within a small constant factor."""
    model = ClusterQueueModel(workers=10)
    rate = 2.5  # rho ~ 0.75
    predicted = model.central_queue_wait_s(rate)
    simulated = _simulated_wait(LeastLoadedPolicy(), rate)
    assert predicted < simulated < 3.5 * predicted


def test_random_split_model_matches_random_sampling_simulation():
    import random

    model = ClusterQueueModel(workers=10)
    rate = 2.5
    predicted = model.random_split_wait_s(rate)
    simulated = _simulated_wait(RandomSamplingPolicy(random.Random(5)), rate)
    assert simulated == pytest.approx(predicted, rel=0.45)


def test_simulated_policy_gap_matches_analytic_direction():
    import random

    rate = 2.5
    random_wait = _simulated_wait(RandomSamplingPolicy(random.Random(6)), rate)
    least_wait = _simulated_wait(LeastLoadedPolicy(), rate)
    assert random_wait > 1.5 * least_wait


# -- sizing -------------------------------------------------------------------------


def test_size_for_slo_basic():
    # 2 jobs/s with a 5 s mean-latency SLO.
    workers = size_for_slo(2.0, 5.0)
    assert 7 <= workers <= 12
    model = ClusterQueueModel(workers=workers)
    assert model.mean_latency_s(2.0) <= 5.0
    if workers > 1:
        smaller = ClusterQueueModel(workers=workers - 1)
        assert (
            smaller.utilization(2.0) >= 0.999
            or smaller.mean_latency_s(2.0) > 5.0
        )


def test_size_for_slo_tighter_slo_needs_more_workers():
    loose = size_for_slo(2.0, 8.0)
    tight = size_for_slo(2.0, 3.5)
    assert tight > loose


def test_size_for_slo_random_sampling_needs_more_workers():
    least = size_for_slo(2.0, 4.0, policy="least-loaded")
    random_policy = size_for_slo(2.0, 4.0, policy="random-sampling")
    assert random_policy > least


def test_size_for_slo_validation():
    with pytest.raises(ValueError, match="floor"):
        size_for_slo(1.0, 1.0)  # below the boot-inclusive service time
    with pytest.raises(ValueError):
        size_for_slo(0.0, 5.0)
    with pytest.raises(ValueError):
        size_for_slo(1.0, -5.0)
    with pytest.raises(ValueError):
        size_for_slo(1.0, 5.0, max_workers=0)
    with pytest.raises(ValueError, match="no fleet"):
        size_for_slo(1000.0, 3.1, max_workers=50)
