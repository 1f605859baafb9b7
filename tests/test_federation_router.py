"""Tests for federation routing policies and the health-checked router."""

import pytest

from repro.core.policies import WorkerHealthTracker
from repro.federation import (
    FederatedCluster,
    FederationRouter,
    LatencyAwarePolicy,
    RegionSpec,
)
from repro.net.wan import WanFabric


def make_fed(region_count=3, workers=2):
    specs = [
        RegionSpec(f"r{i}", f"r{i}", worker_count=workers, seed=50 + i)
        for i in range(region_count)
    ]
    return FederatedCluster(specs)


def test_latency_aware_prefers_nearest():
    fed = make_fed()
    policy = LatencyAwarePolicy()
    # A client in r1's geo: r1 has the lowest ingress latency.
    index = policy.select("r1", fed.regions, fed.wan, now=0.0)
    assert fed.regions[index].name == "r1"


def test_latency_aware_sees_brownout_degradation():
    fed = make_fed()
    policy = LatencyAwarePolicy()
    # Degrade r1's ingress past the one-hop penalty: the next-nearest
    # region wins for r1-geo clients.
    fed.wan.ingress_link("r1").degrade(1.0)
    index = policy.select("r1", fed.regions, fed.wan, now=0.0)
    assert fed.regions[index].name != "r1"


def test_router_skips_quarantined_regions():
    fed = make_fed()
    router = fed.router
    # Open r0's breaker: it leaves the candidate set until quarantine
    # expires.
    for _ in range(router.breaker.failure_threshold):
        router.breaker.record_failure(0, now=0.0)
    candidates = router.candidate_regions(now=0.0)
    assert all(region.index != 0 for region in candidates)
    target = router.route("r0", now=0.0)
    assert target.index != 0


def test_router_skips_declared_outages():
    fed = make_fed()
    fed.regions[1].declare_outage(now=0.0)
    candidates = fed.router.candidate_regions(now=0.0)
    assert all(region.index != 1 for region in candidates)


def test_router_relaxes_exclusion_before_starving():
    fed = make_fed()
    # Exclude everything: the exclusion preference must fall away.
    target = fed.router.route("r0", now=0.0, exclude={0, 1, 2})
    assert target in fed.regions


def test_router_routes_even_when_all_regions_down():
    fed = make_fed()
    for region in fed.regions:
        region.declare_outage(now=0.0)
    # Jobs are queued into a down region (delivery defers to recovery)
    # rather than dropped.
    target = fed.router.route("r0", now=0.0)
    assert target in fed.regions


def test_router_rejects_empty_region_list():
    fed = make_fed()
    with pytest.raises(ValueError):
        FederationRouter([], fed.wan)


def test_custom_breaker_is_used():
    fed = make_fed()
    breaker = WorkerHealthTracker(failure_threshold=1, quarantine_s=5.0)
    router = FederationRouter(fed.regions, fed.wan, breaker=breaker)
    router.breaker.record_failure(2, now=0.0)
    assert all(r.index != 2 for r in router.candidate_regions(now=1.0))
    # Quarantine expiry lets a half-open probe through.
    assert any(r.index == 2 for r in router.candidate_regions(now=6.0))
