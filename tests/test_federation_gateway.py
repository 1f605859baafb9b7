"""Tests for the federation gateway: bit-identity, failover, delivery.

The two pinned invariants:

1. A zero-fault federation over one zero-latency region is
   **bit-identical** to the bare cluster run (same duration, same
   energy, to the last bit).
2. A full single-region blackout mid-run loses **zero** jobs: stranded
   work is re-routed, results are delivered exactly once, duplicates
   are suppressed across regions, and the failover MTTR is reported.
"""

import pytest

from repro.cluster.microfaas import MicroFaaSCluster
from repro.federation import (
    FederatedCluster,
    GatewayConfig,
    RegionChaosInjector,
    RegionSpec,
)
from repro.net.wan import WanFabric
from repro.obs.export import chrome_trace_events, validate_chrome_trace
from repro.obs.trace import TraceConfig
from repro.reliability.chaos import ChaosEvent, ChaosKind
from repro.workloads.traces import poisson_trace


def three_region_specs(workers=6, seed=100):
    return [
        RegionSpec(f"r{i}", f"geo{i}", worker_count=workers, seed=seed + i)
        for i in range(3)
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        GatewayConfig(heartbeat_interval_s=0)
    with pytest.raises(ValueError):
        GatewayConfig(heartbeat_misses=0)
    with pytest.raises(ValueError):
        GatewayConfig(hedge_after_s=-1.0)
    with pytest.raises(ValueError):
        GatewayConfig(ingress_max_attempts=0)
    with pytest.raises(ValueError):
        GatewayConfig(shed_load_threshold=0.0)


def test_construction_validation():
    with pytest.raises(ValueError):
        FederatedCluster([])
    with pytest.raises(ValueError):
        FederatedCluster(
            [
                RegionSpec("dup", "a", worker_count=2, seed=1),
                RegionSpec("dup", "b", worker_count=2, seed=2),
            ]
        )


def test_single_region_zero_fault_is_bit_identical_to_bare_cluster():
    """The bit-identity pin (acceptance criterion).

    Exact float equality is deliberate: the gateway must not perturb
    the region's RNG streams or event interleaving in any way a result
    metric can see.
    """
    fed = FederatedCluster(
        [RegionSpec("solo", "solo", worker_count=8, seed=42)],
        wan=WanFabric.single("solo"),
    )
    fed_result = fed.run_saturated(invocations_per_function=3)
    bare = MicroFaaSCluster(worker_count=8, seed=42)
    bare_result = bare.run_saturated(invocations_per_function=3)
    assert fed_result.jobs_delivered == bare_result.jobs_completed
    assert fed_result.duration_s == bare_result.duration_s
    assert fed_result.energy_joules == bare_result.energy_joules
    assert fed_result.jobs_lost == 0
    assert fed_result.reroutes == 0
    assert fed_result.hedges == 0
    assert fed_result.duplicates_suppressed == 0
    assert fed_result.reconciles()


def test_single_region_blackout_loses_zero_jobs():
    """The headline invariant (acceptance criterion), untraced and with
    every invocation traced; the merged trace validates clean."""
    for trace in (None, TraceConfig(sample_rate=1.0)):
        fed = FederatedCluster(three_region_specs(), trace=trace)
        injector = RegionChaosInjector(
            fed,
            [ChaosEvent(ChaosKind.REGION_BLACKOUT, 2.0, "r1", 10.0)],
        )
        injector.start()
        result = fed.run_saturated(invocations_per_function=4)
        assert injector.injected == 1
        assert result.jobs_lost == 0
        assert result.jobs_delivered == 4 * 17
        assert result.reconciles()
        # The blackout was noticed, work was re-routed, and the duplicate
        # attempts the dead region finished anyway were suppressed.
        r1 = next(r for r in result.region_reports if r.name == "r1")
        assert r1.outages == 1
        assert result.reroutes > 0
        assert result.duplicates_suppressed > 0
        # MTTR: detected after 2 missed 0.5 s heartbeats (t=3.0), recovered
        # on the first heartbeat after t=12 (t=12.5).
        assert result.mean_recovery_s == pytest.approx(9.5)
        assert r1.mean_recovery_s == pytest.approx(9.5)
        if trace is not None:
            events = chrome_trace_events(fed.finished_traces())
            assert events
            assert validate_chrome_trace({"traceEvents": events}) == []


def test_blackout_runs_are_deterministic():
    def run_once():
        fed = FederatedCluster(three_region_specs())
        RegionChaosInjector(
            fed, [ChaosEvent(ChaosKind.REGION_BLACKOUT, 2.0, "r0", 8.0)]
        ).start()
        return fed.run_saturated(invocations_per_function=3)

    a, b = run_once(), run_once()
    assert a.duration_s == b.duration_s
    assert a.energy_joules == b.energy_joules
    assert a.reroutes == b.reroutes
    assert a.duplicates_suppressed == b.duplicates_suppressed
    assert [r.jobs_in for r in a.region_reports] == [
        r.jobs_in for r in b.region_reports
    ]


def test_geo_latency_percentiles_are_reported():
    fed = FederatedCluster(three_region_specs(workers=4))
    result = fed.run_saturated(invocations_per_function=2)
    assert set(result.geo_latency) == {"geo0", "geo1", "geo2"}
    for count, mean, p50, p99 in result.geo_latency.values():
        assert count > 0
        assert 0 < p50 <= p99
        assert mean > 0


def test_local_traffic_pays_no_cross_region_fetch():
    """Local clients served at home never touch the WAN pair links.

    Hedging is disabled: a hedge legitimately duplicates a job into a
    remote region and bills the input fetch, which is exactly the
    cross-region accounting the blackout test asserts is non-zero.
    """
    fed = FederatedCluster(
        three_region_specs(workers=4),
        config=GatewayConfig(hedge_after_s=None),
    )
    result = fed.run_saturated(invocations_per_function=2)
    # Default round-robin geos map 1:1 onto regions; with latency-aware
    # routing every job runs at home, so no cross-region traffic.
    assert result.cross_region_jobs == 0
    assert result.cross_region_bytes == 0


def test_hedged_jobs_bill_cross_region_traffic():
    fed = FederatedCluster(
        three_region_specs(workers=2),
        config=GatewayConfig(hedge_after_s=1.0, supervisor_tick_s=0.25),
    )
    result = fed.run_saturated(invocations_per_function=3)
    assert result.hedges > 0
    # Every hedge ran away from its home region, fetching input over
    # the WAN.
    assert result.cross_region_jobs >= result.hedges
    assert result.cross_region_bytes > 0


def test_shedding_drops_only_low_priority_and_counts_it():
    fed = FederatedCluster(
        three_region_specs(workers=2),
        config=GatewayConfig(
            shed_load_threshold=0.5, shed_max_priority=0
        ),
    )
    # Fill the federation well past the shed threshold with priority-1
    # traffic, then offer priority-0 traffic: it is turned away.
    for _ in range(30):
        fed.submit("CascSHA", "geo0", priority=1)
    shed_job = fed.submit("CascSHA", "geo0", priority=0)
    assert shed_job.shed
    keep_job = fed.submit("CascSHA", "geo0", priority=1)
    assert not keep_job.shed
    result_event = fed.wait_all()
    fed.env.run(until=result_event)
    result = fed.result(fed.env.now)
    assert result.jobs_shed == 1
    assert result.jobs_lost == 0
    assert result.reconciles()


def test_run_arrivals_replays_a_trace():
    fed = FederatedCluster(three_region_specs(workers=4))
    trace = poisson_trace(3.0, 20.0)
    geos = [f"geo{i % 3}" for i in range(len(trace))]
    result = fed.run_arrivals(trace, geos)
    assert result.jobs_submitted == len(trace)
    assert result.jobs_lost == 0
    assert result.duration_s >= trace.duration_s
    assert result.reconciles()


def test_run_arrivals_validates_inputs():
    fed = FederatedCluster(three_region_specs(workers=2))
    trace = poisson_trace(1.0, 5.0)
    with pytest.raises(ValueError):
        fed.run_arrivals(trace, geos=["geo0"] * max(0, len(trace) - 1))


def test_hedging_duplicates_stragglers():
    fed = FederatedCluster(
        three_region_specs(workers=2),
        config=GatewayConfig(hedge_after_s=1.0, supervisor_tick_s=0.25),
    )
    result = fed.run_saturated(invocations_per_function=3)
    # A saturated 2-worker-per-region batch has plenty of >1 s
    # stragglers; each is hedged at most once and still delivered once.
    assert result.hedges > 0
    assert result.jobs_lost == 0
    assert result.reconciles()


def test_federated_telemetry_merges_all_regions():
    fed = FederatedCluster(three_region_specs(workers=4))
    result = fed.run_saturated(invocations_per_function=2)
    assert result.telemetry.count == sum(
        r.telemetry_count for r in result.region_reports
    )
    # Regional telemetry records every executed attempt; the federated
    # ledger explains each one as the delivery or a counted duplicate.
    assert result.telemetry.count == (
        result.jobs_delivered + result.duplicates_suppressed
    )
    assert result.energy_joules == pytest.approx(
        sum(r.energy_joules for r in result.region_reports)
    )


def test_region_lookup():
    fed = FederatedCluster(three_region_specs(workers=2))
    assert fed.region("r1").name == "r1"
    with pytest.raises(KeyError):
        fed.region("nowhere")
    assert fed.home_region("geo2").name == "r2"
    assert fed.home_region("mars") is None
