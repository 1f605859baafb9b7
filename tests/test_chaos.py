"""Tests for the cluster-wide chaos engine and the recovery stack.

End-to-end invariant throughout: whatever chaos is injected, every
logical job is delivered exactly once (zero lost — the deadline knob is
off by default) and the fault-free run is bit-identical with or without
the recovery machinery installed.
"""

import hashlib

import pytest

from repro.cluster import HybridCluster, MicroFaaSCluster
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import LeastLoadedPolicy, make_policy
from repro.reliability import (
    ChaosEngine,
    ChaosEvent,
    ChaosKind,
    ChaosPlan,
    ChaosProfile,
)
from repro.services import ServiceFaultInjector, ServiceUnavailable
from repro.services.backend import BackendCapacityModel
from repro.services.kvstore import KeyValueStore
from repro.sim.rng import RandomStreams


def make_cluster(worker_count=4, seed=7, recovery=None, backend=True):
    return MicroFaaSCluster(
        worker_count=worker_count,
        seed=seed,
        policy=LeastLoadedPolicy(),
        backend=BackendCapacityModel() if backend else None,
        recovery=recovery,
    )


def assert_exactly_once(cluster, result, per_function):
    orchestrator = cluster.orchestrator
    submitted = len(orchestrator.jobs)
    assert submitted == per_function * 17
    assert orchestrator.telemetry.count == submitted
    assert orchestrator.jobs_lost == 0
    assert result.jobs_completed == submitted


# ---------------------------------------------------------------------------
# Plan sampling
# ---------------------------------------------------------------------------


def test_chaos_event_validation():
    with pytest.raises(ValueError):
        ChaosEvent(ChaosKind.WORKER_CRASH, -1.0, 0, 1.0)
    with pytest.raises(ValueError):
        ChaosEvent(ChaosKind.WORKER_CRASH, 1.0, 0, -1.0)


def test_chaos_profile_validation():
    with pytest.raises(ValueError):
        ChaosProfile(scale=-0.5)
    with pytest.raises(ValueError):
        ChaosProfile(crash_per_hour=-1.0)


def test_plan_sampling_is_deterministic_and_sorted():
    a = ChaosPlan.sample(
        ChaosProfile(scale=2.0), 4, 120.0, streams=RandomStreams(3)
    )
    b = ChaosPlan.sample(
        ChaosProfile(scale=2.0), 4, 120.0, streams=RandomStreams(3)
    )
    assert a == b
    times = [event.time_s for event in a.events]
    assert times == sorted(times)
    assert a.events  # this rate over 120 s draws something


def test_plan_scale_zero_is_empty():
    plan = ChaosPlan.sample(
        ChaosProfile(scale=0.0), 8, 600.0, streams=RandomStreams(3)
    )
    assert plan.events == ()


def test_plan_scale_increases_fault_count():
    low = ChaosPlan.sample(
        ChaosProfile(scale=0.5), 8, 300.0, streams=RandomStreams(3)
    )
    high = ChaosPlan.sample(
        ChaosProfile(scale=4.0), 8, 300.0, streams=RandomStreams(3)
    )
    assert len(high.events) > len(low.events)


def test_plan_covers_every_fault_kind_at_high_rate():
    plan = ChaosPlan.sample(
        ChaosProfile(scale=8.0), 8, 600.0, streams=RandomStreams(3)
    )
    kinds = {event.kind for event in plan.events}
    # Every cluster-level kind appears; region-scoped kinds are sampled
    # by ChaosPlan.sample_regions, never by the cluster sampler.
    cluster_kinds = {
        k for k in ChaosKind if k.value not in ChaosPlan.REGION_KINDS
    }
    assert kinds == cluster_kinds


def test_boot_failure_magnitude_is_attempts_needed():
    plan = ChaosPlan.sample(
        ChaosProfile(scale=8.0), 8, 600.0, streams=RandomStreams(3)
    )
    boots = [e for e in plan.events if e.kind is ChaosKind.BOOT_FAILURE]
    assert boots
    assert all(1 <= e.magnitude <= 4 for e in boots)


# ---------------------------------------------------------------------------
# Engine: board faults
# ---------------------------------------------------------------------------


def run_with_chaos(events, worker_count=4, per_function=4, recovery=None,
                   **engine_kwargs):
    cluster = make_cluster(
        worker_count=worker_count,
        recovery=recovery if recovery is not None else RecoveryPolicy(),
    )
    engine = ChaosEngine(cluster, **engine_kwargs)
    engine.apply(ChaosPlan(events=tuple(events)))
    result = cluster.run_saturated(invocations_per_function=per_function)
    return cluster, engine, result


def test_engine_validation():
    cluster = make_cluster(worker_count=2)
    with pytest.raises(ValueError):
        ChaosEngine(cluster, detection_delay_s=-1.0)
    with pytest.raises(ValueError):
        ChaosEngine(cluster, max_power_cycles=0)


def test_worker_crash_recovers_and_records_mttr():
    events = [ChaosEvent(ChaosKind.WORKER_CRASH, 5.0, 1, 4.0)]
    cluster, engine, result = run_with_chaos(events)
    assert_exactly_once(cluster, result, 4)
    assert engine.injected == 1
    assert engine.mean_recovery_s is not None
    assert engine.mean_recovery_s == pytest.approx(4.0)
    assert 1 not in cluster.orchestrator.dead_workers


def test_boot_failure_within_budget_comes_back():
    events = [
        ChaosEvent(ChaosKind.BOOT_FAILURE, 5.0, 1, 2.0, magnitude=2)
    ]
    cluster, engine, result = run_with_chaos(events, per_function=6)
    assert_exactly_once(cluster, result, 6)
    assert engine.boards_abandoned == 0
    assert 1 not in cluster.orchestrator.dead_workers
    # MTTR includes the failed power cycle, so it exceeds the repair lag.
    assert engine.mean_recovery_s > 2.0


def test_boot_failure_beyond_budget_abandons_board():
    events = [
        ChaosEvent(ChaosKind.BOOT_FAILURE, 5.0, 1, 2.0, magnitude=4)
    ]
    cluster, engine, result = run_with_chaos(
        events, per_function=6, max_power_cycles=3
    )
    assert_exactly_once(cluster, result, 6)
    assert engine.boards_abandoned == 1
    assert 1 in cluster.orchestrator.dead_workers
    assert not cluster.sbcs[1].is_powered


def test_gpio_stuck_on_running_board_degrades_silently():
    events = [ChaosEvent(ChaosKind.GPIO_STUCK, 5.0, 1, 3.0)]
    cluster, engine, result = run_with_chaos(events)
    assert_exactly_once(cluster, result, 4)
    assert engine.injected == 1
    assert not cluster.gpio.is_stuck(1)  # repaired by run end


def test_overlapping_board_faults_are_skipped_not_queued():
    events = [
        ChaosEvent(ChaosKind.WORKER_CRASH, 5.0, 1, 6.0),
        ChaosEvent(ChaosKind.BOOT_FAILURE, 6.0, 1, 6.0, magnitude=4),
    ]
    cluster, engine, result = run_with_chaos(events, per_function=6)
    assert_exactly_once(cluster, result, 6)
    assert engine.injected == 1
    assert engine.skipped_overlap == 1
    assert engine.boards_abandoned == 0  # the boot failure never ran
    assert 1 not in cluster.orchestrator.dead_workers


def test_engine_never_kills_the_last_worker():
    events = [
        ChaosEvent(ChaosKind.WORKER_CRASH, 5.0, 0, 30.0),
        ChaosEvent(ChaosKind.WORKER_CRASH, 6.0, 1, 30.0),
    ]
    cluster, engine, result = run_with_chaos(
        events, worker_count=2, per_function=4
    )
    assert_exactly_once(cluster, result, 4)
    assert engine.injected == 1
    assert engine.skipped_last_worker == 1


# ---------------------------------------------------------------------------
# Engine: fabric and backend faults
# ---------------------------------------------------------------------------


def test_link_down_delays_but_loses_nothing():
    events = [ChaosEvent(ChaosKind.LINK_DOWN, 5.0, 1, 2.0)]
    cluster, engine, result = run_with_chaos(events)
    assert_exactly_once(cluster, result, 4)
    assert cluster.transfers._chaos
    assert cluster.topology.links["sbc-1"].down_until == pytest.approx(7.0)


def test_link_degrade_restores_after_window():
    events = [
        ChaosEvent(ChaosKind.LINK_DEGRADE, 5.0, 1, 3.0, magnitude=0.05)
    ]
    cluster, engine, result = run_with_chaos(events)
    assert_exactly_once(cluster, result, 4)
    assert cluster.topology.links["sbc-1"].extra_latency_s == 0.0


def test_switch_outage_delays_but_loses_nothing():
    events = [ChaosEvent(ChaosKind.SWITCH_OUTAGE, 5.0, 0, 1.5)]
    cluster, engine, result = run_with_chaos(events)
    assert_exactly_once(cluster, result, 4)
    assert cluster.switches[0].down_until == pytest.approx(6.5)


def test_backend_fault_delays_but_loses_nothing():
    events = [ChaosEvent(ChaosKind.BACKEND_FAULT, 5.0, "redis", 2.0)]
    cluster, engine, result = run_with_chaos(events)
    assert_exactly_once(cluster, result, 4)
    assert cluster.backend.faults_injected["redis"] == 1


def test_sampled_plan_end_to_end_exactly_once():
    cluster = make_cluster(worker_count=4, recovery=RecoveryPolicy())
    plan = ChaosPlan.sample(
        ChaosProfile(scale=2.0),
        worker_count=4,
        horizon_s=120.0,
        streams=cluster.streams.spawn("chaos"),
        switch_count=len(cluster.switches),
    )
    engine = ChaosEngine(cluster)
    engine.apply(plan)
    result = cluster.run_saturated(invocations_per_function=4)
    assert_exactly_once(cluster, result, 4)
    assert engine.injected > 0


# ---------------------------------------------------------------------------
# Orchestrator recovery behaviours under chaos-free stress
# ---------------------------------------------------------------------------


def test_zero_fault_run_identical_with_and_without_recovery():
    plain = make_cluster(worker_count=4)
    with_recovery = make_cluster(worker_count=4, recovery=RecoveryPolicy())
    a = plain.run_saturated(invocations_per_function=4)
    b = with_recovery.run_saturated(invocations_per_function=4)
    assert a.duration_s == b.duration_s
    assert a.energy_joules == b.energy_joules
    assert a.jobs_completed == b.jobs_completed


def test_aggressive_hedging_suppresses_duplicates():
    # A hedge threshold below typical service time fires many duplicate
    # attempts; every logical job must still be delivered exactly once.
    recovery = RecoveryPolicy(hedge_after_s=1.0)
    cluster = make_cluster(worker_count=4, recovery=recovery)
    result = cluster.run_saturated(invocations_per_function=4)
    assert_exactly_once(cluster, result, 4)
    orchestrator = cluster.orchestrator
    assert orchestrator.hedges > 0
    assert orchestrator.duplicates_suppressed > 0


def test_aggressive_timeouts_retry_and_suppress_duplicates():
    recovery = RecoveryPolicy(attempt_timeout_s=2.0, hedge_after_s=None)
    cluster = make_cluster(worker_count=4, recovery=recovery)
    result = cluster.run_saturated(invocations_per_function=4)
    assert_exactly_once(cluster, result, 4)
    orchestrator = cluster.orchestrator
    assert orchestrator.timeout_retries > 0
    assert orchestrator.duplicates_suppressed > 0


def test_job_deadline_is_the_only_loss_path():
    # An unmeetable deadline loses jobs, and the books still balance:
    # delivered + lost == submitted.
    recovery = RecoveryPolicy(job_deadline_s=8.0, hedge_after_s=None)
    cluster = make_cluster(worker_count=2, recovery=recovery)
    cluster.run_saturated(invocations_per_function=4)
    orchestrator = cluster.orchestrator
    assert orchestrator.jobs_lost > 0
    delivered = orchestrator.telemetry.count
    assert delivered + orchestrator.jobs_lost == len(orchestrator.jobs)


# ---------------------------------------------------------------------------
# The fault-study experiment
# ---------------------------------------------------------------------------


def test_fault_study_small_sweep_loses_nothing():
    from repro.experiments import fault_study

    result = fault_study.run(
        fault_rate_scales=(0.0, 2.0),
        worker_count=4,
        invocations_per_function=2,
        cache=False,
    )
    assert result.total_jobs_lost == 0
    assert [p.fault_rate_scale for p in result.points] == [0.0, 2.0]
    for point in result.points:
        assert point.jobs_delivered == point.jobs_submitted == 2 * 17
    assert result.baseline.fault_rate_scale == 0.0
    assert result.points[1].faults_injected > 0
    rendered = fault_study.render(result)
    assert "delivered exactly once" in rendered


def test_fault_study_is_deterministic_across_jobs():
    from repro.experiments import fault_study

    serial = fault_study.run(
        fault_rate_scales=(0.0, 2.0),
        worker_count=4,
        invocations_per_function=2,
        jobs=1,
        cache=False,
    )
    parallel = fault_study.run(
        fault_rate_scales=(0.0, 2.0),
        worker_count=4,
        invocations_per_function=2,
        jobs=2,
        cache=False,
    )
    assert serial.points == parallel.points


def test_fault_study_validation():
    from repro.experiments import fault_study

    with pytest.raises(ValueError):
        fault_study.run(worker_count=1)
    with pytest.raises(ValueError):
        fault_study.run(invocations_per_function=0)


# ---------------------------------------------------------------------------
# Service-level fault injection (semantic faults)
# ---------------------------------------------------------------------------


def test_service_fault_injector_gates_entry_points():
    clock = {"now": 0.0}
    injector = ServiceFaultInjector(clock=lambda: clock["now"])
    store = KeyValueStore()
    injector.install("redis", store)
    store.execute(["SET", "k", "v"])
    injector.fail("redis", duration_s=5.0)
    with pytest.raises(ServiceUnavailable):
        store.execute(["GET", "k"])
    assert injector.is_down("redis")
    assert injector.refusals and injector.refusals[0][1] == "redis"
    clock["now"] = 6.0
    assert store.execute(["GET", "k"]) == "v"
    assert not injector.is_down("redis")


def test_service_fault_injector_restore_and_uninstall():
    clock = {"now": 0.0}
    injector = ServiceFaultInjector(clock=lambda: clock["now"])
    store = KeyValueStore()
    injector.install("redis", store)
    injector.fail("redis", duration_s=100.0)
    injector.restore("redis")
    store.execute(["SET", "k", "v"])  # no refusal after restore
    injector.uninstall("redis")
    assert store.fault_gate is None


# ---------------------------------------------------------------------------
# Link-fault endpoint resolution (shared helper regression)
# ---------------------------------------------------------------------------


def test_resolve_endpoint_verbatim_and_region_prefixed():
    from repro.reliability.chaos import resolve_endpoint

    links = {"sbc-0": object(), "vm-3": object(), "r1/vm-7": object()}
    assert resolve_endpoint(links, "sbc-0") == "sbc-0"
    # VM workers resolve by their own name, not a blind SBC guess.
    assert resolve_endpoint(links, "sbc-3", "vm-3") == "vm-3"
    # Federated topologies namespace endpoints as <region>/<endpoint>.
    assert resolve_endpoint(links, "sbc-7", "vm-7") == "r1/vm-7"
    assert resolve_endpoint(links, "sbc-9", "vm-9") is None
    # A verbatim hit wins over any prefixed fallback.
    links["r0/sbc-0"] = object()
    assert resolve_endpoint(links, "sbc-0") == "sbc-0"


def test_resolve_worker_endpoint_probes_duck_typed_clusters():
    from types import SimpleNamespace

    from repro.reliability.chaos import resolve_worker_endpoint

    topology = SimpleNamespace(links={"sbc-0": object(), "vm-1": object()})
    duck = SimpleNamespace(topology=topology)
    assert resolve_worker_endpoint(duck, 0) == "sbc-0"
    assert resolve_worker_endpoint(duck, 1) == "vm-1"
    assert resolve_worker_endpoint(duck, 2) is None
    assert resolve_worker_endpoint(SimpleNamespace(), 0) is None


def test_resolve_worker_endpoint_prefers_harness_registry():
    cluster = make_cluster(worker_count=2)
    from repro.reliability.chaos import resolve_worker_endpoint

    assert resolve_worker_endpoint(cluster, 0) == cluster.worker_endpoint(0)
    assert resolve_worker_endpoint(cluster, 99) is None


def test_link_fault_hits_vm_workers_in_a_hybrid_cluster():
    """Regression: link faults on VM-backed workers used to miss (the
    engine guessed ``sbc-<id>`` and silently no-opped)."""
    from repro.cluster.hybrid import HybridCluster

    cluster = HybridCluster(sbc_count=2, vm_count=2, seed=5)
    engine = ChaosEngine(cluster)
    vm_worker = next(
        w for w in range(4) if cluster.worker_endpoint(w).startswith("vm-")
    )
    engine.apply(
        ChaosPlan(
            events=(
                ChaosEvent(ChaosKind.LINK_DEGRADE, 0.5, vm_worker, 5.0, 0.2),
            )
        )
    )
    result = cluster.run_saturated(invocations_per_function=1)
    assert engine.injected == 1
    link = cluster.topology.links[cluster.worker_endpoint(vm_worker)]
    assert link.extra_latency_s == 0.0  # restored after the window
    assert result.jobs_completed == 17


# ---------------------------------------------------------------------------
# Placement under recovery: quarantine, half-open probes, excluded retries
# ---------------------------------------------------------------------------

#: A breaker that opens on the first failure and re-probes after 2 s,
#: with timeouts and hedges short enough that retries and hedges (which
#: exclude the worker they flee) fire throughout the run.
HAIR_TRIGGER = RecoveryPolicy(
    circuit_failure_threshold=1,
    quarantine_s=2.0,
    attempt_timeout_s=2.5,
    hedge_after_s=2.0,
)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "kind,policy,workers,records_sha,breakers_sha",
    [
        ("microfaas", "random-sampling", 6,
         "37687d557192d987a478196f66f583dde64298daca4e78e4e83292eef65eb156",
         "2d91053de857cb7ddf8dc09594fd97b8723d72ea09c22c49ce22849c65e3acba"),
        ("microfaas", "round-robin", 6,
         "fb79b0d406fd4286e406df1fee0fa0b0e6d8646ddbcc3ab3c323f0f4156c35f3",
         "0350db3dddc3f475b14ef6059fe33bbcf419f43e78f4e41701981209539be2e3"),
        ("microfaas", "least-loaded", 6,
         "b5a14fca894c9bb0dd0a1104ade288c328a0c0767bcc92da5b08430e4896292b",
         "751d8c5a836b2e106eae8d4ab098e964d4555a0d602339aac095f1708cb3b8e5"),
        ("microfaas", "packing", 6,
         "59a58fb184563da239606142d0e304721d991e57a6c6ac2b07afd770eb388161",
         "c8dca220d09c93771dc9082f1708c0f77a3339450e67aa7116332a0686150322"),
        # Two workers: every alive worker quarantined at once, and the
        # exclude preference yielding to the only candidate.
        ("microfaas", "least-loaded", 2,
         "e1eced579f57c32b7a2cf5e75515cddfa307ec57b836d3f45c24cc40b5287237",
         "b269a6e850ed18ce3e03e69501c2b95627fabb45826cb444ed92688257f60a70"),
        ("hybrid", "energy-aware", 7,
         "7ab06bebf5536218595358bf5fa3841d8b8c6d3bdcb44e9254629dd39e9dd398",
         "a623bb8054f969206798b250ae86fef3f0eb663b4bec148e02bf4db80a5802b0"),
    ],
)
def test_placement_under_recovery_matches_recorded_run(
    kind, policy, workers, records_sha, breakers_sha
):
    """Each pin was recorded when the orchestrator filtered a candidate
    list per assignment; the barred-set placement must reproduce every
    record and every breaker's final state."""
    if kind == "microfaas":
        cluster = MicroFaaSCluster(
            worker_count=workers, seed=11, policy=make_policy(policy),
            recovery=HAIR_TRIGGER,
        )
    else:
        cluster = HybridCluster(
            sbc_count=5, vm_count=2, seed=11, policy=make_policy(policy),
            recovery=HAIR_TRIGGER,
        )
    profile = ChaosProfile(
        scale=3.0, switch_outage_per_hour=0.0, backend_fault_per_hour=0.0
    )
    plan = ChaosPlan.sample(profile, workers, 60.0, streams=RandomStreams(23))
    ChaosEngine(cluster, detection_delay_s=1.0).apply(plan)
    cluster.run_paper_arrivals(jobs_per_second=2, total_jobs=80)
    orchestrator = cluster.orchestrator
    records = list(orchestrator.telemetry.records)
    assert len(records) == 80
    breakers = sorted(
        (wid, h.state.name, h.times_opened, h.total_failures, h.total_successes)
        for wid, h in orchestrator.health.snapshot().items()
    )
    assert any(b[2] > 0 for b in breakers)
    assert _sha(repr(records)) == records_sha
    assert _sha(repr(breakers)) == breakers_sha
