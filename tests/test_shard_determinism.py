"""Sharded == serial, bit for bit.

The whole value proposition of :mod:`repro.shard` is that splitting a
simulation over N processes changes wall-clock and memory, never
results.  These tests pin that with exact (``==``, not ``isclose``)
comparisons between the serial engine and 2- and 4-way sharded runs of
the same spec, across the workload shapes the protocol covers:
saturated bursts, the paper's interval arrival process, open-loop trace
replay, and chaos runs with cross-shard job salvage.  The inline
executor runs the identical code path as the forked one (separate tests
pin process == inline and process == serial), so most of the suite
stays fork-free and fast.
"""

import math

import pytest

from repro.cluster.microfaas import MicroFaaSCluster
from repro.cluster.worker import SbcWorker
from repro.cluster.replay import replay_trace
from repro.core.controlplane import ControlPlaneModel
from repro.core.platform import ARM, X86
from repro.core.scheduler import make_policy
from repro.energy.controlplane import CarbonSignal
from repro.experiments.megatrace import WORKER_JOBS_PER_S
from repro.obs.export import validate_chrome_trace_file, write_trace_file
from repro.obs.trace import TraceConfig, merge_traces
from repro.reliability.chaos import (
    ChaosEngine,
    ChaosEvent,
    ChaosKind,
    ChaosPlan,
    ChaosProfile,
)
from repro.shard import ClusterSpec, ShardedCluster
from repro.shard.executors import InlineExecutor, ProcessExecutor
from repro.shard.runtime import ShardRuntime
from repro.sim.kernel import SimulationError
from repro.sim.rng import RandomStreams
from repro.workloads.base import ALL_FUNCTION_NAMES
from repro.workloads.traces import ArrivalTrace, TraceEvent, poisson_trace


def assert_identical(serial_result, sharded_result):
    """Every externally observable number must match exactly."""
    assert sharded_result.jobs_completed == serial_result.jobs_completed
    assert sharded_result.duration_s == serial_result.duration_s
    assert sharded_result.energy_joules == serial_result.energy_joules
    assert sharded_result.pool_energy == serial_result.pool_energy
    assert sharded_result.worker_count == serial_result.worker_count
    a, b = serial_result.telemetry, sharded_result.telemetry
    assert b.count == a.count
    assert b.mean_latency_s() == a.mean_latency_s()
    assert b.mean_queue_wait_s() == a.mean_queue_wait_s()
    for p in (50.0, 90.0, 99.0, 100.0):
        assert b.percentile_latency_s(p) == a.percentile_latency_s(p)
    assert b.functions_seen == a.functions_seen
    for name in a.functions_seen:
        sa, sb = a.function_stats(name), b.function_stats(name)
        assert (sb.count, sb.mean_working_s, sb.mean_overhead_s) == (
            sa.count, sa.mean_working_s, sa.mean_overhead_s
        )


@pytest.mark.parametrize("shards", [2, 4])
def test_saturated_run_is_bit_identical(shards):
    spec = ClusterSpec(kind="microfaas", worker_count=10, seed=42)
    serial = spec.build().run_saturated(invocations_per_function=3)
    with ShardedCluster(spec, shards, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=3)
    assert_identical(serial, result)


@pytest.mark.parametrize("shards", [2, 4])
def test_paper_arrivals_are_bit_identical(shards):
    spec = ClusterSpec(kind="microfaas", worker_count=10, seed=7)
    serial = spec.build().run_paper_arrivals(
        jobs_per_second=2, total_jobs=60
    )
    with ShardedCluster(spec, shards, executor="inline") as sharded:
        result = sharded.run_paper_arrivals(
            jobs_per_second=2, total_jobs=60
        )
    assert_identical(serial, result)


@pytest.mark.parametrize("policy", ["least-loaded", "round-robin"])
def test_named_policy_spec_is_bit_identical(policy):
    """spec.build() must schedule with the spec's named policy — a twin
    that silently fell back to the platform default (random-sampling)
    would diverge from the sharded run immediately."""
    spec = ClusterSpec(
        kind="microfaas", worker_count=12, seed=5, policy=policy
    )
    serial = spec.build().run_saturated(invocations_per_function=3)
    explicit = spec.build(
        policy=make_policy(policy)
    ).run_saturated(invocations_per_function=3)
    assert serial.duration_s == explicit.duration_s
    with ShardedCluster(spec, 3, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=3)
    assert_identical(serial, result)


def test_hybrid_energy_aware_is_bit_identical():
    spec = ClusterSpec(kind="hybrid", sbc_count=8, vm_count=4, seed=3)
    serial = spec.build().run_saturated(invocations_per_function=3)
    with ShardedCluster(spec, 3, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=3)
    assert_identical(serial, result)
    # Per-platform split survives the merge exactly, too.
    assert (
        result.telemetry.platform_percentile_latency_s("arm", 99.0)
        == serial.telemetry.platform_percentile_latency_s("arm", 99.0)
    )


def test_hybrid_carbon_aware_is_bit_identical_and_follows_the_signal():
    """Carbon-aware placement reads decision time from the scheduling
    state's clock on both paths.  The signals make the cheaper platform
    flip several times inside the run, so the result must differ from
    plain energy-aware; duration and joules are pinned to values
    recorded before serial and sharded runs shared one policy
    implementation."""
    signals = {
        ARM: CarbonSignal(base=400.0, amplitude=300.0, period_s=60.0),
        X86: CarbonSignal(
            base=60.0, amplitude=20.0, period_s=45.0, phase_s=7.0
        ),
    }
    spec = ClusterSpec(
        kind="hybrid",
        sbc_count=6,
        vm_count=3,
        seed=5,
        policy="carbon-aware",
        carbon_signals=signals,
        carbon_weights={ARM: 5.7, X86: 32.0},
    )
    serial = spec.build().run_paper_arrivals(
        jobs_per_second=2, total_jobs=120
    )
    with ShardedCluster(spec, 3, executor="inline") as sharded:
        result = sharded.run_paper_arrivals(
            jobs_per_second=2, total_jobs=120
        )
    assert_identical(serial, result)
    assert serial.duration_s == 63.909056343641716
    assert serial.energy_joules == 5492.693602537625
    energy_aware = ClusterSpec(
        kind="hybrid", sbc_count=6, vm_count=3, seed=5, policy="energy-aware"
    ).build().run_paper_arrivals(jobs_per_second=2, total_jobs=120)
    assert energy_aware.energy_joules != serial.energy_joules
    assert energy_aware.pool_energy != serial.pool_energy


def board_only_plan(worker_count, seed, horizon_s=40.0):
    profile = ChaosProfile(
        scale=1.0,
        switch_outage_per_hour=0.0,
        backend_fault_per_hour=0.0,
    )
    return ChaosPlan.sample(
        profile, worker_count, horizon_s, streams=RandomStreams(seed)
    )


@pytest.mark.parametrize("shards", [2, 4])
def test_chaos_run_with_cross_shard_salvage_is_bit_identical(shards):
    plan = board_only_plan(10, seed=99)
    spec = ClusterSpec(
        kind="microfaas",
        worker_count=10,
        seed=21,
        chaos_plan=plan,
        chaos_detection_delay_s=1.0,
        chaos_max_power_cycles=3,
    )
    serial_cluster = spec.build()
    engine = ChaosEngine(
        serial_cluster, detection_delay_s=1.0, max_power_cycles=3
    )
    engine.apply(plan)
    serial = serial_cluster.run_saturated(invocations_per_function=4)
    # The protocol's precondition: the serial engine never hit its
    # last-worker guard (that guard is engine-local in shards, so a
    # run leaning on it would be out of contract).
    assert engine.skipped_last_worker == 0
    assert engine.recovered_jobs > 0

    with ShardedCluster(spec, shards, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=4)
        stats = sharded.stats
    assert_identical(serial, result)
    assert stats.resubmissions == serial_cluster.orchestrator.resubmissions
    assert stats.chaos["recovered_jobs"] == engine.recovered_jobs
    if shards > 1:
        assert stats.salvage_assignments == engine.recovered_jobs


def integer_mark_plan():
    """Board crashes on integer seconds with a 1 s detection delay, so
    every detection lands exactly on an arrival mark.  The salvages
    decided in the round that reaches a mark then travel to the shards
    in the same message as that mark's new arrivals.  Repair times are
    off the marks and off each other, keeping every other cross-kind
    timestamp distinct."""
    crashes = [(3.0, 1, 4.25), (6.0, 7, 3.75), (9.0, 2, 3.5), (12.0, 8, 2.25)]
    return ChaosPlan(
        events=tuple(
            ChaosEvent(ChaosKind.WORKER_CRASH, t, worker, repair)
            for t, worker, repair in crashes
        )
    )


def integer_mark_trace(jobs_per_second, total_jobs):
    """The paper arrival schedule written out as a trace."""
    functions = ALL_FUNCTION_NAMES
    events = tuple(
        TraceEvent(
            float(issued // jobs_per_second),
            functions[issued % len(functions)],
        )
        for issued in range(total_jobs)
    )
    return ArrivalTrace(events=events, duration_s=events[-1].time_s)


@pytest.mark.parametrize("entry", ["paper_arrivals", "replay_trace"])
def test_salvage_and_arrivals_share_a_message(entry, monkeypatch):
    """Pending placements are appended to, never replaced: a salvage
    decided at an arrival mark must reach its shard together with, and
    ahead of, the new jobs submitted at that mark."""
    plan = integer_mark_plan()
    spec = ClusterSpec(
        kind="microfaas",
        worker_count=10,
        seed=21,
        policy="least-loaded",
        chaos_plan=plan,
        chaos_detection_delay_s=1.0,
        chaos_max_power_cycles=3,
    )
    serial_cluster = spec.build()
    engine = ChaosEngine(
        serial_cluster, detection_delay_s=1.0, max_power_cycles=3
    )
    engine.apply(plan)
    trace = integer_mark_trace(8, 160)
    if entry == "paper_arrivals":
        serial = serial_cluster.run_paper_arrivals(
            jobs_per_second=8, total_jobs=160
        )
    else:
        serial = replay_trace(serial_cluster, trace)
    assert engine.skipped_last_worker == 0
    assert engine.recovered_jobs > 0

    shared = []
    advance = InlineExecutor.advance

    def spy(self, until, directives_per_shard):
        for directives in directives_per_shard:
            verbs = {directive[0] for directive in directives}
            if "new" in verbs and verbs & {"salvage", "migrate_out", "adopt"}:
                shared.append(until)
        return advance(self, until, directives_per_shard)

    monkeypatch.setattr(InlineExecutor, "advance", spy)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        if entry == "paper_arrivals":
            result = sharded.run_paper_arrivals(
                jobs_per_second=8, total_jobs=160
            )
        else:
            result = sharded.replay_trace(trace)
        stats = sharded.stats
    assert shared, "no message carried both a salvage and new arrivals"
    assert_identical(serial, result)
    assert stats.migrations > 0
    assert stats.salvage_assignments == engine.recovered_jobs
    assert stats.resubmissions == serial_cluster.orchestrator.resubmissions


def small_fleet_spec():
    """The ``fleet`` benchmark shape, scaled down: 40 least-loaded
    workers (paired with :func:`small_fleet_trace`)."""
    return ClusterSpec(
        kind="microfaas", worker_count=40, seed=1, policy="least-loaded"
    )


def small_fleet_trace(arrivals=300):
    """Open-loop Poisson arrivals at 85% of the 40 workers' capacity."""
    rate = 40 * WORKER_JOBS_PER_S * 0.85
    return poisson_trace(
        rate, arrivals / rate, streams=RandomStreams(1), columnar=True
    )


@pytest.mark.parametrize("executor", ["inline", "process"])
def test_trace_replay_is_bit_identical(executor):
    spec = small_fleet_spec()
    trace = small_fleet_trace()
    serial = replay_trace(spec.build(), trace)
    with ShardedCluster(spec, 2, executor=executor) as sharded:
        result = sharded.replay_trace(trace)
    assert_identical(serial, result)
    assert result.jobs_completed == len(trace)


def test_one_broadcast_per_rendezvous(monkeypatch):
    """Each rendezvous is one message per shard — placements ride on the
    next ``advance`` — plus a final ``finish``."""
    verbs = []
    broadcast = ProcessExecutor._broadcast

    def spy(self, verb, payloads):
        verbs.append(verb)
        return broadcast(self, verb, payloads)

    monkeypatch.setattr(ProcessExecutor, "_broadcast", spy)
    with ShardedCluster(small_fleet_spec(), 2, executor="process") as sharded:
        sharded.replay_trace(small_fleet_trace(arrivals=120))
        rounds = sharded.stats.rounds
    assert rounds > 0
    assert len(verbs) == rounds + 1
    assert verbs[-1] == "finish"


def test_forked_shards_match_serial_and_merged_trace_validates(tmp_path):
    """Four forked shards against a serial run, traced, with the merged
    trace file passing the validator."""
    spec = ClusterSpec(
        kind="microfaas",
        worker_count=40,
        seed=9,
        policy="least-loaded",
        trace=TraceConfig(sample_rate=1.0),
    )
    serial = spec.build().run_saturated(invocations_per_function=4)
    with ShardedCluster(spec, 4, executor="process") as sharded:
        result = sharded.run_saturated(invocations_per_function=4)
        traces = sharded.traces
    assert_identical(serial, result)
    assert traces
    path = tmp_path / "shard-trace.json"
    write_trace_file(traces, str(path))
    assert validate_chrome_trace_file(str(path)) == []


def test_process_executor_matches_inline():
    spec = ClusterSpec(kind="microfaas", worker_count=8, seed=11)
    with ShardedCluster(spec, 2, executor="inline") as inline:
        a = inline.run_saturated(invocations_per_function=2)
    with ShardedCluster(spec, 2, executor="process") as forked:
        b = forked.run_saturated(invocations_per_function=2)
    assert_identical(a, b)


def test_traced_sharded_run_merges_validator_clean(tmp_path):
    trace = TraceConfig(sample_rate=1.0)
    spec = ClusterSpec(kind="microfaas", worker_count=10, seed=13, trace=trace)
    serial_cluster = spec.build()
    serial = serial_cluster.run_saturated(invocations_per_function=2)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=2)
        merged = sharded.traces
    assert_identical(serial, result)

    reference = merge_traces([serial_cluster.finished_traces()])
    assert [t.trace_id for t in merged] == [t.trace_id for t in reference]
    assert [t.label for t in merged] == [t.label for t in reference]
    assert [t.start_s for t in merged] == [t.start_s for t in reference]
    assert [t.end_s for t in merged] == [t.end_s for t in reference]
    assert [len(t.spans) for t in merged] == [
        len(t.spans) for t in reference
    ]

    path = tmp_path / "sharded.json"
    write_trace_file(merged, str(path))
    assert validate_chrome_trace_file(str(path)) == []


def test_validate_rejects_unshardable_specs():
    with pytest.raises(ValueError, match="not shardable"):
        ClusterSpec(
            kind="microfaas", worker_count=4, policy="packing"
        ).validate()
    with pytest.raises(ValueError, match="sample_rate"):
        ClusterSpec(
            kind="microfaas",
            worker_count=4,
            trace=TraceConfig(sample_rate=0.5),
        ).validate()
    shared = ChaosPlan.sample(
        ChaosProfile(scale=2.0),
        worker_count=4,
        horizon_s=600.0,
        streams=RandomStreams(1),
    )
    assert shared.has_shared_fabric_events()
    with pytest.raises(ValueError, match="board/link"):
        ClusterSpec(
            kind="microfaas", worker_count=4, chaos_plan=shared
        ).validate()
    with pytest.raises(ValueError, match="tracing with chaos"):
        ClusterSpec(
            kind="microfaas",
            worker_count=4,
            trace=TraceConfig(sample_rate=1.0),
            chaos_plan=board_only_plan(4, seed=2),
        ).validate()


def test_shard_remote_policy_raises_if_consulted():
    from repro.shard.runtime import ShardRemotePolicy

    with pytest.raises(RuntimeError, match="coordinator"):
        ShardRemotePolicy().select(None)


def test_sharded_rejects_random_policy_object_mismatch():
    """The serial twin of a spec must use the spec's policy: building
    with a different seed diverges (sanity check that the determinism
    assertions above would actually catch a protocol break)."""
    spec = ClusterSpec(kind="microfaas", worker_count=10, seed=42)
    other = MicroFaaSCluster(
        worker_count=10,
        seed=42,
        policy=make_policy("random-sampling", seed=43),
    )
    different = other.run_saturated(invocations_per_function=3)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=3)
    assert result.duration_s != different.duration_s


# -- windowed rendezvous: one round per boot-length window ---------------------


def boot_real_s(spec):
    return spec.build().workers[0].boot_real_s


def arrival_span_s(trace):
    times = [time_s for time_s, _function in trace.iter_pairs()]
    return times[-1] - times[0]


@pytest.fixture
def claims(monkeypatch):
    """Every claim the shards hear: ``(worker_id, t_done or None)``."""
    seen = []
    record = ShardRuntime._record_claim

    def spy(self, job_id, worker_id, t_done, t_claim):
        seen.append((worker_id, t_done))
        return record(self, job_id, worker_id, t_done, t_claim)

    monkeypatch.setattr(ShardRuntime, "_record_claim", spy)
    return seen


def test_trace_replay_rendezvous_once_per_boot_window(claims):
    spec = small_fleet_spec()
    trace = small_fleet_trace()
    serial = replay_trace(spec.build(), trace)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        result = sharded.replay_trace(trace)
        rounds = sharded.stats.rounds
    assert_identical(serial, result)
    assert rounds <= math.ceil(arrival_span_s(trace) / boot_real_s(spec)) + 3
    # Every job's completion was fixed at its claim.
    assert len(claims) == len(trace)
    assert all(t_done is not None for _wid, t_done in claims)


def test_overloaded_burst_queues_behind_busy_workers():
    """At 150% of capacity jobs wait in worker queues, so their claims
    (and predictions) come windows after their placement."""
    spec = small_fleet_spec()
    rate = 40 * WORKER_JOBS_PER_S * 1.5
    trace = poisson_trace(
        rate, 300 / rate, streams=RandomStreams(3), columnar=True
    )
    serial = replay_trace(spec.build(), trace)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        result = sharded.replay_trace(trace)
    assert_identical(serial, result)
    assert serial.telemetry.mean_queue_wait_s() > 1.0


def test_hybrid_vm_jobs_are_never_predicted(claims):
    spec = ClusterSpec(
        kind="hybrid", sbc_count=8, vm_count=4, seed=3, policy="least-loaded"
    )
    rate = 12 * WORKER_JOBS_PER_S * 0.85
    trace = poisson_trace(
        rate, 120 / rate, streams=RandomStreams(4), columnar=True
    )
    serial = replay_trace(spec.build(), trace)
    with ShardedCluster(spec, 3, executor="inline") as sharded:
        result = sharded.replay_trace(trace)
    assert_identical(serial, result)
    vm_claims = [t_done for wid, t_done in claims if wid >= spec.sbc_count]
    sbc_claims = [t_done for wid, t_done in claims if wid < spec.sbc_count]
    assert vm_claims and all(t_done is None for t_done in vm_claims)
    assert sbc_claims and all(t_done is not None for t_done in sbc_claims)


def test_control_plane_runs_predict_nothing(claims):
    """A control-plane model queues dispatch and collection, so no
    claim fixes its completion.  One OP core per worker keeps the
    model uncontended, which is what makes a sharded run exact."""
    spec = ClusterSpec(
        kind="microfaas",
        worker_count=40,
        seed=1,
        policy="least-loaded",
        control_plane=ControlPlaneModel(cores=40),
    )
    trace = small_fleet_trace(arrivals=150)
    serial = replay_trace(spec.build(), trace)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        result = sharded.replay_trace(trace)
    assert_identical(serial, result)
    assert len(claims) == len(trace)
    assert all(t_done is None for _wid, t_done in claims)


def test_power_capped_run_predicts_the_stretched_cpu_phase(claims):
    spec = ClusterSpec(
        kind="microfaas",
        worker_count=40,
        seed=1,
        policy="least-loaded",
        power_cap_watts=1.0,
    )
    trace = small_fleet_trace(arrivals=150)
    serial = replay_trace(spec.build(), trace)
    uncapped = replay_trace(small_fleet_spec().build(), trace)
    assert serial.duration_s != uncapped.duration_s
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        result = sharded.replay_trace(trace)
    assert_identical(serial, result)
    assert claims and all(t_done is not None for _wid, t_done in claims)


def test_paper_arrivals_place_several_marks_per_window():
    """The paper's 1 s marks are shorter than one boot."""
    spec = ClusterSpec(kind="microfaas", worker_count=10, seed=7)
    serial = spec.build().run_paper_arrivals(jobs_per_second=2, total_jobs=60)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        result = sharded.run_paper_arrivals(jobs_per_second=2, total_jobs=60)
        rounds = sharded.stats.rounds
    assert_identical(serial, result)
    marks = 30
    assert rounds <= math.ceil((marks - 1) / boot_real_s(spec)) + 3 < marks


@pytest.mark.parametrize(
    "entry, parent_rounds", [("paper_arrivals", 24), ("replay_trace", 24)]
)
def test_chaos_runs_keep_one_round_per_arrival_instant(entry, parent_rounds):
    """Chaos shards report ``horizon = clock``: the round count is the
    one recorded before windowed rendezvous existed."""
    plan = integer_mark_plan()
    spec = ClusterSpec(
        kind="microfaas",
        worker_count=10,
        seed=21,
        policy="least-loaded",
        chaos_plan=plan,
        chaos_detection_delay_s=1.0,
        chaos_max_power_cycles=3,
    )
    serial_cluster = spec.build()
    ChaosEngine(serial_cluster, detection_delay_s=1.0).apply(plan)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        if entry == "paper_arrivals":
            serial = serial_cluster.run_paper_arrivals(
                jobs_per_second=8, total_jobs=160
            )
            result = sharded.run_paper_arrivals(
                jobs_per_second=8, total_jobs=160
            )
        else:
            trace = integer_mark_trace(8, 160)
            serial = replay_trace(serial_cluster, trace)
            result = sharded.replay_trace(trace)
        rounds = sharded.stats.rounds
    assert_identical(serial, result)
    assert rounds == parent_rounds


def test_a_wrong_prediction_raises(monkeypatch):
    plan = SbcWorker._plan
    corrupted = []

    def skewed(self, job, booting, jitter):
        phases, t_done = plan(self, job, booting, jitter)
        if t_done is not None and not corrupted:
            corrupted.append(job.job_id)
            t_done += 1e-6
        return phases, t_done

    monkeypatch.setattr(SbcWorker, "_plan", skewed)
    with ShardedCluster(small_fleet_spec(), 2, executor="inline") as sharded:
        with pytest.raises(SimulationError, match="predicted"):
            sharded.replay_trace(small_fleet_trace(arrivals=60))
    assert corrupted


# -- same-instant order --------------------------------------------------------


def coinciding_plan():
    """Integer crash and repair times with a 1 s detection delay: board
    1 revives at t=6 exactly when board 7's crash is detected, and board
    3 revives at t=11 exactly when board 6's is.  At two shards, odd and
    even boards sit on different shards."""
    crashes = [(3.0, 1, 2.0), (5.0, 7, 4.0), (8.0, 3, 2.0), (10.0, 6, 3.0)]
    return ChaosPlan(
        events=tuple(
            ChaosEvent(ChaosKind.WORKER_CRASH, t, worker, repair)
            for t, worker, repair in crashes
        )
    )


@pytest.mark.parametrize("policy", ["least-loaded", "random-sampling"])
def test_revival_coinciding_with_a_detection_is_bit_identical(policy):
    plan = coinciding_plan()
    spec = ClusterSpec(
        kind="microfaas",
        worker_count=10,
        seed=21,
        policy=policy,
        chaos_plan=plan,
        chaos_detection_delay_s=1.0,
        chaos_max_power_cycles=3,
    )
    serial_cluster = spec.build()
    engine = ChaosEngine(
        serial_cluster, detection_delay_s=1.0, max_power_cycles=3
    )
    engine.apply(plan)
    serial = serial_cluster.run_saturated(invocations_per_function=4)
    revivals = {recover for _kind, _detect, recover in engine.recovery_times}
    detections = {detect for _kind, detect, _recover in engine.recovery_times}
    assert revivals & detections == {6.0, 11.0}
    assert engine.skipped_last_worker == 0
    assert engine.recovered_jobs > 0
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=4)
        stats = sharded.stats
    assert_identical(serial, result)
    assert stats.salvage_assignments == engine.recovered_jobs
    assert stats.resubmissions == serial_cluster.orchestrator.resubmissions
