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

import random

import pytest

from repro.cluster.microfaas import MicroFaaSCluster
from repro.cluster.replay import replay_trace
from repro.core.scheduler import make_policy
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
    would diverge from the replayer immediately."""
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
        ShardRemotePolicy().select(None, [], lambda wid: True)


def test_sharded_rejects_random_policy_object_mismatch():
    """The serial twin of a spec must use the spec's policy: building
    with a different seed diverges (sanity check that the determinism
    assertions above would actually catch a protocol break)."""
    spec = ClusterSpec(kind="microfaas", worker_count=10, seed=42)
    other = MicroFaaSCluster(
        worker_count=10,
        seed=42,
        policy=make_policy("random-sampling", random.Random(43)),
    )
    different = other.run_saturated(invocations_per_function=3)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=3)
    assert result.duration_s != different.duration_s
