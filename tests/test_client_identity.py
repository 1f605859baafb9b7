"""SDK-driven runs == server-driven runs, bit for bit.

The SDK's determinism contract: with the defaults (batching invoker,
no retry policy, no RUNNING tracking) the client layer schedules zero
extra simulation events and draws no RNG, so driving a cluster through
``FunctionExecutor`` reproduces the exact telemetry, energy, and clock
of the equivalent ``submit_batch`` / arrival-process replay — and the
paper headline's exact floats."""

from repro.client import FunctionExecutor
from repro.cluster.microfaas import MicroFaaSCluster
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments import sdk_study
from repro.shard import ClusterSpec, ShardedCluster
from repro.workloads.base import ALL_FUNCTION_NAMES


def fresh_cluster(seed=1, workers=10):
    return MicroFaaSCluster(
        worker_count=workers, seed=seed, policy=LeastLoadedPolicy()
    )


def assert_identical(a, b):
    assert a.duration_s == b.duration_s
    assert a.jobs_completed == b.jobs_completed
    assert a.energy_joules == b.energy_joules
    assert a.throughput_per_min == b.throughput_per_min
    assert a.joules_per_function == b.joules_per_function
    ta, tb = a.telemetry, b.telemetry
    assert tb.count == ta.count
    assert tb.mean_latency_s() == ta.mean_latency_s()
    for pct in (50.0, 99.0, 100.0):
        assert tb.percentile_latency_s(pct) == ta.percentile_latency_s(pct)
    assert tb.functions_seen == ta.functions_seen


def headline_via_sdk(invocations_per_function=30, seed=1):
    """The paper headline, driven through the SDK.

    Maps the exact saturated batch of ``ClusterHarness.run_saturated``
    — every function ``invocations_per_function`` times, submitted in
    one batching-invoker flush at t=0 — on both throughput-matched
    clusters, and snapshots results at the last client resolution.
    """
    batch = [
        function
        for _ in range(invocations_per_function)
        for function in ALL_FUNCTION_NAMES
    ]

    def one(kind):
        cluster = sdk_study.build_backend(kind, seed)
        executor = FunctionExecutor(cluster)
        futures = executor.map(batch)
        _done, not_done = executor.wait(futures)
        assert not not_done, "SDK headline run did not drain"
        return cluster.result_snapshot(cluster.env.now)

    return one("microfaas"), one("conventional")


def test_sdk_headline_reproduces_the_exact_paper_floats():
    """The acceptance pin: the headline driven through the SDK."""
    mf, cv = headline_via_sdk(invocations_per_function=30, seed=1)
    assert mf.throughput_per_min == 198.91024488371775
    assert cv.throughput_per_min == 210.63421280389312
    assert mf.joules_per_function == 5.68976562485388
    assert cv.joules_per_function == 31.981347387759136


def test_sdk_map_matches_submit_batch_replay_at_10k():
    """A 10,000-invocation SDK map over the batching invoker is the
    acceptance-spec replay: identical telemetry to `submit_batch`."""
    per_function = 10_000 // len(ALL_FUNCTION_NAMES) + 1
    batch = [
        function
        for _ in range(per_function)
        for function in ALL_FUNCTION_NAMES
    ][:10_000]
    assert len(batch) == 10_000

    ref = fresh_cluster()
    ref.orchestrator.submit_batch(batch)
    ref.env.run(until=ref.orchestrator.wait_all())
    ref_result = ref.result_snapshot(ref.env.now)

    sdk = fresh_cluster()
    ex = FunctionExecutor(sdk)
    futures = ex.map(batch)
    done, not_done = ex.wait(futures)
    assert not not_done
    sdk_result = sdk.result_snapshot(sdk.env.now)

    assert ref.env.now == sdk.env.now
    assert_identical(ref_result, sdk_result)
    assert ex.invoker.batches_flushed == 1
    assert ex.invoker.calls_flushed == 10_000
    assert ex.stats.succeeded == 10_000


def test_sdk_arrival_process_matches_run_paper_arrivals():
    """A client process mapping one batch per interval is bit-identical
    to the orchestrator's own paper arrival process."""
    ref = fresh_cluster()
    ref_result = ref.run_paper_arrivals(jobs_per_second=2, total_jobs=170)

    sdk = fresh_cluster()
    ex = FunctionExecutor(sdk)
    functions = list(ALL_FUNCTION_NAMES)
    count = len(functions)
    total, per = 170, 2
    batches = [
        [functions[i % count] for i in range(first, min(first + per, total))]
        for first in range(0, total, per)
    ]

    def arrivals():
        for batch in batches:
            ex.map(batch)
            ex.invoker.flush()
            yield sdk.env.timeout(1.0)

    proc = sdk.env.process(arrivals(), name="sdk-arrivals")
    sdk.env.run(until=proc)
    done, not_done = ex.wait()
    assert not not_done
    sdk_result = sdk.result_snapshot(sdk.env.now)

    assert ref.env.now == sdk.env.now
    assert_identical(ref_result, sdk_result)


def test_sdk_on_serial_matches_sharded_inline_run():
    """The SDK path and the sharded engine agree: an SDK map on the
    serial cluster == the same saturated batch on a 2-way inline
    sharded run of the same spec."""
    spec = ClusterSpec(kind="microfaas", worker_count=10, seed=42)
    with ShardedCluster(spec, 2, executor="inline") as sharded:
        sharded_result = sharded.run_saturated(invocations_per_function=3)

    sdk = spec.build()
    ex = FunctionExecutor(sdk)
    batch = [
        function
        for _ in range(3)
        for function in ALL_FUNCTION_NAMES
    ]
    ex.map(batch)
    done, not_done = ex.wait()
    assert not not_done
    sdk_result = sdk.result_snapshot(sdk.env.now)

    assert_identical(sharded_result, sdk_result)


def test_sync_and_batch_invokers_agree_on_results():
    """Invoker choice changes submission mechanics (N pushes vs one
    bulk merge), never outcomes."""
    results = []
    for kind in ("batch", "sync"):
        cluster = fresh_cluster(seed=9, workers=4)
        ex = FunctionExecutor(cluster, invoker=kind)
        ex.map("MatMul", 12)
        done, not_done = ex.wait()
        assert not not_done
        results.append(cluster.result_snapshot(cluster.env.now))
    assert_identical(results[0], results[1])
