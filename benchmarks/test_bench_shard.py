"""Benchmarks: the sharded parallel runner (repro.shard).

Two claims ride on :class:`~repro.shard.ShardedCluster` and both are
checked here with wall-clock and RSS numbers, not just unit tests:

* At 5,000 workers under the least-loaded policy, a 4-shard run still
  beats the serial engine while staying bit-identical.  Both place jobs
  with the same lazy min-heap policy (O(log N) per assignment), so the
  margin is what parallel shards and quarter-size event heaps buy over
  one process, net of the coordinator's rendezvous cost.
* The 100,000-worker frontier point fits in bounded memory: each shard
  holds the full topology but only its slice of the hardware, so
  per-shard peak RSS stays under 1 GiB where a serial build of the
  same cluster would hold every board and worker process in one heap.

* Trace replay (the ``fleet`` shape: least-loaded, one open-loop
  Poisson arrival per worker at 85% of capacity) on 500, 1,000 and
  5,000 workers, serial against 2 forked shards.  The shards meet once
  per boot-length window, so the points show where sharding starts to
  pay for its pipes; the README claims a speedup only above that
  crossover.

The sharded leg runs first: forking from a heap already inflated by a
serial 5,000-worker build would bill copy-on-write page faults to the
shards and muddy the comparison.
"""

import math
import statistics
import time

import pytest

from benchmarks.conftest import emit
from repro.cluster.replay import replay_trace
from repro.experiments.megatrace import WORKER_JOBS_PER_S
from repro.shard import ClusterSpec, ShardedCluster
from repro.sim.rng import RandomStreams
from repro.workloads.traces import poisson_trace

#: 5,000 workers x 10 jobs each, spread over the 17-function suite.
SPEC_5K = ClusterSpec(
    kind="microfaas",
    worker_count=5_000,
    seed=1,
    policy="least-loaded",
    telemetry_exact=False,
)
PER_FUNCTION_5K = 5_000 * 10 // 17

SPEC_100K = ClusterSpec(
    kind="microfaas",
    worker_count=100_000,
    seed=1,
    policy="least-loaded",
    telemetry_exact=False,
)


def _run_sharded_5k():
    start = time.perf_counter()
    with ShardedCluster(SPEC_5K, 4, executor="process") as sharded:
        result = sharded.run_saturated(
            invocations_per_function=PER_FUNCTION_5K
        )
    return time.perf_counter() - start, result


def test_bench_shard_speedup_at_5000_workers(benchmark):
    sharded_wall, sharded = benchmark.pedantic(
        _run_sharded_5k, rounds=1, iterations=1
    )

    serial_start = time.perf_counter()
    serial = SPEC_5K.build().run_saturated(
        invocations_per_function=PER_FUNCTION_5K
    )
    serial_wall = time.perf_counter() - serial_start

    speedup = serial_wall / sharded_wall
    emit(
        f"5,000 workers, least-loaded, {sharded.jobs_completed} jobs:\n"
        f"  serial   {serial_wall:7.2f} s\n"
        f"  4 shards {sharded_wall:7.2f} s   ({speedup:.2f}x)"
    )
    # Same simulation, to the bit.
    assert sharded.jobs_completed == serial.jobs_completed
    assert sharded.duration_s == serial.duration_s
    assert sharded.energy_joules == serial.energy_joules
    # 4 shards must still beat serial at this size.
    assert speedup > 1.0, (
        f"4-shard run managed only {speedup:.2f}x over serial "
        f"({sharded_wall:.2f}s vs {serial_wall:.2f}s)"
    )


def test_bench_shard_100k_worker_point_is_memory_bounded(benchmark):
    def run_100k():
        with ShardedCluster(SPEC_100K, 4, executor="process") as sharded:
            result = sharded.run_saturated(invocations_per_function=60)
            return result, sharded.stats

    result, stats = benchmark.pedantic(run_100k, rounds=1, iterations=1)
    emit(
        f"100,000 workers, 4 shards: {result.jobs_completed} jobs, "
        f"{result.throughput_per_min:,.0f} func/min, "
        f"peak shard RSS {stats.peak_shard_rss_mib:,.0f} MiB"
    )
    assert result.jobs_completed == 60 * 17
    assert result.worker_count == 100_000
    # Each shard carries the full topology but only 25,000 workers of
    # hardware; measured ~530 MiB, bounded with headroom for allocator
    # and interpreter drift.
    assert 0 < stats.peak_shard_rss_mib < 1024


#: Timed rounds per leg of a replay point (each leg runs well under 10 s).
REPLAY_ROUNDS = 5


def _fleet_replay(workers):
    spec = ClusterSpec(
        kind="microfaas", worker_count=workers, seed=1, policy="least-loaded"
    )
    rate = workers * WORKER_JOBS_PER_S * 0.85
    trace = poisson_trace(
        rate, workers / rate, streams=RandomStreams(1), columnar=True
    )
    return spec, trace


def _replay_point(spec, trace):
    """Median replay seconds per leg over ``REPLAY_ROUNDS`` rounds; each
    round builds (untimed) and then times one ``replay_trace``."""
    sharded_s, serial_s = [], []
    for _ in range(REPLAY_ROUNDS):
        with ShardedCluster(spec, 2, executor="process") as sharded:
            start = time.perf_counter()
            sharded_result = sharded.replay_trace(trace)
            sharded_s.append(time.perf_counter() - start)
            rounds = sharded.stats.rounds
    for _ in range(REPLAY_ROUNDS):
        cluster = spec.build()
        start = time.perf_counter()
        serial_result = replay_trace(cluster, trace)
        serial_s.append(time.perf_counter() - start)
    return (
        statistics.median(serial_s),
        statistics.median(sharded_s),
        serial_result,
        sharded_result,
        rounds,
    )


@pytest.mark.parametrize("workers", [500, 1_000, 5_000])
def test_bench_shard_replay_vs_serial(benchmark, workers):
    spec, trace = _fleet_replay(workers)
    serial_s, sharded_s, serial, sharded, rounds = benchmark.pedantic(
        _replay_point, args=(spec, trace), rounds=1, iterations=1
    )
    jobs = sharded.jobs_completed
    serial_us = serial_s / jobs * 1e6
    sharded_us = sharded_s / jobs * 1e6
    benchmark.extra_info.update(
        workers=workers,
        jobs=jobs,
        rounds=rounds,
        serial_us_per_inv=serial_us,
        sharded_us_per_inv=sharded_us,
        speedup=serial_s / sharded_s,
    )
    emit(
        f"replay_trace, {workers:,} workers, {jobs:,} jobs "
        f"(median of {REPLAY_ROUNDS}):\n"
        f"  serial   {serial_us:7.1f} us/inv\n"
        f"  2 shards {sharded_us:7.1f} us/inv   "
        f"({serial_s / sharded_s:.2f}x, {rounds} rounds)"
    )
    assert jobs == serial.jobs_completed == len(trace)
    assert sharded.duration_s == serial.duration_s
    assert sharded.energy_joules == serial.energy_joules
    # One rendezvous per boot-length window of arrivals, plus the first
    # and the drain.
    times = [time_s for time_s, _function in trace.iter_pairs()]
    boot_s = spec.build().workers[0].boot_real_s
    assert rounds <= math.ceil((times[-1] - times[0]) / boot_s) + 3
