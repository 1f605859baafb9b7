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

The sharded leg runs first: forking from a heap already inflated by a
serial 5,000-worker build would bill copy-on-write page faults to the
shards and muddy the comparison.
"""

import time

from benchmarks.conftest import emit
from repro.shard import ClusterSpec, ShardedCluster

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
