"""Benchmark: cold cluster construction, serial and per shard.

Every build goes through a :class:`~repro.cluster.blueprint.ClusterBlueprint`.
Each bench times one build per round:

* **serial** — one full cluster: the harness computes the blueprint
  and materializes every worker;
* **per-shard** — shard 0 of an N-shard partition, built from the
  blueprint the coordinator computes once for all shards (so that
  computation stays outside the timed window).  Only the shard's own
  workers get hardware and endpoints; the rest are stub queues.  This
  is the number that multiplies by N in a sharded run.

Per size, the per-shard bench asserts that the serial build costs at
least 3x the per-shard build (median over rounds).  The previous
round's cluster is torn down and collected outside the timed window —
a 100k-worker heap takes long enough to free to swamp the build.
"""

import gc
import statistics
import time

import pytest

from benchmarks.conftest import emit
from repro.cluster import MicroFaaSCluster
from repro.shard.partition import plan_shards
from repro.shard.runtime import ClusterSpec

#: (worker_count, shard count for the per-shard leg).  Shard counts
#: follow the scale ladder the shard benchmarks use: 4 at 5k, up to the
#: 16-way split a 100k frontier point actually runs with.
SIZES = ((5_000, 4), (25_000, 8), (100_000, 16))
IDS = ["5k", "25k", "100k"]

#: Rounds per bench.  Every build here takes under 10 s (a 100k-worker
#: serial build 6-8 s on a 2.1 GHz Xeon), so every bench runs 5.
ROUNDS = 5

@pytest.fixture(scope="module")
def serial_median_s():
    """Median serial build seconds per worker count, for the ratio gate."""
    return {}


def _bench_build(benchmark, build):
    """Time ``build()`` once per round; returns (last cluster, median s)."""
    built = []
    walls = []

    def setup():
        built.clear()
        gc.collect()

    def target():
        start = time.perf_counter()
        built.append(build())
        walls.append(time.perf_counter() - start)

    benchmark.pedantic(target, setup=setup, rounds=ROUNDS, iterations=1)
    return built[-1], statistics.median(walls)


def _time_serial_build(count):
    gc.collect()
    start = time.perf_counter()
    MicroFaaSCluster(worker_count=count)
    return time.perf_counter() - start


@pytest.mark.parametrize("count", [count for count, _ in SIZES], ids=IDS)
def test_bench_build_serial(benchmark, serial_median_s, count):
    cluster, median = _bench_build(
        benchmark, lambda: MicroFaaSCluster(worker_count=count)
    )
    assert len(cluster.workers) == count
    serial_median_s[count] = median
    emit(f"serial build, {count:,} workers: {median:7.3f} s (median)")


@pytest.mark.parametrize("count,shards", SIZES, ids=IDS)
def test_bench_build_per_shard(benchmark, serial_median_s, count, shards):
    spec = ClusterSpec(kind="microfaas", worker_count=count)
    local = plan_shards(spec.pool_shapes(), shards).shard_worker_ids[0]
    blueprint = spec.blueprint()
    cluster, median = _bench_build(
        benchmark,
        lambda: MicroFaaSCluster(
            worker_count=count, local_ids=local, blueprint=blueprint
        ),
    )
    assert len(cluster.orchestrator.queues) == count
    assert len(cluster.sbcs) == len(local)
    del cluster
    serial = serial_median_s.get(count)
    if serial is None:  # the serial bench did not run in this session
        serial = _time_serial_build(count)
    ratio = serial / median
    benchmark.extra_info["serial_over_shard"] = ratio
    emit(
        f"per-shard build, {count:,} workers / {shards} shards: "
        f"{median:7.3f} s (median), serial/per-shard {ratio:.1f}x"
    )
    # A shard materializes 1/N of the workers and none of the remote
    # endpoints, so its cold build must be well under the serial one.
    assert ratio >= 3.0
