"""Benchmark: raw event throughput of the simulation kernel.

A timeout-ping workload — K processes each sleeping N times, plus an
event ping-pong pair and waits on already-finished processes — drives
``Environment.step`` through its hot paths (timeout scheduling, process
resume, the processed-event fast path).  The benchmark reports events
per second, so kernel regressions show up directly in the bench
trajectory.

A second point drains the Sec. V batch (30 invocations of each of the
17 functions, seed-shuffled, all at t=0) on the 6-VM conventional
cluster and bounds the kernel events it schedules per invocation: six
1-vCPU guests on 12 cores never contend, so each CPU burst is one wait
rather than two events per 0.1 s quantum.
"""

import random
import statistics
import time

from benchmarks.conftest import emit
from repro.cluster import ConventionalCluster
from repro.core.scheduler import LeastLoadedPolicy
from repro.sim import Environment
from repro.workloads.base import ALL_FUNCTION_NAMES

#: Pinging processes and timeouts per process for one workload run.
PINGERS = 50
PINGS = 200


def run_timeout_ping(pingers: int = PINGERS, pings: int = PINGS) -> int:
    """Run the workload; returns the number of events processed."""
    env = Environment()
    finished = []

    def pinger(delay: float):
        for _ in range(pings):
            yield env.timeout(delay)
        return delay

    def pingpong(partner_done):
        # Exercise succeed() delivery plus the wait-on-processed fast
        # path: by t=pings the pingers are done, so yielding them
        # resumes via the kernel's pre-triggered resume carrier.
        yield env.timeout(float(pings))
        for proc in procs:
            value = yield proc
            finished.append(value)
        partner_done.succeed(len(finished))

    procs = [env.process(pinger(1.0 + i * 1e-6)) for i in range(pingers)]
    done = env.event()
    env.process(pingpong(done))
    result = env.run(until=done)
    assert result == pingers
    # one Initialize + `pings` timeouts + one completion per pinger,
    # plus the collector's own events.
    return pingers * (pings + 2)


def test_bench_kernel_events_per_sec(benchmark):
    events = benchmark(run_timeout_ping)
    assert events == PINGERS * (PINGS + 2)
    stats = getattr(benchmark, "stats", None)
    if stats is not None:  # absent under --benchmark-disable
        mean = stats.stats.mean
        if mean > 0:
            emit(f"kernel throughput: {events / mean:,.0f} events/s")


#: Rounds of the VM batch drain (each well under a second).
VM_ROUNDS = 5
#: Kernel events per invocation the 6-VM drain may schedule (33.6 when
#: every 0.1 s quantum was two events, 9.0 with one wait per burst, 2.0
#: with one wait per invocation).
VM_EVENTS_PER_INV_MAX = 2.5


def _testbed_batch(seed: int = 1) -> list:
    batch = [
        function for _ in range(30) for function in ALL_FUNCTION_NAMES
    ]
    random.Random(seed).shuffle(batch)
    return batch


def test_bench_kernel_vm_batch_drain(benchmark):
    batch = _testbed_batch()
    clusters = []
    drained = []

    def setup():
        clusters.append(
            ConventionalCluster(vm_count=6, seed=1, policy=LeastLoadedPolicy())
        )

    def drain():
        cluster = clusters[-1]
        orchestrator = cluster.orchestrator
        first_event = cluster.env._sequence
        start = time.perf_counter()
        orchestrator.submit_batch(batch)
        cluster.env.run(until=orchestrator.wait_all())
        wall_s = time.perf_counter() - start
        drained.append((cluster.env._sequence - first_event, wall_s))

    benchmark.pedantic(drain, setup=setup, rounds=VM_ROUNDS, iterations=1)
    for cluster in clusters:
        assert cluster.orchestrator.telemetry.count == len(batch)
    events = {count for count, _wall in drained}
    assert len(events) == 1, "the drain must be deterministic"
    events_per_inv = events.pop() / len(batch)
    assert events_per_inv <= VM_EVENTS_PER_INV_MAX
    wall_s = statistics.median(wall for _count, wall in drained)
    emit(
        f"6-VM batch drain: {events_per_inv:.1f} events/invocation, "
        f"{wall_s / len(batch) * 1e6:.0f} us/invocation, "
        f"{events_per_inv * len(batch) / wall_s:,.0f} events/s (median)"
    )
