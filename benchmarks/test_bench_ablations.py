"""Ablation benchmarks for the design choices DESIGN.md calls out.

- Reboot-between-jobs vs warm workers (the clean-state tax).
- Power-off-when-idle vs always-on boards (energy proportionality).
- Assignment policy (random sampling vs least-loaded vs packing).
- NIC upgrade: Fast Ethernet -> GigE on the SBC (Sec. V discussion).
"""

import dataclasses

import pytest

from benchmarks.conftest import emit
from repro.cluster import MicroFaaSCluster
from repro.core.lifecycle import RunToCompletionPolicy
from repro.core.scheduler import (
    LeastLoadedPolicy,
    PackingPolicy,
    RandomSamplingPolicy,
)
from repro.hardware.specs import BEAGLEBONE_BLACK, GIGABIT_ETHERNET

PER_FUNCTION = 12


def run_cluster(worker_policy=None, policy=None, sbc_spec=BEAGLEBONE_BLACK,
                jobs_per_second=None):
    cluster = MicroFaaSCluster(
        worker_count=10,
        seed=3,
        policy=policy or LeastLoadedPolicy(),
        worker_policy=worker_policy or RunToCompletionPolicy.paper_default(),
        sbc_spec=sbc_spec,
    )
    if jobs_per_second is not None:
        return cluster.run_paper_arrivals(
            jobs_per_second=jobs_per_second, total_jobs=PER_FUNCTION * 17
        )
    return cluster.run_saturated(invocations_per_function=PER_FUNCTION)


def test_bench_ablation_reboot_vs_warm(benchmark):
    """The clean-state reboot costs ~2x throughput-per-board but is the
    security guarantee the architecture rests on."""
    warm = benchmark.pedantic(
        run_cluster,
        kwargs={
            "worker_policy": RunToCompletionPolicy(
                reboot_between_jobs=False, power_off_when_idle=False
            )
        },
        rounds=1,
        iterations=1,
    )
    cold = run_cluster()
    emit(
        "Ablation - reboot vs warm workers:\n"
        f"  paper (reboot+off): {cold.summary()}\n"
        f"  warm (no reboot):   {warm.summary()}"
    )
    # Without the 1.51 s boot per job, throughput roughly doubles...
    assert warm.throughput_per_min > 1.6 * cold.throughput_per_min
    # ...and each function costs fewer joules.
    assert warm.joules_per_function < cold.joules_per_function


def test_bench_ablation_power_off_when_idle(benchmark):
    """At low load, powering idle boards off is the energy story: boards
    that idle at 1.05 W instead of 0.128 W waste joules per function."""
    always_on = RunToCompletionPolicy(
        reboot_between_jobs=True, power_off_when_idle=False
    )
    lazy = benchmark.pedantic(
        run_cluster,
        kwargs={"worker_policy": always_on, "jobs_per_second": 1},
        rounds=1,
        iterations=1,
    )
    proportional = run_cluster(jobs_per_second=1)
    emit(
        "Ablation - power-off-when-idle at 1 job/s:\n"
        f"  paper (power off): {proportional.summary()}\n"
        f"  always-on idle:    {lazy.summary()}"
    )
    assert proportional.joules_per_function < lazy.joules_per_function


def test_bench_ablation_assignment_policy(benchmark):
    """Random sampling (the paper's policy) pays a queue-imbalance tax
    relative to least-loaded at equal load."""
    random_policy = benchmark.pedantic(
        run_cluster,
        kwargs={"policy": RandomSamplingPolicy()},
        rounds=1,
        iterations=1,
    )
    least_loaded = run_cluster(policy=LeastLoadedPolicy())
    packing = run_cluster(policy=PackingPolicy())
    emit(
        "Ablation - assignment policy (saturated):\n"
        f"  random-sampling: {random_policy.summary()}\n"
        f"  least-loaded:    {least_loaded.summary()}\n"
        f"  packing:         {packing.summary()}"
    )
    assert least_loaded.throughput_per_min >= random_policy.throughput_per_min
    # Packing concentrates load on few boards: far worse queue waits.
    assert (
        packing.telemetry.mean_queue_wait_s()
        > least_loaded.telemetry.mean_queue_wait_s()
    )


def test_bench_ablation_boot_time_value(benchmark):
    """What each Fig. 1 boot optimization is worth in cluster capacity:
    throughput scales as 1/(boot + work + overhead), so the 16.6 s ->
    1.51 s journey is the difference between ~32 and ~200 func/min."""
    from repro.bootos import DEVELOPMENT_HISTORY, baseline_sequence
    from repro.cluster.matching import mean_cycle_s

    def capacity_for_boot(boot_s):
        work_plus_overhead = mean_cycle_s("arm") - 1.51
        return 10 * 60.0 / (boot_s + work_plus_overhead)

    def sweep():
        sequence = baseline_sequence("arm")
        rows = [("baseline", sequence.real_s, capacity_for_boot(sequence.real_s))]
        for optimization in DEVELOPMENT_HISTORY:
            sequence = optimization.apply(sequence)
            rows.append(
                (optimization.letter, sequence.real_s,
                 capacity_for_boot(sequence.real_s))
            )
        return rows

    rows = benchmark(sweep)
    lines = [
        f"  {label:8s} boot {boot:5.2f} s -> {capacity:6.1f} func/min"
        for label, boot, capacity in rows
    ]
    emit("Ablation - 10-SBC capacity vs boot time:\n" + "\n".join(lines))
    capacities = [capacity for _label, _boot, capacity in rows]
    assert capacities == sorted(capacities)  # every change adds capacity
    assert capacities[0] < 40.0  # a stock distro would cripple the model
    assert capacities[-1] == pytest.approx(200.6, abs=1.0)


def test_bench_ablation_warm_pool(benchmark):
    """Future-work style optimization: pre-booted warm boards mask the
    1.51 s cold boot at the price of idle watts."""
    from repro.cluster import replay_trace
    from repro.core.warmpool import WarmPool
    from repro.sim.rng import RandomStreams
    from repro.workloads.traces import poisson_trace

    def run(warm):
        trace = poisson_trace(0.8, 120.0, streams=RandomStreams(17))
        cluster = MicroFaaSCluster(worker_count=6, seed=17)
        WarmPool(cluster, size=warm)
        return replay_trace(cluster, trace)

    warm = benchmark.pedantic(run, args=(6,), rounds=1, iterations=1)
    cold = run(0)
    warm_latency = sum(warm.telemetry.end_to_end_latencies_s()) / warm.jobs_completed
    cold_latency = sum(cold.telemetry.end_to_end_latencies_s()) / cold.jobs_completed
    emit(
        "Ablation - warm pool at 0.8 jobs/s:\n"
        f"  cold (paper):  {cold_latency:.2f} s mean latency, "
        f"{cold.joules_per_function:.2f} J/func\n"
        f"  warm pool (6): {warm_latency:.2f} s mean latency, "
        f"{warm.joules_per_function:.2f} J/func"
    )
    assert warm_latency < cold_latency
    assert warm.joules_per_function > cold.joules_per_function


def test_bench_ablation_nic_upgrade(benchmark):
    """Sec. V: 'upgrading our evaluation SBC's NIC ... would likely
    reduce the overhead of functions like COSGet.'  A GigE SBC shrinks
    the invocation overhead of payload-heavy functions."""
    gige_sbc = dataclasses.replace(BEAGLEBONE_BLACK, nic=GIGABIT_ETHERNET)
    fast = benchmark.pedantic(
        run_cluster, kwargs={"sbc_spec": gige_sbc}, rounds=1, iterations=1
    )
    stock = run_cluster()
    stock_ovh = stock.telemetry.function_stats("RegExSearch").mean_overhead_s
    gige_ovh = fast.telemetry.function_stats("RegExSearch").mean_overhead_s
    emit(
        "Ablation - SBC NIC upgrade (RegExSearch overhead):\n"
        f"  Fast Ethernet: {stock_ovh * 1000:.1f} ms\n"
        f"  Gigabit:       {gige_ovh * 1000:.1f} ms"
    )
    # The 28 ms ARM session cost is NIC-independent; the upgrade removes
    # the ~22 ms serialization of the 250 KB payload.
    assert gige_ovh < 0.65 * stock_ovh
    assert fast.throughput_per_min > stock.throughput_per_min
