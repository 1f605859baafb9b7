"""Kernel events per invocation, and the exactness of the workers'
booked timelines.

An SBC or uncontended VM job books its whole power timeline at the
claim and waits once, traced or not.  The floats it computes must be
the ones the chained per-phase timeouts produced: every pin below was
recorded from the per-phase worker, and the differential tests compare
runs forced onto the per-phase path (``_bookable`` patched to False)
with booked ones, traced and untraced.
"""

import hashlib

import pytest

import random

from repro.cluster import ConventionalCluster, MicroFaaSCluster
from repro.cluster.replay import replay_trace
from repro.cluster.worker import SbcWorker
from repro.core.scheduler import LeastLoadedPolicy
from repro.energy.accounting import sbc_state_breakdown
from repro.hardware.power import PowerState
from repro.obs.trace import TraceConfig
from repro.reliability.chaos import ChaosEngine, ChaosEvent, ChaosKind
from repro.workloads import traces
from repro.workloads.base import ALL_FUNCTION_NAMES

WORKERS = 16


def _stream_replay(arrivals, trace=None):
    """A ``stream``-shaped run: least-loaded Poisson replay at 85% load."""
    rate = WORKERS * (1.0 / 3.0) * 0.85
    arrival_trace = traces.ChunkedPoissonTrace(
        rate_per_s=rate, duration_s=arrivals / rate, seed=1
    )
    cluster = MicroFaaSCluster(
        worker_count=WORKERS, seed=1, policy=LeastLoadedPolicy(), trace=trace
    )
    result = replay_trace(cluster, arrival_trace)
    return cluster, result


@pytest.fixture(scope="module")
def untraced():
    return _stream_replay(500)


def test_replay_matches_per_phase_worker(untraced):
    cluster, result = untraced
    records = cluster.orchestrator.telemetry.records
    assert result.jobs_completed == 517
    assert (
        hashlib.sha256(repr(records).encode()).hexdigest()
        == "799c809f6749f7d07f85a1abb5fd03e012b9360066d904f458f45dc4a4cbcb99"
    )
    assert repr(result.energy_joules) == "2956.4527643436436"


def test_at_most_three_kernel_events_per_invocation(untraced):
    """Arrival timeout, queue hand-off, and the booked timeline's one
    wait.  The per-phase worker paid nine.  Each run also has a fixed
    start-up cost (one start per worker process, plus ``replay_trace``'s
    own processes), which the difference of two runs cancels."""
    large, large_result = untraced
    small, small_result = _stream_replay(250)
    events = large.env._sequence - small.env._sequence
    invocations = large_result.jobs_completed - small_result.jobs_completed
    assert invocations > 200
    assert events / invocations <= 3.0
    assert large.env._sequence / large_result.jobs_completed < 3.05


def test_six_vm_drain_waits_once_per_invocation():
    """The Sec. V testbed batch on six VMs: the queue hand-off and one
    wait for the booked reboot, inbound, CPU burst, I/O and outbound.
    The per-quantum hypervisor paid 33.6 per invocation."""
    batch = [name for _ in range(30) for name in ALL_FUNCTION_NAMES]
    random.Random(1).shuffle(batch)
    cluster = ConventionalCluster(
        vm_count=6, seed=1, policy=LeastLoadedPolicy()
    )
    cluster.orchestrator.submit_batch(batch)
    cluster.env.run(until=cluster.orchestrator.wait_all())
    assert cluster.orchestrator.telemetry.count == len(batch)
    assert cluster.env._sequence / len(batch) <= 2.1


def _boards(cluster):
    return [
        (sbc.trace.change_points,
         [repr(sbc.psm.time_in_state(state)) for state in PowerState])
        for sbc in cluster.sbcs
    ]


def test_traced_run_matches_untraced_records(untraced, monkeypatch):
    """A traced job books too; forced onto one wait per phase it must
    give the same floats: records, every board's change points and its
    time-in-state sums, which split at each booked same-state
    re-entry."""
    cluster, _ = untraced
    traced, _ = _stream_replay(500, trace=TraceConfig(sample_rate=1.0))
    with monkeypatch.context() as patch:
        patch.setattr(SbcWorker, "_bookable", False)
        forced, _ = _stream_replay(500, trace=TraceConfig(sample_rate=1.0))
    assert traced.env._sequence == cluster.env._sequence
    assert forced.env._sequence > cluster.env._sequence
    for run in (traced, forced):
        assert [repr(r) for r in run.orchestrator.telemetry.records] == [
            repr(r) for r in cluster.orchestrator.telemetry.records
        ]
        assert _boards(run) == _boards(cluster)


def test_traced_stream_replay_books_each_invocation():
    """2,000 arrivals at sample rate 1: as many kernel events per
    invocation as untraced (the per-phase worker paid seven)."""
    traced, result = _stream_replay(
        2000, trace=TraceConfig(sample_rate=1.0)
    )
    assert traced.env._sequence / result.jobs_completed <= 3.05


# Worker 0's first job (COSGet) on a 2-board cluster: boot ends at 1.51,
# the CPU phase at 2.2322480601731933, the I/O phase at 5.22597577562802
# and the result transfer at 5.226193553405797.  A crash at 5.2261 lands
# inside the fused I/O + outbound stretch after the I/O end; one at 4.0
# lands before it.  Each board's time-in-state and the breakdown were
# recorded from the per-phase worker.
RECORDED_TIME_IN_STATE = {
    5.2261: (
        {
            "OFF": "14.488848052282624",
            "BOOT": "1.51",
            "IDLE": "0.0",
            "CPU_BUSY": "0.6940373935065267",
            "IO_WAIT": "3.0220626064934732",
        },
        {
            "OFF": "2.553619152286533",
            "BOOT": "6.040000000000001",
            "IDLE": "0.0",
            "CPU_BUSY": "3.686261969973301",
            "IO_WAIT": "7.435066930022788",
        },
    ),
    4.0: (
        {
            "OFF": "14.48884805228262",
            "BOOT": "1.51",
            "IDLE": "0.0",
            "CPU_BUSY": "0.6940373935065267",
            "IO_WAIT": "1.7959626064934733",
        },
        {
            "OFF": "1.3275191522865333",
            "BOOT": "6.039999999999999",
            "IDLE": "0.0",
            "CPU_BUSY": "3.686261969973301",
            "IO_WAIT": "7.435066930022787",
        },
    ),
}
RECORDED_BREAKDOWN = {
    5.2261: {
        "off": "2.181435802184852",
        "boot": "14.345",
        "idle": "0.0",
        "cpu_busy": "9.636658599655622",
        "io_wait": "12.548555443819511",
    },
    4.0: {
        "off": "2.0244950021848513",
        "boot": "14.344999999999997",
        "idle": "0.0",
        "cpu_busy": "9.636658599655622",
        "io_wait": "11.07723544381951",
    },
}


@pytest.mark.parametrize("crash_s", sorted(RECORDED_TIME_IN_STATE))
def test_time_in_state_exact_across_a_crash(crash_s):
    cluster = MicroFaaSCluster(worker_count=2, seed=1)
    cluster.env.process(ChaosEngine(cluster)._dispatch(
        ChaosEvent(ChaosKind.WORKER_CRASH, crash_s, 0, 2.0)
    ))
    cluster.orchestrator.submit_batch(["COSGet", "COSPut", "FloatOps", "COSGet"])
    cluster.env.run()
    for sbc, recorded in zip(cluster.sbcs, RECORDED_TIME_IN_STATE[crash_s]):
        assert {
            state.name: repr(sbc.psm.time_in_state(state)) for state in PowerState
        } == recorded
    assert {
        name: repr(joules)
        for name, joules in sbc_state_breakdown(cluster.sbcs).by_state.items()
    } == RECORDED_BREAKDOWN[crash_s]
