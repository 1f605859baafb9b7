"""Booked invocation timelines against the per-phase oracle.

An untraced SBC job, and an untraced VM job on an uncontended host,
books its whole power timeline at the claim and waits once; a traced job
keeps one wait per phase.  Each test runs one scenario twice — every job
traced, then none — and compares, with ``==`` at checkpoints inside the
booked stretches and at the end: the invocation records, every board's
state, change points and time-in-state, the host trace and hypervisor
counters, the energy ledger's bills and a power meter's samples.
Crashes, DVFS steps, ledger settles, warm-pool resizes and policies
reading board state all land mid-stretch.
"""

import pytest

from repro.cluster import ConventionalCluster, MicroFaaSCluster
from repro.cluster.hybrid import HybridCluster
from repro.core.scheduler import make_policy
from repro.core.warmpool import WarmPool
from repro.hardware.meter import PowerMeter
from repro.hardware.power import PowerState
from repro.obs.trace import TraceConfig
from repro.reliability.chaos import (
    ChaosEngine,
    ChaosEvent,
    ChaosKind,
    ChaosPlan,
)
from repro.services.backend import BackendCapacityModel

#: Instants inside the booked stretches of the scenarios below: mid-boot,
#: mid-inbound, mid-CPU and mid-I/O phases of the first jobs and later.
CHECKPOINTS = (0.77, 1.6, 2.05, 3.3, 4.41, 5.9, 8.25, 12.5)

BATCH = ["COSGet", "FloatOps", "RedisInsert", "AES128", "COSPut",
         "CascSHA", "MatMul", "SQLSelect", "RegExMatch", "COSGet",
         "FloatOps", "HTMLGen"]


def _observe(cluster, ledger, meter):
    boards, hosts = [], []
    for pool in cluster.pools:
        for sbc in getattr(pool, "sbcs", ()):
            boards.append((
                sbc.state,
                sbc.boot_count,
                sbc.jobs_completed,
                sbc.trace.change_points,
                [repr(sbc.psm.time_in_state(s)) for s in PowerState],
            ))
        hypervisor = getattr(pool, "hypervisor", None)
        if hypervisor is not None:
            hosts.append((
                hypervisor.server.trace.change_points,
                hypervisor.context_switches,
                repr(hypervisor.cpu_seconds_executed),
                hypervisor.busy_cores,
            ))
    bills = None
    if ledger is not None:
        bills = repr((ledger.function_joules, ledger.overhead_joules,
                      ledger.attempts_billed, ledger.wasted_attempts))
    return (
        [repr(r) for r in cluster.orchestrator.telemetry.records],
        boards,
        hosts,
        bills,
        list(meter.samples),
    )


def _observed_run(cluster, scenario, checkpoints=CHECKPOINTS):
    """Run ``scenario(cluster, ledger)`` to the end; return what
    :func:`_observe` saw at each checkpoint and at the end."""
    ledger = cluster.enable_energy_ledger()
    meter = PowerMeter(cluster.env, cluster.metered_watts, interval_s=0.37)
    meter.start()
    scenario(cluster, ledger)
    observed = []
    for until in checkpoints:
        cluster.env.run(until=until)
        observed.append(_observe(cluster, ledger, meter))
    meter.stop()
    cluster.env.run()
    observed.append(_observe(cluster, ledger, meter))
    return observed


def _differential(build, scenario, checkpoints=CHECKPOINTS):
    """Run ``scenario(cluster, ledger)`` traced and untraced; return the
    untraced cluster after asserting both observed the same floats."""
    runs = []
    for trace in (TraceConfig(sample_rate=1.0), None):
        cluster = build(trace)
        runs.append((_observed_run(cluster, scenario, checkpoints), cluster))
    (traced, _), (untraced, cluster) = runs
    for index, (a, b) in enumerate(zip(traced, untraced)):
        assert a == b, f"diverged by checkpoint {index}"
    return cluster


def _microfaas(workers=3, **kwargs):
    return lambda trace: MicroFaaSCluster(
        worker_count=workers, seed=1, trace=trace, **kwargs
    )


def _conventional(vms=6):
    return lambda trace: ConventionalCluster(vm_count=vms, seed=1, trace=trace)


def _hybrid(policy):
    return lambda trace: HybridCluster(
        sbc_count=3, vm_count=2, seed=1, policy=make_policy(policy),
        trace=trace,
    )


def _submit(cluster, _ledger):
    cluster.orchestrator.submit_batch(BATCH)


def _at(cluster, instants, action):
    def process():
        for instant in instants:
            yield cluster.env.timeout_at(instant)
            action()

    cluster.env.process(process())


def test_untraced_jobs_book_and_traced_jobs_do_not():
    """The two runs take different paths: the untraced one schedules
    far fewer kernel events for the same floats."""
    events = []
    for trace in (TraceConfig(sample_rate=1.0), None):
        cluster = _microfaas()(trace)
        _submit(cluster, None)
        cluster.env.run()
        events.append(cluster.env._sequence)
    assert events[1] < events[0] / 2


def _board_faults(kind, magnitude):
    return (ChaosEvent(kind, 1.3, 0, 2.5, magnitude),
            ChaosEvent(kind, 4.6, 2, 1.0, magnitude))


def _repaired_crashes(crash_s):
    return (ChaosEvent(ChaosKind.WORKER_CRASH, crash_s, 0, 2.0),
            ChaosEvent(ChaosKind.WORKER_CRASH, crash_s + 3.7, 1, 1.5))


@pytest.mark.parametrize("events", [
    pytest.param(_board_faults(ChaosKind.WORKER_CRASH, 0.0),
                 id="ChaosKind.WORKER_CRASH-0.0"),
    pytest.param(_board_faults(ChaosKind.BOOT_FAILURE, 2.0),
                 id="ChaosKind.BOOT_FAILURE-2.0"),
    *(pytest.param(_repaired_crashes(crash_s), id=f"crash-{crash_s}")
      for crash_s in (0.9, 2.2, 4.0, 5.2261)),
])
def test_chaos_engine_board_fault_mid_stretch(events):
    """The chaos engine's crash, detection, power-cycle and revival
    cycle.  A board-level plan leaves transfer fault accounting off, so
    untraced jobs stay booked.  A crash truncates the board's bookings;
    the retry lands on a survivor and the repaired board rejoins."""

    def scenario(cluster, ledger):
        engine = ChaosEngine(cluster, detection_delay_s=1.0)
        engine.apply(ChaosPlan(events))
        _submit(cluster, ledger)

    cluster = _differential(_microfaas(), scenario)
    assert not cluster.transfers.chaos_enabled
    assert cluster.orchestrator.jobs_lost == 0


def _backend_faults():
    return (ChaosEvent(ChaosKind.BACKEND_FAULT, 1.3, "redis", 2.5),
            ChaosEvent(ChaosKind.BACKEND_FAULT, 4.6, "minio", 1.0))


@pytest.mark.parametrize("events,build", [
    pytest.param(_board_faults(ChaosKind.WORKER_CRASH, 0.0), _microfaas(),
                 id="worker-crash"),
    pytest.param(_board_faults(ChaosKind.BOOT_FAILURE, 2.0), _microfaas(),
                 id="boot-failure"),
    pytest.param(_board_faults(ChaosKind.GPIO_STUCK, 0.0), _microfaas(),
                 id="gpio-stuck"),
    pytest.param(_backend_faults(),
                 _microfaas(backend=BackendCapacityModel()),
                 id="backend-fault"),
])
def test_board_level_plans_match_forced_transfer_accounting(events, build):
    """``apply`` switches transfer fault accounting on only for network
    events.  A plan of one board-level (or backend) kind gives the same
    records, time-in-state, bills and joules as the same plan with
    accounting forced on, from fewer kernel events."""
    runs = []
    for forced in (False, True):
        cluster = build(None)
        if forced:
            cluster.transfers.enable_chaos()
        engine = ChaosEngine(cluster, detection_delay_s=1.0)

        def scenario(cluster, ledger):
            engine.apply(ChaosPlan(events))
            _submit(cluster, ledger)

        observed = _observed_run(cluster, scenario)
        joules = repr(cluster.energy_joules(0.0, cluster.env.now))
        runs.append((observed, joules, engine.injected, cluster))
    (off, off_j, off_n, off_cluster), (on, on_j, on_n, on_cluster) = runs
    assert not off_cluster.transfers.chaos_enabled
    assert off_n == on_n > 0
    for index, (a, b) in enumerate(zip(off, on)):
        assert a == b, f"diverged by checkpoint {index}"
    assert off_j == on_j
    assert off_cluster.env._sequence < on_cluster.env._sequence


def test_network_plans_switch_transfer_accounting_on():
    for kind in (ChaosKind.LINK_DOWN, ChaosKind.LINK_DEGRADE,
                 ChaosKind.SWITCH_OUTAGE):
        cluster = _microfaas()(None)
        ChaosEngine(cluster).apply(
            ChaosPlan((ChaosEvent(kind, 1.0, 0, 1.0, 0.05),))
        )
        assert cluster.transfers.chaos_enabled, kind


@pytest.mark.parametrize("build", [_microfaas(), _conventional(),
                                   _hybrid("energy-aware")])
def test_dvfs_mid_stretch(build):
    """Power caps applied and lifted mid-boot and mid-CPU-phase: later
    booked transitions draw the new wattage."""

    def scenario(cluster, ledger):
        caps = iter((1.4, 0.9, None))
        _at(cluster, (1.0, 3.3, 6.1),
            lambda: cluster.set_power_cap(next(caps)))
        _submit(cluster, ledger)

    _differential(build, scenario)


@pytest.mark.parametrize("build", [_microfaas(), _hybrid("least-loaded")])
def test_ledger_settles_mid_stretch(build):
    def scenario(cluster, ledger):
        _at(cluster, (1.2, 2.9, 4.44, 7.0),
            lambda: ledger.settle(cluster.env.now))
        _submit(cluster, ledger)

    _differential(build, scenario)


def test_warm_pool_resizes_read_boot_mid_stretch():
    """Proactive resizes leave a board alone while it reads BOOT and
    pre-boot or power off idle ones; warm boards pre-boot after jobs."""
    log = []

    def scenario(cluster, ledger):
        pool = WarmPool(cluster, size=1)
        sizes = iter((3, 0, 2, 1))

        def resize():
            log.append([sbc.state for sbc in cluster.sbcs])
            pool.set_size(next(sizes), proactive=True)

        _at(cluster, (0.5, 1.8, 3.05, 6.2), resize)
        _submit(cluster, ledger)

    _differential(_microfaas(workers=4), scenario)
    half = len(log) // 2
    assert log[:half] == log[half:]
    assert PowerState.BOOT in log[0]


@pytest.mark.parametrize("policy", ["energy-aware", "packing"])
def test_policies_reading_state_mid_stretch(policy):
    """Arrivals every second are placed while earlier jobs' timelines
    are booked; packing reads every board's power state to do it."""

    def scenario(cluster, ledger):
        cluster.env.process(cluster.orchestrator.paper_arrival_process(
            list(BATCH), 3, 30
        ))

    _differential(_hybrid(policy), scenario)


def test_uncontended_vm_host_books_and_oversubscribed_host_does_not():
    """Six VMs on twelve cores book each invocation; a host with more
    VMs than cores keeps the per-quantum loop, traced or not."""
    events = {}
    for vms in (6, 14):
        per_trace = []
        for trace in (TraceConfig(sample_rate=1.0), None):
            cluster = _conventional(vms)(trace)
            _submit(cluster, None)
            cluster.env.run()
            per_trace.append(cluster.env._sequence)
        events[vms] = per_trace
    assert events[6][1] < events[6][0] / 2
    assert events[14][1] > events[14][0] / 2
    _differential(_conventional(14), _submit)
