"""Booked invocation timelines against the per-phase oracle.

An SBC job, and a VM job on an uncontended host, books its whole power
timeline at the claim and waits once, traced or not; under network
chaos it does so unless an announced link or switch change touches its
window.  Patching ``_bookable`` to False on the worker classes forces
the per-phase oracle: one wait per phase.  Each test runs one scenario
three times — forced per-phase and traced, booked and traced, booked
and untraced — and compares, with ``==`` at checkpoints inside the
booked stretches and at the end: the invocation records, every board's
state, change points and time-in-state, the host trace and hypervisor
counters, the energy ledger's bills and a power meter's samples.  The
two traced runs must also export the same span trees once span ids,
numbered in write order, are relabelled, and each export must pass
``validate_chrome_trace``.  Crashes, network faults, DVFS steps, ledger
settles, warm-pool resizes and policies reading board state all land
mid-stretch.
"""

import contextlib

import pytest

from repro.cluster import ConventionalCluster, MicroFaaSCluster
from repro.cluster.hybrid import HybridCluster
from repro.cluster.vmworker import VmWorker
from repro.cluster.worker import SbcWorker
from repro.core.scheduler import make_policy
from repro.core.warmpool import WarmPool
from repro.hardware.power import PowerState
from repro.obs import trace as obs
from repro.obs.export import validate_chrome_trace
from repro.obs.trace import TraceConfig
from repro.reliability.chaos import (
    ChaosEngine,
    ChaosEvent,
    ChaosKind,
    ChaosPlan,
)
from repro.services.backend import BackendCapacityModel
from tests.power_meter import PowerMeter, metered_watts
from tests.test_obs_trace import relabelled_chrome_trace

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
    meter = PowerMeter(
        cluster.env, lambda: metered_watts(cluster), interval_s=0.37
    )
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


@contextlib.contextmanager
def _per_phase():
    """Force the per-phase oracle: no worker books a timeline."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SbcWorker, "_bookable", False)
        patch.setattr(VmWorker, "_bookable", False)
        yield


def _span_document(cluster):
    """The run's relabelled Chrome trace, after checking its schema."""
    document = {"traceEvents": relabelled_chrome_trace(
        cluster.finished_traces()
    )}
    assert validate_chrome_trace(document) == []
    return document


def _differential(build, scenario, checkpoints=CHECKPOINTS):
    """Run ``scenario(cluster, ledger)`` forced per-phase and traced,
    booked and traced, and booked and untraced; assert all three
    observed the same floats and both traced runs the same span trees.
    Returns the clusters, keyed ``forced``, ``traced`` and
    ``untraced``."""
    runs = {}
    for name, trace in (("forced", TraceConfig(sample_rate=1.0)),
                        ("traced", TraceConfig(sample_rate=1.0)),
                        ("untraced", None)):
        with _per_phase() if name == "forced" else contextlib.nullcontext():
            cluster = build(trace)
            runs[name] = (_observed_run(cluster, scenario, checkpoints),
                          cluster)
    forced, _ = runs["forced"]
    for name in ("traced", "untraced"):
        observed, _ = runs[name]
        for index, (a, b) in enumerate(zip(forced, observed)):
            assert a == b, f"{name} diverged by checkpoint {index}"
    assert (_span_document(runs["forced"][1])
            == _span_document(runs["traced"][1]))
    return {name: cluster for name, (_, cluster) in runs.items()}


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


def test_traced_jobs_book_too():
    """Traced or not, a job books: both runs schedule the same kernel
    events, far fewer than the forced per-phase run for the same
    floats."""
    events = []
    for forced, trace in ((True, TraceConfig(sample_rate=1.0)),
                          (False, TraceConfig(sample_rate=1.0)),
                          (False, None)):
        with _per_phase() if forced else contextlib.nullcontext():
            cluster = _microfaas()(trace)
            _submit(cluster, None)
            cluster.env.run()
        events.append(cluster.env._sequence)
    forced, traced, untraced = events
    assert traced == untraced
    assert traced < forced / 2
    _differential(_microfaas(), _submit)


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

    cluster = _differential(_microfaas(), scenario)["untraced"]
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
    accounting forced on and the per-phase path forced, from fewer
    kernel events."""
    runs = []
    for forced in (False, True):
        with _per_phase() if forced else contextlib.nullcontext():
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
    third = len(log) // 3
    assert log[:third] == log[third:2 * third] == log[2 * third:]
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
    """Six VMs on twelve cores book each invocation, traced or not; a
    host with more VMs than cores keeps the per-quantum loop."""
    events = {}
    for vms in (6, 14):
        per_run = []
        for forced in (True, False):
            with _per_phase() if forced else contextlib.nullcontext():
                cluster = _conventional(vms)(TraceConfig(sample_rate=1.0))
                _submit(cluster, None)
                cluster.env.run()
            per_run.append(cluster.env._sequence)
        events[vms] = per_run
    assert events[6][1] < events[6][0] / 2
    assert events[14][1] > events[14][0] / 2
    _differential(_conventional(14), _submit)


# -- network chaos ----------------------------------------------------------------------
#
# Instants of the three-board BATCH run (no faults): worker 0 boots its
# first job to 1.51 and reaches 6.736193553405797 at its second job's
# boot end; worker 1 ends its first inbound transfer at
# 1.5382577777777777 and its first job at 4.507603371758012, where its
# second is claimed; worker 2 claims its second job at
# 3.7791080811327578, where its first ends.  Each fault below touches
# only the timeline it names, so the instants hold in the faulted runs.


def _network(kind, at, target, duration_s, magnitude=0.05):
    return ChaosEvent(kind, at, target, duration_s, magnitude)


def _chaos_scenario(events, waves=((0.0, BATCH),)):
    def scenario(cluster, ledger):
        ChaosEngine(cluster, detection_delay_s=1.0).apply(ChaosPlan(events))
        for at, batch in waves:
            _at(cluster, (at,),
                lambda batch=batch: cluster.orchestrator.submit_batch(batch))

    return scenario


def _fault_spans(cluster):
    """Transfer spans that paid a network fault."""
    return [
        span for trace in cluster.finished_traces() for span in trace.spans
        if span.name in (obs.INPUT_TRANSFER, obs.RESULT_TRANSFER)
        and span.attrs["fault_s"] > 0
    ]


def _booked_fewer_events(clusters):
    assert (clusters["traced"].env._sequence
            == clusters["untraced"].env._sequence
            < clusters["forced"].env._sequence)


@pytest.mark.parametrize("build", [_microfaas(), _hybrid("least-loaded")],
                         ids=["microfaas", "hybrid"])
def test_network_faults_inside_job_windows(build):
    """A link drop, a degrade and a switch outage inside running jobs'
    windows: those jobs wait per phase, the others book.  In the hybrid
    cluster a VM's link degrades too (a board-only cluster has no
    worker 3 and skips it)."""
    clusters = _differential(build, _chaos_scenario((
        _network(ChaosKind.LINK_DEGRADE, 1.0, 1, 4.0, 0.3),
        _network(ChaosKind.LINK_DOWN, 2.0, 0, 4.0),
        _network(ChaosKind.LINK_DEGRADE, 2.5, 3, 3.0, 0.2),
        _network(ChaosKind.SWITCH_OUTAGE, 3.0, 0, 2.5),
    )))
    assert clusters["traced"].transfers.chaos_enabled
    assert _fault_spans(clusters["traced"])
    _booked_fewer_events(clusters)


@pytest.mark.parametrize("build", [_microfaas(), _hybrid("least-loaded")],
                         ids=["microfaas", "hybrid"])
def test_network_faults_outside_every_window(build):
    """Faults that start between two waves and hold into the second:
    each job is priced at its transfers' starts and books (a VM's
    through the quanta its booking will walk)."""
    waves = ((0.0, BATCH[:6]), (30.0, BATCH[6:]))
    checkpoints = (1.6, 5.9, 30.77, 31.58, 33.3)

    def faults(shift_s):
        return _chaos_scenario((
            _network(ChaosKind.LINK_DOWN, 26.0 + shift_s, 0, 5.6),
            _network(ChaosKind.LINK_DEGRADE, 27.0 + shift_s, 1, 40.0, 0.3),
            _network(ChaosKind.LINK_DOWN, 27.5 + shift_s, 3, 4.0),
            _network(ChaosKind.SWITCH_OUTAGE, 28.0 + shift_s, 0, 3.6),
        ), waves)

    clusters = _differential(build, faults(0.0), checkpoints)
    assert _fault_spans(clusters["traced"])
    # Every job booked: as many kernel events as with the same faults
    # after the last job.
    late = build(TraceConfig(sample_rate=1.0))
    _observed_run(late, faults(1000.0), checkpoints)
    assert not _fault_spans(late)
    assert clusters["traced"].env._sequence == late.env._sequence
    assert clusters["forced"].env._sequence > late.env._sequence


def test_network_faults_at_claims_and_phase_ends():
    """Faults at a claim instant, at a job's end and at phase ends: the
    closed window [claim, end] catches each, so those jobs wait per
    phase."""
    clusters = _differential(_microfaas(), _chaos_scenario((
        _network(ChaosKind.LINK_DOWN, 1.5382577777777777, 1, 0.5),
        _network(ChaosKind.LINK_DEGRADE, 3.7791080811327578, 2, 0.2, 0.3),
        _network(ChaosKind.LINK_DOWN, 4.507603371758012, 1, 0.3),
        _network(ChaosKind.SWITCH_OUTAGE, 6.736193553405797, 0, 0.01),
    )))
    spans = _fault_spans(clusters["traced"])
    assert [span.start_s for span in spans] == [6.736193553405797]
    _booked_fewer_events(clusters)


#: A degrade after every job turns fault accounting on without touching
#: any window, so the crashed jobs are booked ones.
_ACCOUNTING_ON = _network(ChaosKind.LINK_DEGRADE, 400.0, 2, 1.0, 0.3)


@pytest.mark.parametrize("worker,crash_s", [
    pytest.param(0, 3.0, id="mid-execute"),
    pytest.param(0, 1.51, id="at-boot-end"),
    pytest.param(1, 1.5382577777777777, id="at-inbound-end"),
])
def test_crash_of_booked_job_under_network_chaos(worker, crash_s):
    """A crash cuts a booked timeline: only the phases that ended before
    the crash instant get spans, as on the per-phase path, where the
    crash's event precedes a phase end at the same instant."""
    clusters = _differential(_microfaas(), _chaos_scenario((
        ChaosEvent(ChaosKind.WORKER_CRASH, crash_s, worker, 2.0),
        _ACCOUNTING_ON,
    )))
    cluster = clusters["traced"]
    assert cluster.transfers.chaos_enabled
    assert cluster.orchestrator.resubmissions > 0
    _booked_fewer_events(clusters)
