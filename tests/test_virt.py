"""Unit tests for the virtualization substrate."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.hardware import RackServer, THINKMATE_RAX
from repro.hardware.specs import dvfs_curve_for
from repro.sim import Environment
from repro.sim.kernel import Interrupt, SimulationError
from repro.virt import (
    Hypervisor,
    MicroVm,
    MicroVmSpec,
    VirtualizationOverhead,
    VmState,
    max_vms_for_host,
)


def make_host(env, quantum_s=0.1, overhead=None):
    server = RackServer(lambda: env.now, THINKMATE_RAX)
    hypervisor = Hypervisor(
        env, server,
        overhead=overhead or VirtualizationOverhead(),
        quantum_s=quantum_s,
    )
    return server, hypervisor


# ---------------------------------------------------------------------------
# Overhead / placement
# ---------------------------------------------------------------------------


def test_overhead_validation():
    with pytest.raises(ValueError):
        VirtualizationOverhead(context_switch_s=-1.0)
    with pytest.raises(ValueError):
        VirtualizationOverhead(cpu_multiplier=0.9)
    with pytest.raises(ValueError):
        VirtualizationOverhead(vm_ram_bytes=0)


def test_max_vms_for_evaluation_host():
    """16 GB host, 2 GB reserved, 560 MB per VM => 25 VMs."""
    assert max_vms_for_host(THINKMATE_RAX) == 25


def test_max_vms_scales_with_vm_size():
    small = VirtualizationOverhead(vm_ram_bytes=256 * 1024**2)
    assert max_vms_for_host(THINKMATE_RAX, small) > max_vms_for_host(
        THINKMATE_RAX
    )


def test_vm_spec_validation():
    with pytest.raises(ValueError):
        MicroVmSpec(vcpus=2)
    with pytest.raises(ValueError):
        MicroVmSpec(ram_bytes=0)


# ---------------------------------------------------------------------------
# Hypervisor scheduling
# ---------------------------------------------------------------------------


def test_hypervisor_quantum_validation():
    env = Environment()
    server = RackServer(lambda: env.now, THINKMATE_RAX)
    with pytest.raises(ValueError):
        Hypervisor(env, server, quantum_s=0.0)


def test_consume_cpu_takes_requested_time_uncontended():
    env = Environment()
    _server, hypervisor = make_host(env)
    done = []

    def guest():
        yield from hypervisor.consume_cpu(0.5)
        done.append(env.now)

    env.process(guest())
    env.run()
    # 5 quanta of 0.1 s plus 5 context switches of 50 us.
    assert done[0] == pytest.approx(0.5 + 5 * 50e-6)
    assert hypervisor.cpu_seconds_executed == pytest.approx(0.5)


def test_consume_cpu_rejects_negative():
    env = Environment()
    _server, hypervisor = make_host(env)

    def guest():
        yield from hypervisor.consume_cpu(-1.0)

    env.process(guest())
    with pytest.raises(ValueError):
        env.run()


def test_no_contention_below_core_count():
    """12 guests on 12 cores all finish in one burst time."""
    env = Environment()
    _server, hypervisor = make_host(env)
    finish = []

    def guest():
        yield from hypervisor.consume_cpu(1.0)
        finish.append(env.now)

    for _ in range(12):
        env.process(guest())
    env.run()
    assert max(finish) == pytest.approx(1.0 + 10 * 50e-6, rel=1e-3)


def test_oversubscription_stretches_completion():
    """24 guests on 12 cores take ~2x as long."""
    env = Environment()
    _server, hypervisor = make_host(env)
    finish = []

    def guest():
        yield from hypervisor.consume_cpu(1.0)
        finish.append(env.now)

    for _ in range(24):
        env.process(guest())
    env.run()
    assert max(finish) == pytest.approx(2.0, rel=0.02)


def test_quanta_interleave_fairly():
    """With 2x oversubscription, everyone finishes at about the same
    time (round-robin via quanta), not FIFO burst order."""
    env = Environment()
    _server, hypervisor = make_host(env, quantum_s=0.05)
    finish = []

    def guest(gid):
        yield from hypervisor.consume_cpu(0.5)
        finish.append((gid, env.now))

    for gid in range(24):
        env.process(guest(gid))
    env.run()
    times = [t for _, t in finish]
    assert max(times) - min(times) < 0.2 * max(times)


def test_busy_cores_reported_to_server_power():
    env = Environment()
    server, hypervisor = make_host(env)

    def guest():
        yield from hypervisor.consume_cpu(1.0)

    for _ in range(6):
        env.process(guest())
    env.run(until=0.05)
    assert server.busy_cores == 6
    assert server.watts > server.spec.idle_watts
    env.run()
    assert server.busy_cores == 0
    assert server.watts == pytest.approx(server.spec.idle_watts)


def test_register_vm_enforces_ram_limit():
    env = Environment()
    _server, hypervisor = make_host(env)
    limit = hypervisor.max_vms()
    for _ in range(limit):
        hypervisor.register_vm()
    with pytest.raises(RuntimeError, match="RAM exhausted"):
        hypervisor.register_vm()
    hypervisor.unregister_vm()
    hypervisor.register_vm()  # now fits again


def test_unregister_without_vms_rejected():
    env = Environment()
    _server, hypervisor = make_host(env)
    with pytest.raises(RuntimeError):
        hypervisor.unregister_vm()


# ---------------------------------------------------------------------------
# MicroVm lifecycle
# ---------------------------------------------------------------------------


def test_vm_boot_takes_published_time():
    env = Environment()
    _server, hypervisor = make_host(env)
    vm = MicroVm(env, hypervisor)
    done = []

    def proc():
        yield from vm.boot()
        done.append(env.now)

    env.process(proc())
    env.run()
    assert vm.state is VmState.IDLE
    assert vm.boot_count == 1
    # 0.96 s wall boot plus a few context switches.
    assert done[0] == pytest.approx(0.96, abs=0.01)


def test_vm_execute_runs_phases():
    env = Environment()
    _server, hypervisor = make_host(env)
    vm = MicroVm(env, hypervisor)
    done = []

    def proc():
        yield from vm.boot()
        start = env.now
        yield from vm.execute(cpu_s=0.3, io_s=0.2)
        done.append(env.now - start)

    env.process(proc())
    env.run()
    assert vm.jobs_completed == 1
    assert done[0] == pytest.approx(0.5, abs=0.01)


def test_vm_execute_requires_idle():
    env = Environment()
    _server, hypervisor = make_host(env)
    vm = MicroVm(env, hypervisor)

    def proc():
        yield from vm.execute(0.1, 0.1)  # never booted

    env.process(proc())
    with pytest.raises(RuntimeError):
        env.run()


def test_vm_execute_validates_phases():
    env = Environment()
    _server, hypervisor = make_host(env)
    vm = MicroVm(env, hypervisor)

    def proc():
        yield from vm.boot()
        yield from vm.execute(-0.1, 0.0)

    env.process(proc())
    with pytest.raises(ValueError):
        env.run()


def test_vm_double_boot_rejected():
    env = Environment()
    _server, hypervisor = make_host(env)
    vm = MicroVm(env, hypervisor)

    def proc():
        yield from vm.boot()

    p = env.process(proc())
    env.run(until=0.01)
    with pytest.raises(RuntimeError):
        next(vm.boot())
    env.run()


def test_vm_shutdown_releases_ram():
    env = Environment()
    _server, hypervisor = make_host(env)
    vm = MicroVm(env, hypervisor)

    def proc():
        yield from vm.boot()

    env.process(proc())
    env.run()
    assert hypervisor.vm_count == 1
    vm.shutdown()
    assert vm.state is VmState.STOPPED
    assert hypervisor.vm_count == 0
    with pytest.raises(RuntimeError):
        vm.shutdown()


def test_many_vms_boot_concurrently():
    env = Environment()
    _server, hypervisor = make_host(env)
    vms = [MicroVm(env, hypervisor, vm_id=i) for i in range(12)]

    def proc(vm):
        yield from vm.boot()

    for vm in vms:
        env.process(proc(vm))
    env.run()
    assert all(vm.state is VmState.IDLE for vm in vms)
    # 12 boots on 12 cores: no serious contention.
    assert env.now < 1.2


# ---------------------------------------------------------------------------
# Fused bursts: a host whose registered VMs fit its cores runs each burst
# as one wait; a host with no registered VMs runs the per-quantum loop.
# Both must produce the same floats bit for bit.
# ---------------------------------------------------------------------------

SWITCH_S = VirtualizationOverhead().context_switch_s


def _guest(env, hypervisor, log, gid, start, bursts):
    if start:
        yield env.timeout_at(start)
    for cpu_s in bursts:
        yield from hypervisor.consume_cpu(cpu_s)
        log.append((gid, env.now))


def _observe(server, hypervisor, log):
    return (
        list(log),
        server.trace.change_points,
        hypervisor.context_switches,
        hypervisor.cpu_seconds_executed,
    )


def _differential(scenario, vms=6, checkpoints=(), overhead=None):
    """Run ``scenario(env, server, hypervisor, log)`` on a host with
    ``vms`` registered VMs and on one with none, observing both at each
    checkpoint and at the end; returns the kernel events each scheduled.
    """
    runs = []
    for registered in (vms, 0):
        env = Environment()
        server, hypervisor = make_host(env, overhead=overhead)
        for _ in range(registered):
            hypervisor.register_vm()
        log = []
        scenario(env, server, hypervisor, log)
        observed = []
        for until in checkpoints:
            env.run(until=until)
            observed.append(_observe(server, hypervisor, log))
        env.run()
        observed.append(_observe(server, hypervisor, log))
        assert not hypervisor._cursors
        assert hypervisor.busy_cores == 0
        runs.append((observed, env._sequence))
    (fused, fused_events), (quanta, quanta_events) = runs
    assert fused == quanta
    return fused_events, quanta_events


def test_fused_bursts_six_guests_at_one_instant():
    bursts = [(0.73, 0.2), (1.234,), (0.05, 0.95), (0.3, 0.3, 0.3),
              (2.01,), (0.999,)]

    def scenario(env, _server, hypervisor, log):
        for gid, guest_bursts in enumerate(bursts):
            env.process(_guest(env, hypervisor, log, gid, 0.0, guest_bursts))

    fused_events, quanta_events = _differential(
        scenario, checkpoints=(0.55, 1.0)
    )
    assert fused_events < quanta_events / 3


def test_fused_bursts_staggered_starts():
    starts = (0.0, 0.017, 0.25, 0.3331, 0.61, 1.2)
    bursts = [(0.4, 1.1), (0.77,), (1.5, 0.02), (0.333,), (0.9, 0.9),
              (0.123, 0.456)]
    overhead = VirtualizationOverhead(cpu_multiplier=1.07)

    def scenario(env, _server, hypervisor, log):
        for gid, (start, guest_bursts) in enumerate(zip(starts, bursts)):
            env.process(
                _guest(env, hypervisor, log, gid, start, guest_bursts)
            )

    fused_events, quanta_events = _differential(
        scenario, checkpoints=(0.3, 0.7, 1.9), overhead=overhead
    )
    assert fused_events < quanta_events


def test_fused_burst_start_coincides_with_another_burst_end():
    boundary = 0.0 + (0.1 + SWITCH_S)

    def scenario(env, _server, hypervisor, log):
        ended = env.event()

        def first():
            yield from hypervisor.consume_cpu(0.35)
            log.append(("first", env.now))
            ended.succeed()
            # Back-to-back: a new burst at the instant this one ended.
            yield from hypervisor.consume_cpu(0.21)
            log.append(("first", env.now))

        def follower():
            yield ended
            yield from hypervisor.consume_cpu(0.42)
            log.append(("follower", env.now))

        env.process(first())
        env.process(follower())
        # Starts exactly on the first guest's first quantum boundary.
        env.process(_guest(env, hypervisor, log, "on-boundary", boundary,
                           (0.5,)))

    _differential(scenario, checkpoints=(boundary, 0.36))


def test_fused_bursts_survive_dvfs_mid_burst():
    steps = dvfs_curve_for(THINKMATE_RAX).steps
    on_boundary = (0.0 + (0.1 + SWITCH_S)) + (0.1 + SWITCH_S)

    def scenario(env, server, hypervisor, log):
        def governor():
            yield env.timeout_at(on_boundary)
            server.apply_dvfs(steps[1])
            yield env.timeout_at(0.81)
            server.apply_dvfs(steps[2])
            yield env.timeout_at(1.33)
            server.clear_dvfs()

        # The governor's first wait is scheduled before any quantum's, so
        # it fires before the quantum boundary it coincides with.
        env.process(governor())
        for gid, guest_bursts in enumerate([(1.7,), (0.6, 0.6), (0.25,)]):
            env.process(_guest(env, hypervisor, log, gid, 0.0, guest_bursts))
        env.process(_guest(env, hypervisor, log, 3, 0.5, (0.3,)))

    _differential(scenario, checkpoints=(on_boundary, 0.9))


def test_fused_burst_interrupted_mid_burst():
    def scenario(env, _server, hypervisor, log):
        def victim():
            try:
                yield from hypervisor.consume_cpu(1.5)
            except Interrupt:
                log.append(("interrupted", env.now, hypervisor.busy_cores))
            # The core came back: a fresh burst runs at once.
            yield from hypervisor.consume_cpu(0.25)
            log.append(("victim", env.now))

        process = env.process(victim())

        def killer():
            yield env.timeout_at(0.433)
            process.interrupt("chaos")

        env.process(killer())
        for gid in range(3):
            env.process(_guest(env, hypervisor, log, gid, 0.1, (1.2,)))

    _differential(scenario, checkpoints=(0.433, 0.5))


def test_oversubscribed_host_keeps_the_per_quantum_loop():
    """18 VMs on 12 cores can contend: their bursts keep one kernel
    event per quantum, so both hosts schedule the same events."""

    def scenario(env, _server, hypervisor, log):
        for gid in range(18):
            env.process(_guest(env, hypervisor, log, gid, 0.01 * gid,
                               (0.5 + 0.05 * gid,)))

    fused_events, quanta_events = _differential(
        scenario, vms=18, checkpoints=(0.3,)
    )
    assert fused_events == quanta_events


def test_fused_burst_self_check_rejects_contention():
    """One registered VM must run one burst at a time; 13 concurrent
    bursts on 12 cores would queue, so the fused path refuses them."""
    env = Environment()
    _server, hypervisor = make_host(env)
    hypervisor.register_vm()
    for gid in range(13):
        env.process(_guest(env, hypervisor, [], gid, 0.0, (0.5,)))
    with pytest.raises(SimulationError, match="must wait"):
        env.run()


def test_refused_burst_is_dropped_with_its_error():
    """The refused claim leaves the booked heap as it raises: closing
    the bursts still suspended writes their ends without raising."""
    env = Environment()
    _server, hypervisor = make_host(env)
    hypervisor.register_vm()
    processes = [env.process(_guest(env, hypervisor, [], gid, 0.0, (0.5,)))
                 for gid in range(13)]
    with pytest.raises(SimulationError, match="must wait"):
        env.run()
    assert len(hypervisor._cursors) == 12
    for process in processes:
        process._generator.close()
    assert not hypervisor._cursors
    assert hypervisor.busy_cores == 0


def test_per_quantum_request_waiting_behind_fused_bursts_rejected():
    """A VM registered past the core count takes the per-quantum path;
    if its request queues behind fused bursts, the run stops."""
    env = Environment()
    _server, hypervisor = make_host(env)
    for _ in range(12):
        hypervisor.register_vm()
    for gid in range(12):
        env.process(_guest(env, hypervisor, [], gid, 0.0, (1.0,)))

    def late_vm():
        yield env.timeout(0.5)
        hypervisor.register_vm()
        yield from hypervisor.consume_cpu(0.5)

    env.process(late_vm())
    with pytest.raises(SimulationError, match="must wait"):
        env.run()


# ---------------------------------------------------------------------------
# Cursor-booked bursts == the per-quantum loop, on drawn scenarios
# ---------------------------------------------------------------------------


def _grid(steps, start=0.0):
    """The instant ``steps`` full quanta after ``start``, chained as a
    burst's boundaries are, so drawn instants coincide with them."""
    t = start
    for _ in range(steps):
        t = t + (0.1 + SWITCH_S)
    return t


#: A drawn instant: a quantum boundary of a burst starting at 0 (every
#: guest starting on the grid shares them) or anywhere.
INSTANTS = st.one_of(st.integers(0, 12).map(_grid), st.floats(0.0, 1.5))

#: A drawn burst: whole tenths of a second end on (or, through rounding,
#: right at) the grid their quanta chain from, so bursts that start
#: together release at another burst's dip; other lengths end anywhere.
BURSTS = st.lists(
    st.one_of(st.integers(1, 8).map(lambda tenths: tenths / 10),
              st.floats(0.0, 0.8)),
    min_size=1, max_size=3,
)

GUESTS = st.lists(st.tuples(INSTANTS, BURSTS), min_size=2, max_size=6)


def _writes(start, cpu_s, multiplier):
    """``(instant, CPU seconds added)`` of each quantum boundary a burst
    from ``start`` writes: the quantum chain's own arithmetic."""
    remaining = cpu_s * multiplier
    t = start
    writes = []
    while remaining > 1e-12:
        slice_s = remaining if remaining < 0.1 else 0.1
        t = t + (slice_s + SWITCH_S)
        remaining -= slice_s
        writes.append((t, slice_s))
    return writes


def _observe_exact(server, hypervisor, log):
    return (
        list(log),
        server.trace.change_points,
        hypervisor.context_switches,
        repr(hypervisor.cpu_seconds_executed),
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(guests=GUESTS, multiplier=st.sampled_from([1.0, 1.07]),
       dvfs_at=st.one_of(st.none(), INSTANTS),
       victim=st.integers(0, 5), interrupt_at=st.one_of(
           st.none(), st.floats(0.01, 1.5)),
       # The power cut is drawn off the grid: a booked boundary at the
       # cut's instant is written before the cut, while the per-quantum
       # loop's boundary event may fire after it.
       off_at=st.one_of(st.none(), st.floats(0.01, 1.5)),
       on_after=st.one_of(st.none(), st.floats(0.01, 0.5)),
       checkpoint=st.floats(0.0, 2.0))
def test_cursor_bookings_match_the_per_quantum_loop(
    guests, multiplier, dvfs_at, victim, interrupt_at, off_at, on_after,
    checkpoint,
):
    """2–6 guests with drawn bursts, starting on shared quantum
    boundaries or anywhere, optionally with a DVFS step, one guest
    interrupted mid-run and the host powered off (and back on): a host
    whose registered VMs fit its cores books every burst, a host with
    none runs the per-quantum loop, and both leave the same trace
    points, context switches and executed CPU seconds, bit for bit, at
    a drawn checkpoint and at the end."""
    victim %= len(guests)
    starts = [start for start, _bursts in guests]
    if interrupt_at is not None:
        # An interrupt at a guest's own start instant races its first
        # core request on the per-quantum host; that race is not the
        # booking's to settle.
        assume(interrupt_at != starts[victim])
    # Likewise a power cut at a burst's start, or at the interrupt,
    # races the core claim or release there.
    assume(off_at not in starts and off_at != interrupt_at)
    step = dvfs_curve_for(THINKMATE_RAX).steps[1]
    overhead = VirtualizationOverhead(cpu_multiplier=multiplier)
    runs = []
    for registered in (len(guests), 0):
        env = Environment()
        server, hypervisor = make_host(env, overhead=overhead)
        for _ in range(registered):
            hypervisor.register_vm()
        log = []

        def guest(gid, start, bursts):
            if start:
                yield env.timeout_at(start)
            for cpu_s in bursts:
                try:
                    yield from hypervisor.consume_cpu(cpu_s)
                except Interrupt:
                    log.append((gid, "interrupted", env.now))
                    continue
                log.append((gid, env.now))

        processes = [env.process(guest(gid, start, bursts))
                     for gid, (start, bursts) in enumerate(guests)]

        def operator():
            events = []
            if dvfs_at is not None:
                events.append((dvfs_at, 0))
            if interrupt_at is not None:
                events.append((interrupt_at, 1))
            if off_at is not None:
                events.append((off_at, 2))
                if on_after is not None:
                    events.append((off_at + on_after, 3))
            for at, kind in sorted(events):
                yield env.timeout_at(max(at, env.now))
                if kind == 0:
                    server.apply_dvfs(step)
                elif kind == 1:
                    if processes[victim].is_alive:
                        processes[victim].interrupt("chaos")
                elif kind == 2:
                    server.power_off()
                else:
                    server.power_on()

        env.process(operator())
        env.run(until=checkpoint)
        observed = [_observe_exact(server, hypervisor, log)]
        env.run()
        observed.append(_observe_exact(server, hypervisor, log))
        assert not hypervisor._cursors
        runs.append(observed)
    # Two known differences of booking from the per-quantum loop, both
    # at exact float coincidences of two bursts' instants, are left out:
    # - a core handed from one guest to another within an instant leaves
    #   a split point when booked (release, then claim) that the loop,
    #   whose claim event comes first, does not leave;
    # - booking order breaks ties, while the loop's boundary that fires
    #   first is the one whose quantum was scheduled first; the order of
    #   two different CPU-second additions then differs in the last bit.
    ends = {}
    for gid, *rest in log:
        ends.setdefault(rest[-1], set()).add(gid)
    starts_of = {gid: [start] for gid, (start, _bursts) in enumerate(guests)}
    for gid, *rest in log:
        starts_of[gid].append(rest[-1])
    assume(not any(ends.get(t, set()) - {gid}
                   for gid, times in starts_of.items() for t in times))
    added = {}
    for gid, (_start, bursts) in enumerate(guests):
        for start, cpu_s in zip(starts_of[gid], bursts):
            for t, slice_s in _writes(start, cpu_s, multiplier):
                added.setdefault(t, set()).add((start, slice_s))
    assume(all(len({start for start, _ in writes}) == 1
               or len({slice_s for _, slice_s in writes}) == 1
               for writes in added.values()))
    assert runs[0] == runs[1]
