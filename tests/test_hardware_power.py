"""Unit and property tests for power traces and power models."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.hardware.power import (
    PowerState,
    PowerStateMachine,
    PowerTrace,
    UtilizationPowerModel,
)
from repro.hardware.rackserver import RackServer
from repro.hardware.specs import THINKMATE_RAX


# ---------------------------------------------------------------------------
# PowerTrace
# ---------------------------------------------------------------------------


def test_trace_initial_power():
    trace = PowerTrace(initial_time=0.0, initial_watts=5.0)
    assert trace.power_at(0.0) == 5.0
    assert trace.power_at(100.0) == 5.0


def test_trace_power_before_start_is_zero():
    trace = PowerTrace(initial_time=10.0, initial_watts=5.0)
    assert trace.power_at(9.999) == 0.0


def test_trace_records_step_changes():
    trace = PowerTrace(0.0, 1.0)
    trace.record(2.0, 3.0)
    assert trace.power_at(1.999) == 1.0
    assert trace.power_at(2.0) == 3.0


def test_trace_rejects_negative_power():
    trace = PowerTrace(0.0, 1.0)
    with pytest.raises(ValueError):
        trace.record(1.0, -0.5)
    with pytest.raises(ValueError):
        PowerTrace(0.0, -1.0)


def test_trace_rejects_time_going_backwards():
    trace = PowerTrace(0.0, 1.0)
    trace.record(5.0, 2.0)
    with pytest.raises(ValueError):
        trace.record(4.0, 3.0)


def test_trace_same_time_overwrites():
    trace = PowerTrace(0.0, 1.0)
    trace.record(5.0, 2.0)
    trace.record(5.0, 7.0)
    assert trace.power_at(5.0) == 7.0
    assert len(trace) == 2


def test_trace_dedupes_equal_power():
    trace = PowerTrace(0.0, 1.0)
    trace.record(1.0, 1.0)
    trace.record(2.0, 1.0)
    assert len(trace) == 1


def test_trace_energy_constant_power():
    trace = PowerTrace(0.0, 10.0)
    assert trace.energy_joules(0.0, 5.0) == pytest.approx(50.0)


def test_trace_energy_step_function():
    trace = PowerTrace(0.0, 2.0)
    trace.record(10.0, 4.0)
    # 10 s at 2 W + 5 s at 4 W
    assert trace.energy_joules(0.0, 15.0) == pytest.approx(40.0)


def test_trace_energy_partial_window():
    trace = PowerTrace(0.0, 2.0)
    trace.record(10.0, 4.0)
    assert trace.energy_joules(5.0, 12.0) == pytest.approx(5 * 2 + 2 * 4)


def test_trace_energy_window_before_start():
    trace = PowerTrace(10.0, 5.0)
    assert trace.energy_joules(0.0, 10.0) == 0.0
    # Window straddling the start only counts the powered part.
    assert trace.energy_joules(5.0, 12.0) == pytest.approx(10.0)


def test_trace_energy_empty_window():
    trace = PowerTrace(0.0, 5.0)
    assert trace.energy_joules(3.0, 3.0) == 0.0


def test_trace_energy_invalid_window():
    trace = PowerTrace(0.0, 5.0)
    with pytest.raises(ValueError):
        trace.energy_joules(5.0, 3.0)


def test_trace_average_watts():
    trace = PowerTrace(0.0, 2.0)
    trace.record(5.0, 6.0)
    assert trace.average_watts(0.0, 10.0) == pytest.approx(4.0)


def test_trace_average_invalid_window():
    trace = PowerTrace(0.0, 2.0)
    with pytest.raises(ValueError):
        trace.average_watts(3.0, 3.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=100.0),
            st.floats(min_value=0.0, max_value=1000.0),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_trace_energy_additivity_property(segments):
    """Energy over [0, T] equals the sum over any split point."""
    trace = PowerTrace(0.0, 1.0)
    t = 0.0
    for dt, watts in segments:
        t += dt
        trace.record(t, watts)
    end = t + 1.0
    mid = end / 2
    total = trace.energy_joules(0.0, end)
    split = trace.energy_joules(0.0, mid) + trace.energy_joules(mid, end)
    assert total == pytest.approx(split, rel=1e-9, abs=1e-9)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=100.0),
            st.floats(min_value=0.0, max_value=1000.0),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_trace_energy_bounded_by_peak_property(segments):
    trace = PowerTrace(0.0, 1.0)
    t = 0.0
    peak = 1.0
    for dt, watts in segments:
        t += dt
        trace.record(t, watts)
        peak = max(peak, watts)
    end = t + 1.0
    energy = trace.energy_joules(0.0, end)
    assert 0.0 <= energy <= peak * end + 1e-6


def _shadow_record(points, time, watts):
    """What :meth:`PowerTrace.record` leaves, on a plain list."""
    if time == points[-1][0]:
        points[-1] = (time, watts)
    elif watts != points[-1][1]:
        points.append((time, watts))


def _reference_joules(points, start, end):
    """Left-to-right piecewise integral of ``points`` over the window."""
    total = 0.0
    for index, (time, watts) in enumerate(points):
        seg_start = max(time, start)
        seg_end = points[index + 1][0] if index + 1 < len(points) else end
        seg_end = min(seg_end, end)
        if seg_end > seg_start:
            total += watts * (seg_end - seg_start)
    return total


TRACE_WATTS = st.one_of(
    st.sampled_from([0.0, 1.5, 2.2]), st.floats(0.0, 500.0)
)
TRACE_WRITES = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
        TRACE_WATTS,
        TRACE_WATTS,
        st.booleans(),
    ),
    max_size=40,
)


@settings(max_examples=500)
@given(
    writes=TRACE_WRITES,
    max_points=st.one_of(st.none(), st.integers(2, 5)),
    windows=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=4
    ),
)
def test_trace_running_total_matches_reference_loop(
    writes, max_points, windows
):
    """Full-range energy is the running total, bit-identical to a
    left-to-right loop over every change point ever written, through
    same-instant overwrites, equal-watt no-ops, quantum dips and
    autocompaction; windowed queries still integrate, or raise where
    they reach into compacted points."""
    origin = 3.0
    trace = PowerTrace(origin, 2.2)
    if max_points is not None:
        trace.enable_autocompact(max_points)
    points = [(origin, 2.2)]
    t = origin
    for dt, watts, dip_watts, dip in writes:
        t += dt
        if dip:
            trace.record_dip(t, dip_watts, watts)
            _shadow_record(points, t, dip_watts)
        else:
            trace.record(t, watts)
        _shadow_record(points, t, watts)
    retained = trace.change_points
    assert retained == points[len(points) - len(retained):]
    assert max_points is not None or retained == points
    last = points[-1][0]
    for start in (origin, origin - 1.0):
        for end in (last, last + 0.75):
            if end > start:
                assert trace.energy_joules(start, end) == _reference_joules(
                    points, start, end
                )
    span = last + 1.0 - (origin - 1.0)
    for a, b in windows:
        start, end = sorted((origin - 1.0 + a * span, origin - 1.0 + b * span))
        if end == start:
            continue
        if len(retained) == len(points) or (
            start <= origin and end >= retained[0][0]
        ):
            assert trace.energy_joules(start, end) == _reference_joules(
                points, start, end
            )
        else:
            with pytest.raises(ValueError):
                trace.energy_joules(start, end)


def _requantum(server, time):
    """The dip as the hypervisor writes it: one ``record_dip`` of the
    pair ``requantum`` returns at the server's busy count."""
    server.trace.record_dip(time, *server.requantum(server._busy_cores))


def _two_record_requantum(server, time):
    """The dip as two trace writes: the busy count drops by one and
    returns within the instant."""
    busy = server._busy_cores
    server.trace.record(time, server._watts_for(busy - 1))
    server.trace.record(time, server._watts_for(busy))


@settings(max_examples=300)
@given(
    steps=st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
            st.integers(0, 12),
            st.booleans(),
        ),
        max_size=30,
    ),
    powered=st.booleans(),
)
def test_requantum_matches_two_record_dip(steps, powered):
    """A written dip leaves the change points and joules of the
    two-record dip, at the last point's instant and on a powered-off
    host too."""
    split, reference = (
        RackServer(lambda: 0.0, THINKMATE_RAX, powered_on=powered)
        for _ in range(2)
    )
    t = 0.0
    for dt, busy, requantum in steps:
        t += dt
        if requantum:
            _requantum(split, t)
            _two_record_requantum(reference, t)
        else:
            split.record_busy(t, busy)
            reference.record_busy(t, busy)
    assert split.trace.change_points == reference.trace.change_points
    assert split.trace.energy_joules(0.0, t + 1.0) == (
        reference.trace.energy_joules(0.0, t + 1.0)
    )


def test_requantum_writes_one_split_point():
    now = [0.0]
    server = RackServer(lambda: now[0], THINKMATE_RAX)
    server.record_busy(1.0, 3)
    points = [(0.0, THINKMATE_RAX.idle_watts), (1.0, server.watts)]
    _requantum(server, 1.0)  # at the last point's instant
    assert server.trace.change_points == points
    _requantum(server, 1.1)
    points.append((1.1, server.watts))
    assert server.trace.change_points == points
    now[0] = 2.0
    server.power_off()
    _requantum(server, 2.5)  # the dip draws the host's 0 W
    assert server.trace.change_points == points + [(2.0, 0.0)]


# ---------------------------------------------------------------------------
# PowerStateMachine
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


STATE_WATTS = {
    PowerState.OFF: 0.1,
    PowerState.BOOT: 2.0,
    PowerState.IDLE: 1.0,
    PowerState.CPU_BUSY: 2.5,
    PowerState.IO_WAIT: 1.2,
}


def test_psm_requires_all_states():
    clock = FakeClock()
    with pytest.raises(ValueError):
        PowerStateMachine(clock, {PowerState.OFF: 0.1})


def test_psm_tracks_state_and_watts():
    clock = FakeClock()
    psm = PowerStateMachine(clock, STATE_WATTS)
    assert psm.state is PowerState.OFF
    assert psm.watts == 0.1
    clock.t = 5.0
    psm.set_state(PowerState.BOOT)
    assert psm.watts == 2.0
    assert psm.trace.power_at(4.9) == 0.1
    assert psm.trace.power_at(5.0) == 2.0


def test_psm_time_in_state_accumulates():
    clock = FakeClock()
    psm = PowerStateMachine(clock, STATE_WATTS)
    clock.t = 4.0
    psm.set_state(PowerState.BOOT)
    clock.t = 6.0
    psm.set_state(PowerState.IDLE)
    clock.t = 10.0
    psm.set_state(PowerState.BOOT)
    clock.t = 11.0
    assert psm.time_in_state(PowerState.OFF) == pytest.approx(4.0)
    assert psm.time_in_state(PowerState.BOOT) == pytest.approx(3.0)
    assert psm.time_in_state(PowerState.IDLE) == pytest.approx(4.0)


def test_psm_energy_matches_states():
    clock = FakeClock()
    psm = PowerStateMachine(clock, STATE_WATTS)
    clock.t = 2.0
    psm.set_state(PowerState.BOOT)  # 2 s off at 0.1 W
    clock.t = 4.0
    psm.set_state(PowerState.CPU_BUSY)  # 2 s boot at 2.0 W
    clock.t = 6.0
    psm.set_state(PowerState.OFF)  # 2 s busy at 2.5 W
    energy = psm.trace.energy_joules(0.0, 6.0)
    assert energy == pytest.approx(2 * 0.1 + 2 * 2.0 + 2 * 2.5)


# ---------------------------------------------------------------------------
# UtilizationPowerModel
# ---------------------------------------------------------------------------


def test_upm_idle_and_loaded_endpoints():
    model = UtilizationPowerModel(60.0, 150.0, 0.547)
    assert model.watts(0.0) == 60.0
    assert model.watts(1.0) == pytest.approx(150.0)


def test_upm_clamps_utilization():
    model = UtilizationPowerModel(60.0, 150.0, 0.547)
    assert model.watts(-0.5) == 60.0
    assert model.watts(1.5) == pytest.approx(150.0)


def test_upm_is_concave_shape():
    """At 40 % utilization a conventional server burns well over 40 % of
    its dynamic range (the non-energy-proportionality the paper targets)."""
    model = UtilizationPowerModel(60.0, 150.0, 0.547)
    dynamic_at_40 = (model.watts(0.4) - 60.0) / 90.0
    assert dynamic_at_40 > 0.55


def test_upm_monotone_increasing():
    model = UtilizationPowerModel(60.0, 150.0, 0.547)
    values = [model.watts(u / 20) for u in range(21)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_upm_calibrated_six_vm_operating_point():
    """The paper's 6-VM point: 211.7 func/min at 32.0 J/func => 112.9 W.

    With the calibrated exponent, utilization 0.3785 (6 VMs x 1.287 CPU-s
    per 1.70 s cycle over 12 cores) must draw ~112.9 W.
    """
    model = UtilizationPowerModel(60.0, 150.0, 0.547)
    utilization = 6 * (1.287 / 1.70) / 12
    assert model.watts(utilization) == pytest.approx(112.9, abs=1.0)


def test_upm_dynamic_range():
    model = UtilizationPowerModel(60.0, 150.0, 0.547)
    # Barroso-Hoelzle dynamic range: (loaded - idle) / loaded.
    loaded = model.watts(1.0)
    assert (loaded - model.watts(0.0)) / loaded == pytest.approx(0.6)


def test_upm_validation():
    with pytest.raises(ValueError):
        UtilizationPowerModel(-1.0, 150.0, 0.5)
    with pytest.raises(ValueError):
        UtilizationPowerModel(60.0, 50.0, 0.5)
    with pytest.raises(ValueError):
        UtilizationPowerModel(60.0, 150.0, 0.0)
    with pytest.raises(ValueError):
        UtilizationPowerModel(60.0, 150.0, 1.5)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_upm_within_bounds_property(u):
    model = UtilizationPowerModel(60.0, 150.0, 0.547)
    assert 60.0 <= model.watts(u) <= 150.0 + 1e-9


# ---------------------------------------------------------------------------
# DVFS ladders and power caps
# ---------------------------------------------------------------------------


from repro.hardware.power import PowerCap
from repro.hardware.sbc import SingleBoardComputer
from repro.hardware.specs import (
    BEAGLEBONE_BLACK,
    DvfsCurve,
    DvfsStep,
    dvfs_curve_for,
)


LADDER = DvfsCurve(
    steps=(
        DvfsStep(1.0e9, 1.0, 1.0),
        DvfsStep(0.8e9, 0.8, 0.64),
        DvfsStep(0.6e9, 0.6, 0.36),
    )
)


def test_dvfs_step_validation():
    with pytest.raises(ValueError):
        DvfsStep(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DvfsStep(1e9, 1.5, 1.0)
    with pytest.raises(ValueError):
        DvfsStep(1e9, 1.0, 0.0)


def test_dvfs_curve_requires_fastest_first():
    with pytest.raises(ValueError):
        DvfsCurve(steps=())
    with pytest.raises(ValueError):
        DvfsCurve(steps=(DvfsStep(0.6e9, 0.6, 0.36), DvfsStep(1e9, 1.0, 1.0)))


def test_step_for_cap_picks_fastest_fitting_step():
    peak = 2.0
    assert LADDER.step_for_cap(5.0, peak) is LADDER.steps[0]
    assert LADDER.step_for_cap(1.5, peak) is LADDER.steps[1]
    assert LADDER.step_for_cap(0.9, peak) is LADDER.steps[2]


def test_step_for_cap_exact_boundary_fits():
    """A cap exactly equal to a step's scaled peak selects that step —
    the 1e-12 slack keeps float noise from tipping it down a rung."""
    peak = 2.0
    assert LADDER.step_for_cap(peak * 0.64, peak) is LADDER.steps[1]
    assert LADDER.step_for_cap(peak * 0.36, peak) is LADDER.steps[2]


def test_step_for_cap_falls_back_to_slowest():
    # A governor can throttle, not halt: an impossible cap yields the
    # slowest step rather than refusing.
    assert LADDER.step_for_cap(0.01, 2.0) is LADDER.steps[-1]


def test_step_for_cap_rejects_nonpositive_cap():
    with pytest.raises(ValueError):
        LADDER.step_for_cap(0.0, 2.0)


def test_power_cap_scopes():
    worker = PowerCap(1.5)
    assert worker.per_device_watts(8) == 1.5
    cluster = PowerCap(12.0, scope="cluster")
    assert cluster.per_device_watts(8) == 1.5
    with pytest.raises(ValueError):
        cluster.per_device_watts(0)
    with pytest.raises(ValueError):
        PowerCap(0.0)
    with pytest.raises(ValueError):
        PowerCap(1.0, scope="rack")


def test_power_cap_resolve_uses_per_device_share():
    cap = PowerCap(2.0 * 0.64 * 4, scope="cluster")
    step = cap.resolve(LADDER, peak_watts=2.0, device_count=4)
    assert step is LADDER.steps[1]


def test_psm_rescale_swaps_table_in_place():
    clock = FakeClock()
    psm = PowerStateMachine(clock, STATE_WATTS)
    clock.t = 1.0
    psm.set_state(PowerState.CPU_BUSY)
    clock.t = 3.0
    scaled = dict(STATE_WATTS)
    scaled[PowerState.CPU_BUSY] = 1.0
    psm.rescale(scaled)
    assert psm.state is PowerState.CPU_BUSY  # state survives the swap
    assert psm.watts == 1.0
    # 1 s off + 2 s busy at 2.5 W, then the cheaper table.
    clock.t = 5.0
    assert psm.trace.energy_joules(0.0, 5.0) == pytest.approx(
        1 * 0.1 + 2 * 2.5 + 2 * 1.0
    )


def test_psm_rescale_requires_all_states():
    clock = FakeClock()
    psm = PowerStateMachine(clock, STATE_WATTS)
    with pytest.raises(ValueError):
        psm.rescale({PowerState.OFF: 0.1})


def test_psm_rescale_at_state_boundary_instant():
    """A state change and a rescale at the same instant must leave the
    scaled draw in force — the trace's same-time overwrite keeps one
    change point and energy integrates against the final wattage."""
    clock = FakeClock()
    psm = PowerStateMachine(clock, STATE_WATTS)
    clock.t = 2.0
    psm.set_state(PowerState.CPU_BUSY)  # records (2.0, 2.5)
    scaled = dict(STATE_WATTS)
    scaled[PowerState.CPU_BUSY] = 1.5
    psm.rescale(scaled)  # records (2.0, 1.5): overwrite, not append
    assert psm.trace.power_at(2.0) == 1.5
    clock.t = 4.0
    assert psm.trace.energy_joules(0.0, 4.0) == pytest.approx(
        2 * 0.1 + 2 * 1.5
    )


def test_sbc_apply_dvfs_scales_only_active_states():
    clock = FakeClock()
    sbc = SingleBoardComputer(clock, BEAGLEBONE_BLACK)
    nominal = BEAGLEBONE_BLACK.power
    step = dvfs_curve_for(BEAGLEBONE_BLACK).steps[1]
    sbc.apply_dvfs(step)
    assert sbc.dvfs_step is step

    def watts_in(state):
        sbc.psm.set_state(state)
        return sbc.psm.watts

    assert watts_in(PowerState.CPU_BUSY) == pytest.approx(
        nominal.cpu_busy * step.power_scale
    )
    assert watts_in(PowerState.IO_WAIT) == pytest.approx(
        nominal.io_wait * step.power_scale
    )
    # Boot, idle and standby are frequency-independent.
    assert watts_in(PowerState.BOOT) == nominal.boot
    assert watts_in(PowerState.IDLE) == nominal.idle
    assert watts_in(PowerState.OFF) == nominal.off


def test_sbc_apply_dvfs_does_not_mutate_shared_template():
    clock = FakeClock()
    capped = SingleBoardComputer(clock, BEAGLEBONE_BLACK, node_id=0)
    peer = SingleBoardComputer(clock, BEAGLEBONE_BLACK, node_id=1)
    capped.apply_dvfs(dvfs_curve_for(BEAGLEBONE_BLACK).steps[-1])
    peer.psm.set_state(PowerState.CPU_BUSY)
    assert peer.psm.watts == pytest.approx(BEAGLEBONE_BLACK.power.cpu_busy)


def test_sbc_clear_dvfs_restores_nominal():
    clock = FakeClock()
    sbc = SingleBoardComputer(clock, BEAGLEBONE_BLACK)
    sbc.apply_dvfs(dvfs_curve_for(BEAGLEBONE_BLACK).steps[-1])
    sbc.clear_dvfs()
    assert sbc.dvfs_step is None
    sbc.psm.set_state(PowerState.CPU_BUSY)
    assert sbc.psm.watts == pytest.approx(BEAGLEBONE_BLACK.power.cpu_busy)
    sbc.clear_dvfs()  # idempotent at nominal


def test_dvfs_curve_for_unknown_spec_is_single_step():
    from repro.hardware.specs import SbcSpec

    spec = BEAGLEBONE_BLACK
    unknown = SbcSpec(**{**spec.__dict__, "name": "mystery-board"})
    curve = dvfs_curve_for(unknown)
    assert len(curve.steps) == 1
    assert curve.steps[0].perf_scale == 1.0


# ---------------------------------------------------------------------------
# PowerStateMachine.book: transitions booked ahead of the clock
# ---------------------------------------------------------------------------

DURATIONS = st.floats(
    min_value=1e-4, max_value=500.0, allow_nan=False, allow_infinity=False
)


def _all_time_in_state(psm):
    return [repr(psm.time_in_state(state)) for state in PowerState]


def _io_stretch(clock, psm, start, io_s):
    """Run to ``start``, enter IO_WAIT; return the I/O end."""
    clock.t = start
    psm.set_state(PowerState.IO_WAIT)
    return start + io_s


@settings(max_examples=1000)
@given(first=DURATIONS, earlier_io=DURATIONS, io=DURATIONS, out=DURATIONS,
       later=DURATIONS, read_first=st.booleans(),
       next_state=st.sampled_from([PowerState.IDLE, PowerState.OFF]))
def test_psm_reenter_at_matches_same_state_set_state(
    first, earlier_io, io, out, later, read_first, next_state
):
    """Booking a same-state re-entry gives every time-in-state float the
    woken-up caller's ``set_state`` at the same instant gives, whether
    the next call after the booked instant is a read, the job's finish
    (IDLE) or a crash (OFF)."""
    results = []
    for booked in (False, True):
        clock = FakeClock()
        psm = PowerStateMachine(clock, STATE_WATTS)
        io_end = _io_stretch(clock, psm, first, earlier_io)
        clock.t = io_end
        psm.set_state(PowerState.CPU_BUSY)
        io_end = _io_stretch(clock, psm, io_end, io)
        if booked:
            psm.book_run([(io_end, PowerState.IO_WAIT)])
        else:
            clock.t = io_end
            psm.set_state(PowerState.IO_WAIT)
        clock.t = io_end + out
        reads = _all_time_in_state(psm) if read_first else None
        psm.set_state(next_state)
        clock.t = clock.t + later
        results.append((reads, _all_time_in_state(psm)))
    assert results[0] == results[1]


@settings(max_examples=500)
@given(first=DURATIONS, io=DURATIONS, crash=st.floats(0.0, 1.0),
       later=DURATIONS, reboot=DURATIONS)
def test_psm_crash_before_reenter_at_drops_the_booking(first, io, crash,
                                                       later, reboot):
    """A transition before the booked instant (the board crashed first)
    drops the booking: the sums equal a machine that never booked.  A
    read before the instant leaves the booking in place."""
    results = []
    for booked in (False, True):
        clock = FakeClock()
        psm = PowerStateMachine(clock, STATE_WATTS)
        io_end = _io_stretch(clock, psm, first, io)
        crash_at = first + io * crash
        assume(crash_at < io_end)
        if booked:
            psm.book_run([(io_end, PowerState.IO_WAIT)])
        clock.t = crash_at
        reads = _all_time_in_state(psm)
        psm.set_state(PowerState.OFF)
        clock.t = io_end + later
        psm.set_state(PowerState.BOOT)
        clock.t = clock.t + reboot
        results.append((reads, _all_time_in_state(psm)))
    assert results[0] == results[1]


def test_psm_reenter_at_in_the_past_rejected():
    clock = FakeClock()
    psm = PowerStateMachine(clock, STATE_WATTS)
    clock.t = 2.0
    with pytest.raises(ValueError):
        psm.book_run([(1.0, PowerState.IO_WAIT)])


#: A worker's phase sequence after a cold claim: boot end, inbound,
#: CPU phase, I/O phase, outbound, finish.
TIMELINE = (PowerState.IDLE, PowerState.IO_WAIT, PowerState.CPU_BUSY,
            PowerState.IO_WAIT, PowerState.IO_WAIT, PowerState.IDLE)


def _observe_psm(psm):
    return (
        psm.state,
        repr(psm.watts),
        _all_time_in_state(psm),
        psm.trace.change_points,
        repr(psm.trace.energy_joules(0.0, psm.trace.change_points[-1][0])),
    )


@settings(max_examples=300)
@given(durations=st.lists(DURATIONS, min_size=len(TIMELINE),
                          max_size=len(TIMELINE)),
       peek=st.floats(0.0, 1.0), cut=st.floats(0.0, 1.0),
       crash=st.booleans(), rescale=st.booleans(),
       split=st.integers(0, len(TIMELINE)))
def test_psm_booked_timeline_matches_live_transitions(durations, peek, cut,
                                                      crash, rescale, split):
    """A whole timeline booked at its first instant equals the live
    transitions at every read: ``state``, ``watts``, time-in-state and
    the trace, read mid-timeline.  A DVFS rescale there changes the draw
    of every later booked state; a crash there drops the rest.  The
    timeline booked one state per ``book_run`` call equals it booked in
    two runs split anywhere."""
    times = [1.0]
    for duration in durations:
        times.append(times[-1] + duration)
    span = times[-1] - times[0]
    peek_at = times[0] + span * peek
    cut_at = peek_at + (times[-1] - peek_at) * cut
    scaled = {**STATE_WATTS, PowerState.CPU_BUSY: 1.9,
              PowerState.IO_WAIT: 0.9}
    results = []
    for booked in ("live", "one by one", "two runs"):
        clock = FakeClock()
        psm = PowerStateMachine(clock, STATE_WATTS)
        clock.t = times[0]
        psm.set_state(PowerState.BOOT)
        pending = list(zip(times[1:], TIMELINE))
        if booked == "one by one":
            for when, state in pending:
                psm.book_run([(when, state)])
            pending = []
        elif booked == "two runs":
            psm.book_run(pending[:split])
            psm.book_run(tuple(pending[split:]))
            pending = []

        def run_to(instant):
            while pending and pending[0][0] <= instant:
                clock.t, state = pending.pop(0)
                psm.set_state(state)
            clock.t = instant

        run_to(peek_at)
        if rescale:
            psm.rescale(scaled)
        observed = [_observe_psm(psm)]
        run_to(cut_at)
        if crash:
            psm.set_state(PowerState.OFF)
            pending.clear()
        observed.append(_observe_psm(psm))
        run_to(times[-1] + 1.0)
        observed.append(_observe_psm(psm))
        results.append(observed)
    assert results[0] == results[1] == results[2]


def test_psm_out_of_order_booking_rejected():
    """Bookings are monotone: a run that steps back in time, or starts
    before the last state booked, raises and books nothing of itself."""
    clock = FakeClock()
    psm = PowerStateMachine(clock, STATE_WATTS)
    with pytest.raises(ValueError, match="booked before"):
        psm.book_run([(2.0, PowerState.BOOT), (1.0, PowerState.IDLE)])
    psm.book_run([(1.0, PowerState.BOOT), (2.0, PowerState.IDLE)])
    with pytest.raises(ValueError, match="booked before"):
        psm.book_run([(1.5, PowerState.CPU_BUSY)])
    # A tie with the last booking is in order: it follows it.
    psm.book_run([(2.0, PowerState.IO_WAIT)])
    clock.t = 3.0
    assert psm.state is PowerState.IO_WAIT
    assert psm.trace.change_points == [(0.0, 0.1), (1.0, 2.0), (2.0, 1.2)]


def test_trace_reads_write_the_bookings_first():
    """A holder of the trace alone (a ledger, a meter) sees every booked
    change point up to now and none after it."""
    clock = FakeClock()
    psm = PowerStateMachine(clock, STATE_WATTS)
    trace = psm.trace
    psm.book_run([(1.0, PowerState.BOOT)])
    psm.book_run([(2.0, PowerState.IDLE)])
    assert trace.change_points == [(0.0, 0.1)]
    clock.t = 1.5
    assert trace.power_at(1.5) == 2.0
    assert trace.change_points == [(0.0, 0.1), (1.0, 2.0)]
    clock.t = 2.0
    assert trace.energy_joules(0.0, 2.0) == 0.1 * 1.0 + 2.0 * 1.0
    assert trace.change_points[-1][0] == 2.0
    assert len(trace) == 3


def test_psm_state_tables_ignore_foreign_keys():
    """Extra mapping keys are ignored, as with the enum-keyed dicts."""
    clock = FakeClock()
    psm = PowerStateMachine(clock, {**STATE_WATTS, "turbo": 9.0})
    assert psm.watts == 0.1
