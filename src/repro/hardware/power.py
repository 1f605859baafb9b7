"""Power-state machines, power traces, and server power curves.

Everything energy-related in the reproduction flows through
:class:`PowerTrace`: a piecewise-constant record of instantaneous power.
State machines append to a trace whenever a device changes state, and
every energy figure (cluster results, :mod:`repro.energy`'s bills) is an
exact integral of traces; nothing samples them the way the paper's 1 Hz
wall-plug meter does.

A trace's owner may book change points ahead of the clock and keep them
itself: a :class:`PowerStateMachine` keeps a board's booked transitions
as a time-ordered list with a read index (:meth:`PowerStateMachine.book_run`),
the hypervisor keeps one cursor per booked burst.  The owner registers
one flush with its trace (:meth:`PowerTrace.defer_to`), and the trace
calls it before every read, so each float matches an owner that woke up
at every change.
"""

from __future__ import annotations

import bisect
import enum
import math
from array import array
from typing import Callable, Mapping, Optional


class PowerState(enum.Enum):
    """Operating states of a worker device."""

    OFF = "off"
    BOOT = "boot"
    IDLE = "idle"
    CPU_BUSY = "cpu_busy"
    IO_WAIT = "io_wait"


class PowerTrace:
    """A piecewise-constant power signal ``P(t)``.

    The trace is a sorted sequence of ``(time, watts)`` change points; the
    power between change points is the wattage of the most recent point.
    Appending at a time equal to the last change point overwrites it (the
    device changed state twice in the same instant).  Its owner may also
    keep change points booked ahead of the clock (:meth:`defer_to`).
    """

    def __init__(self, initial_time: float = 0.0, initial_watts: float = 0.0):
        if initial_watts < 0:
            raise ValueError(f"negative power: {initial_watts}")
        # Packed double arrays, not lists: a worker flips state several
        # times per job, so million-invocation runs hold millions of
        # change points — 8 bytes each here vs ~32 for boxed floats.
        self._times: array = array("d", [float(initial_time)])
        self._watts: array = array("d", [float(initial_watts)])
        # Energy from the origin to the last change point, summed as each
        # point is appended: the same left-to-right segment additions
        # :meth:`energy_joules` makes, so a full-range query is O(1) and
        # bit-identical to the loop.
        self._joules_to_last = 0.0
        # Autocompaction (off by default): when enabled, the trace drops
        # its oldest change points so RSS stays bounded on 10⁸-event
        # runs, keeping the running total up to the first retained point
        # as the folded prefix.  Queries that start or end inside the
        # folded region are no longer answerable and raise.
        self._compact_limit: Optional[int] = None
        self._folded = False
        self._folded_joules = 0.0
        self._origin_time = float(initial_time)

    def __len__(self) -> int:
        self.flush()
        return len(self._times)

    def defer_to(self, flush: Callable[[], None]) -> None:
        """Let the owner book change points ahead of the clock.

        The owner keeps its bookings itself; ``flush()`` writes those
        due by now, in time order, with the counters it keeps beside the
        trace.  It replaces :meth:`flush`, which runs before each read
        here (and before each of the owner's own writes and reads), so
        every float matches an owner that woke up at each change.
        """
        self.flush = flush

    def flush(self) -> None:
        """Write the owner's change points booked up to now (none here;
        see :meth:`defer_to`)."""

    def enable_autocompact(self, max_points: int = 65536) -> None:
        """Bound the trace to ``max_points`` retained change points.

        Once the trace grows past the limit, all but the most recent
        point are dropped; the running energy total up to that point
        becomes the folded prefix.  After the first fold, only queries
        from at or before the trace origin to at or after the oldest
        retained point are supported, and full-range ones stay
        bit-identical.
        """
        if max_points < 2:
            raise ValueError(f"need max_points >= 2, got {max_points}")
        self._compact_limit = max_points

    def _fold(self) -> None:
        self._folded_joules = self._joules_to_last
        self._times = array("d", [self._times[-1]])
        self._watts = array("d", [self._watts[-1]])
        self._folded = True

    @property
    def change_points(self) -> list[tuple[float, float]]:
        """The raw ``(time, watts)`` change points."""
        self.flush()
        return list(zip(self._times, self._watts))

    @property
    def start_time(self) -> float:
        self.flush()
        return self._times[0]

    def record(self, time: float, watts: float) -> None:
        """Record that power changed to ``watts`` at ``time``."""
        if watts < 0:
            raise ValueError(f"negative power: {watts}")
        last = self._times[-1]
        if time < last:
            raise ValueError(f"non-monotonic trace: {time} < {last}")
        if time == last:
            self._watts[-1] = watts
            return
        previous = self._watts[-1]
        if watts == previous:
            return  # no change; keep the trace compact
        self._append(time, watts, last, previous)

    def record_dip(self, time: float, dip_watts: float, watts: float) -> None:
        """Record a drop to ``dip_watts`` and a return to ``watts`` within
        the instant ``time``, as one write.

        Leaves the change points that :meth:`record` to ``dip_watts`` and
        then to ``watts`` at ``time`` leave: a split point at ``time``
        drawing ``watts``, or none when the dip lands on the last point's
        instant or nothing changes.
        """
        if dip_watts < 0 or watts < 0:
            raise ValueError(f"negative power: {min(dip_watts, watts)}")
        last = self._times[-1]
        if time < last:
            raise ValueError(f"non-monotonic trace: {time} < {last}")
        previous = self._watts[-1]
        if time == last or dip_watts == previous == watts:
            self._watts[-1] = watts
            return
        self._append(time, watts, last, previous)

    def _append(self, time, watts, last, previous) -> None:
        """Append a change point after the last one, at ``last``, which
        draws ``previous``."""
        self._joules_to_last += previous * (time - last)
        self._times.append(time)
        self._watts.append(watts)
        if (
            self._compact_limit is not None
            and len(self._times) > self._compact_limit
        ):
            self._fold()

    def power_at(self, time: float) -> float:
        """Instantaneous power at ``time`` (0 before the trace starts)."""
        self.flush()
        if time < self._times[0]:
            if self._folded and time >= self._origin_time:
                raise ValueError(
                    "power_at() inside the compacted region of an "
                    "autocompacted trace"
                )
            return 0.0
        index = bisect.bisect_right(self._times, time) - 1
        return self._watts[index]

    def energy_joules(self, start: float, end: float) -> float:
        """Exact energy over ``[start, end]`` by piecewise integration."""
        if end < start:
            raise ValueError(f"end {end} before start {start}")
        if end == start:
            return 0.0
        self.flush()
        times = self._times
        last = times[-1]
        if start <= self._origin_time and end >= last:
            return self._joules_to_last + self._watts[-1] * (end - last)
        total = 0.0
        if self._folded:
            # Only full-span queries survive compaction: the folded
            # prefix seeds the accumulator and integration resumes at
            # the retained boundary, replaying the exact additions the
            # uncompacted trace would have performed.
            if start > self._origin_time or end < times[0]:
                raise ValueError(
                    "autocompacted trace supports only full-range "
                    f"energy queries (folded through t={times[0]})"
                )
            total = self._folded_joules
        lo = max(start, times[0])
        if lo >= end:
            return total
        index = bisect.bisect_right(times, lo) - 1
        t = lo
        while t < end:
            seg_end = times[index + 1] if index + 1 < len(times) else end
            seg_end = min(seg_end, end)
            total += self._watts[index] * (seg_end - t)
            t = seg_end
            index += 1
        return total

    def average_watts(self, start: float, end: float) -> float:
        """Mean power over ``[start, end]``."""
        if end <= start:
            raise ValueError(f"need end > start, got [{start}, {end}]")
        return self.energy_joules(start, end) / (end - start)


#: Enum members in declaration order.  Each member also carries a dense
#: ``_index`` (its position here): state machines keep their per-state
#: tables in short lists indexed by it, so a transition costs two list
#: subscripts instead of two ``Enum.__hash__`` calls.
_ALL_STATES = tuple(PowerState)
for _index, _state in enumerate(_ALL_STATES):
    _state._index = _index
del _index, _state


def _watts_row(state_watts: Mapping[PowerState, float]) -> list:
    """``state_watts`` as a list indexed by ``PowerState._index``.

    Walks the mapping's items rather than looking every state up, so a
    100k-board build pays no enum hashing.
    """
    row: list = [None] * len(_ALL_STATES)
    for state, watts in state_watts.items():
        if isinstance(state, PowerState):
            row[state._index] = watts
    if None in row:
        missing = [s for s in _ALL_STATES if row[s._index] is None]
        raise ValueError(f"missing wattages for states: {missing}")
    return row


class PowerStateMachine:
    """Maps device states to wattages and records the resulting trace.

    Parameters
    ----------
    clock:
        Zero-argument callable returning current (simulated) time.
    state_watts:
        Mapping from :class:`PowerState` to watts.
    initial_state:
        State at construction time.
    """

    def __init__(
        self,
        clock,
        state_watts: Mapping[PowerState, float],
        initial_state: PowerState = PowerState.OFF,
    ):
        self._clock = clock
        self._watts = _watts_row(state_watts)
        self._state = initial_state
        self.trace = PowerTrace(
            initial_time=clock(), initial_watts=self._watts[initial_state._index]
        )
        self._state_entered_at = clock()
        self._time_in_state = [0.0] * len(_ALL_STATES)

    #: Transitions booked ahead of the clock, ``(time, state)`` in time
    #: order; those before ``_next`` are written.  None until the first
    #: booking (:meth:`book_run`).
    _booked: Optional[list] = None

    @property
    def state(self) -> PowerState:
        if self._booked:
            self._flush()
        return self._state

    @property
    def watts(self) -> float:
        """Current instantaneous draw."""
        return self._watts[self.state._index]

    def _enter(self, time: float, state: PowerState) -> None:
        self._time_in_state[self._state._index] += time - self._state_entered_at
        self._state_entered_at = time
        self._state = state
        self.trace.record(time, self._watts[state._index])

    def _flush(self) -> None:
        """Enter every booked state due by now, in booking order."""
        booked = self._booked
        if booked:
            now = self._clock()
            index = self._next
            count = len(booked)
            while index < count:
                time, state = booked[index]
                if time > now:
                    break
                self._enter(time, state)
                index += 1
            if index == count:
                booked.clear()
                index = 0
            self._next = index

    def set_state(self, state: PowerState) -> None:
        """Transition to ``state`` now, recording the change on the trace
        after the booked transitions up to now; later ones are dropped
        (the device left its booked timeline: it crashed, say)."""
        booked = self._booked
        if booked:
            self._flush()
            booked.clear()
            self._next = 0
        self._enter(self._clock(), state)

    def book_run(self, run) -> None:
        """Book :meth:`set_state` at each ``(time, state)`` of the
        sequence ``run`` instead of waking up then (see
        :meth:`PowerTrace.defer_to`).

        Bookings are monotone: a time in the past, or before the last
        one booked, raises :class:`ValueError` and books nothing.
        Booking the current state splits its time-in-state sum.
        """
        booked = self._booked
        if booked is None:
            booked = self._booked = []
            self._next = 0
            self.trace.defer_to(self._flush)
        now = self._clock()
        last = booked[-1][0] if booked else now
        for time, _state in run:
            if time < now:
                raise ValueError(f"transition at {time} is in the past")
            if time < last:
                raise ValueError(
                    f"transition at {time} is booked before one at {last}"
                )
            last = time
        booked.extend(run)

    def time_in_state(self, state: PowerState) -> float:
        """Cumulative seconds spent in ``state`` so far."""
        total = self._time_in_state
        if state is not self.state:
            return total[state._index]
        return total[state._index] + (self._clock() - self._state_entered_at)

    def rescale(self, state_watts: Mapping[PowerState, float]) -> None:
        """Swap the state→watts table in place (DVFS step change).

        The device stays in its current state; only its draw changes, so
        the trace gets a change point at the new wattage without any
        time-in-state bookkeeping.  The mapping is copied — callers may
        pass a shared template.
        """
        state = self.state
        self._watts = _watts_row(state_watts)
        self.trace.record(self._clock(), self._watts[state._index])


class PowerCap:
    """A power-cap governor: clamp a device's peak draw to a budget.

    The governor owns no hardware — it resolves a cap in watts against a
    platform's DVFS ladder (:class:`~repro.hardware.specs.DvfsCurve`)
    and hands back the step to apply.  ``scope`` distinguishes a
    per-worker clamp from a whole-cluster budget split evenly across the
    powered devices.
    """

    def __init__(self, cap_watts: float, scope: str = "worker"):
        if cap_watts <= 0:
            raise ValueError(f"cap must be positive, got {cap_watts}")
        if scope not in ("worker", "cluster"):
            raise ValueError(f"unknown scope {scope!r}")
        self.cap_watts = cap_watts
        self.scope = scope

    def per_device_watts(self, device_count: int) -> float:
        """The cap each device sees under this governor."""
        if device_count < 1:
            raise ValueError("need at least one device")
        if self.scope == "cluster":
            return self.cap_watts / device_count
        return self.cap_watts

    def resolve(self, curve, peak_watts: float, device_count: int = 1):
        """Pick the DVFS step for a device with nominal ``peak_watts``."""
        return curve.step_for_cap(
            self.per_device_watts(device_count), peak_watts
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PowerCap {self.cap_watts:.2f} W/{self.scope}>"


class UtilizationPowerModel:
    """Concave utilization→power curve for a rack server.

    ``P(u) = idle + (loaded - idle) * u**exponent`` with ``u`` clamped to
    ``[0, 1]``.  ``exponent < 1`` reproduces the well-documented
    non-energy-proportional behaviour of conventional servers: most of the
    dynamic power range is spent by the time utilization reaches ~40 %.
    """

    def __init__(self, idle_watts: float, loaded_watts: float, exponent: float):
        if idle_watts < 0 or loaded_watts < idle_watts:
            raise ValueError("need 0 <= idle_watts <= loaded_watts")
        if not 0 < exponent <= 1:
            raise ValueError(f"exponent must be in (0, 1], got {exponent}")
        self.idle_watts = idle_watts
        self.loaded_watts = loaded_watts
        self.exponent = exponent

    def watts(self, utilization: float) -> float:
        """Instantaneous power at CPU ``utilization`` in [0, 1]."""
        u = min(1.0, max(0.0, utilization))
        if u == 0.0:
            return self.idle_watts
        return self.idle_watts + (self.loaded_watts - self.idle_watts) * math.pow(
            u, self.exponent
        )


__all__ = [
    "PowerCap",
    "PowerState",
    "PowerStateMachine",
    "PowerTrace",
    "UtilizationPowerModel",
]
