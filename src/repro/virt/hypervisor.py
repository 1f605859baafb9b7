"""Hypervisor: schedules vCPU work onto the host's physical cores.

Guests submit CPU *bursts*; the hypervisor chops each burst into time
quanta and runs the quanta on a core pool (a capacity-``cores``
simulation resource).  When the number of runnable vCPUs exceeds the
core count, quanta queue — throughput saturates and per-function
latency stretches, which is how the Fig. 4 sweep finds its knee.

Quanta are materialised as kernel events only when vCPUs can contend.
Every registered :class:`~repro.virt.microvm.MicroVm` has one vCPU and
runs one burst at a time, so while ``0 < vm_count <= cores`` no core
request can ever queue and a quantum boundary changes nothing but the
books.  Such a burst is booked instead (:meth:`Hypervisor.book_burst`):
its core claim, quantum dips and release are booked on the host trace
(:meth:`~repro.hardware.power.PowerTrace.book`) and written — trace
points, context switches, executed CPU seconds — before anything later
is recorded or read, so every float matches the per-quantum loop.  A
dip is written as one split point at the unchanged draw, the point the
loop's release and re-claim in one instant leave.  A
burst that needs a core while booked bursts hold them all raises
:class:`~repro.sim.kernel.SimulationError`.

The hypervisor also owns host power bookkeeping: every time a core is
claimed or released it reports the busy-core count to the
:class:`~repro.hardware.rackserver.RackServer`, whose concave power
curve turns utilization into watts on the host's trace.
"""

from __future__ import annotations

from repro.hardware.rackserver import RackServer
from repro.sim.kernel import Environment, SimulationError
from repro.sim.resources import Resource
from repro.virt.overhead import VirtualizationOverhead, max_vms_for_host


class Hypervisor:
    """The host-side scheduler for a set of microVMs."""

    def __init__(
        self,
        env: Environment,
        server: RackServer,
        overhead: VirtualizationOverhead = VirtualizationOverhead(),
        quantum_s: float = 0.1,
    ):
        if quantum_s <= 0:
            raise ValueError(f"quantum must be positive, got {quantum_s}")
        self.env = env
        self.server = server
        self.overhead = overhead
        self.quantum_s = quantum_s
        self.cores = Resource(env, capacity=server.cores)
        self.vm_count = 0
        self._context_switches = 0
        self._cpu_seconds = 0.0
        #: Cores held by booked bursts (see :meth:`_apply`).
        self._busy = 0
        self._trace = server.trace
        self._trace.defer_to(lambda: env.now, self._apply)

    # -- VM registration -----------------------------------------------------------

    def register_vm(self) -> int:
        """Account for one more VM; returns its index.

        Raises if the host's RAM cannot hold another VM.
        """
        limit = self.max_vms()
        if self.vm_count >= limit:
            raise RuntimeError(
                f"host RAM exhausted: cannot place VM #{self.vm_count + 1} "
                f"(limit {limit})"
            )
        index = self.vm_count
        self.vm_count += 1
        return index

    def unregister_vm(self) -> None:
        if self.vm_count == 0:
            raise RuntimeError("no VMs registered")
        self.vm_count -= 1

    def max_vms(self) -> int:
        """RAM-limited VM capacity of the host."""
        return max_vms_for_host(self.server.spec, self.overhead)

    # -- scheduling ------------------------------------------------------------------

    @property
    def busy_cores(self) -> int:
        self._trace.flush()
        return self.cores.count + self._busy

    @property
    def context_switches(self) -> int:
        """Quanta started so far."""
        self._trace.flush()
        return self._context_switches

    @property
    def cpu_seconds_executed(self) -> float:
        """Guest CPU seconds of the quanta that have ended."""
        self._trace.flush()
        return self._cpu_seconds

    @property
    def uncontended(self) -> bool:
        """True while no core request can queue, so bursts are booked."""
        return 0 < self.vm_count <= self.server.cores

    def consume_cpu(self, cpu_seconds: float):
        """Process helper: burn ``cpu_seconds`` of guest CPU time.

        Usage from a VM process::

            yield from hypervisor.consume_cpu(0.5)

        The burst is executed in quanta so concurrent vCPUs interleave
        fairly.  Each quantum pays the context-switch cost and the
        configured CPU multiplier.  When vCPUs cannot contend (see the
        module docstring) the burst is booked and waited on once.
        """
        if cpu_seconds < 0:
            raise ValueError(f"negative CPU time: {cpu_seconds}")
        if self.uncontended:
            return self._booked_burst(cpu_seconds)
        return self._quanta(cpu_seconds * self.overhead.cpu_multiplier)

    def _quanta(self, remaining: float):
        # The epsilon guard stops float residue from spawning a final
        # zero-length quantum.
        while remaining > 1e-12:
            slice_s = min(self.quantum_s, remaining)
            request = self.cores.request()
            if self.busy_cores > self.server.cores:
                self.cores.release(request)
                self._contended()
            yield request
            self._context_switches += 1
            self._report_power()
            try:
                yield self.env.timeout(
                    slice_s + self.overhead.context_switch_s
                )
                self._cpu_seconds += slice_s
            finally:
                self.cores.release(request)
                self._report_power()
            remaining -= slice_s

    def book_burst(self, start: float, cpu_seconds: float, owner=None) -> float:
        """Book a burst of ``cpu_seconds`` from ``start`` on an
        :attr:`uncontended` host; returns the instant it ends.

        The quantum chain is the per-quantum loop's own arithmetic.
        ``owner`` tags the bookings, so an interrupted burst can drop
        the rest of its own.
        """
        if start < self.env.now:
            raise ValueError(f"burst start {start} is in the past")
        if cpu_seconds * self.overhead.cpu_multiplier <= 1e-12:
            return start
        # Write what is due first: only running bursts stay booked.
        self._trace.flush()
        return self._chain(start, cpu_seconds, self._trace.book, owner)

    def burst_end(self, start: float, cpu_seconds: float) -> float:
        """The instant :meth:`book_burst` would return, booking nothing."""
        return self._chain(start, cpu_seconds, _book_nothing, None)

    def _chain(self, start: float, cpu_seconds: float, book, owner) -> float:
        """Walk a burst's quanta from ``start``, passing each core claim,
        dip and release to ``book``; returns the burst's end."""
        remaining = cpu_seconds * self.overhead.cpu_multiplier
        if remaining <= 1e-12:
            return start
        quantum_s = self.quantum_s
        switch_s = self.overhead.context_switch_s
        book(start, (1, 0.0), owner)
        dip = (0, quantum_s)  # an interior quantum is always a full one
        end = start
        while True:
            # ``min(quantum_s, remaining)``, without the call.
            slice_s = remaining if remaining < quantum_s else quantum_s
            end = end + (slice_s + switch_s)
            remaining -= slice_s
            if remaining <= 1e-12:
                book(end, (-1, slice_s), owner)
                return end
            book(end, dip, owner)

    def _booked_burst(self, cpu_seconds: float):
        owner = object()
        end = self.book_burst(self.env.now, cpu_seconds, owner)
        self._trace.flush()
        if end == self.env.now:
            return
        try:
            yield self.env.timeout_at(end)
        finally:
            self._trace.truncate(owner)
            if self.env.now < end:
                # Interrupted or closed mid-burst: the core comes back.
                self._busy -= 1
                self._report_power()

    def _apply(self, time: float, change) -> None:
        """Write a booked core claim (+1), quantum dip (0) or release (-1)."""
        delta, slice_s = change
        self._cpu_seconds += slice_s
        if delta == 0:
            self.server.record_requantum(time)
            self._context_switches += 1
            return
        if delta > 0:
            if self.cores.count + self._busy >= self.server.cores:
                self._contended()
            self._context_switches += 1
        self._busy += delta
        self.server.record_busy(time, self.cores.count + self._busy)

    def _contended(self) -> None:
        raise SimulationError(
            f"a core request must wait ({self.cores.count + self._busy}/"
            f"{self.server.cores} cores busy, {self.vm_count} VMs) while "
            "bursts are booked without per-quantum events; one registered "
            "VM may run only one burst at a time"
        )

    def _report_power(self) -> None:
        self.server.set_busy_cores(self.busy_cores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Hypervisor vms={self.vm_count} busy={self.busy_cores}/"
            f"{self.server.cores} queued={self.cores.queue_length}>"
        )


def _book_nothing(_time: float, _change, _owner) -> None:
    """:meth:`Hypervisor._chain`'s sink when only the end is wanted."""


__all__ = ["Hypervisor"]
