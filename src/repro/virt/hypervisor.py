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
the hypervisor keeps one cursor per booked burst in its own heap, keyed
(next write, booking seq), and its flush — registered with the host
trace (:meth:`~repro.hardware.power.PowerTrace.defer_to`) — writes the
core claim, every quantum dip and the release in one loop, with the
quantum chain's own additions: trace points, context switches, executed
CPU seconds, before anything later is recorded or read, so every float
matches the per-quantum loop.  A dip is written as one split point at
the unchanged draw, the point the loop's release and re-claim in one
instant leave, from the (busy − 1, busy) watt pair read once per run of
dips between a claim and a release
(:meth:`~repro.hardware.rackserver.RackServer.requantum`).  An
interrupted burst drops only its own cursor.  A burst that needs a core
while booked bursts hold them all raises
:class:`~repro.sim.kernel.SimulationError`.

The hypervisor also owns host power bookkeeping: every time a core is
claimed or released it reports the busy-core count to the
:class:`~repro.hardware.rackserver.RackServer`, whose concave power
curve turns utilization into watts on the host's trace.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace

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
        #: Cores held by booked bursts.
        self._busy = 0
        #: One cursor per booked burst with writes still due, keyed
        #: ``(next write, booking seq, cursor)`` (see :meth:`_flush`).
        self._cursors: list = []
        self._seq = 0
        self._trace = server.trace
        self._trace.defer_to(self._flush)

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
        self._flush()
        return self.cores.count + self._busy

    @property
    def context_switches(self) -> int:
        """Quanta started so far."""
        self._flush()
        return self._context_switches

    @property
    def cpu_seconds_executed(self) -> float:
        """Guest CPU seconds of the quanta that have ended."""
        self._flush()
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

    def book_burst(self, start: float, cpu_seconds: float) -> float:
        """Book a burst of ``cpu_seconds`` from ``start`` on an
        :attr:`uncontended` host; returns the instant it ends."""
        return self._book(start, cpu_seconds)[0]

    def _book(self, start: float, cpu_seconds: float):
        """Book a burst; returns its end and its cursor (None when the
        burst is empty and books nothing)."""
        if start < self.env.now:
            raise ValueError(f"burst start {start} is in the past")
        remaining = cpu_seconds * self.overhead.cpu_multiplier
        if remaining <= 1e-12:
            return start, None
        # Write what is due first: only running bursts stay booked.
        self._flush()
        self._seq += 1
        cursor = [remaining, None]
        heappush(self._cursors, (start, self._seq, cursor))
        return self.burst_end(start, cpu_seconds), cursor

    def burst_end(self, start: float, cpu_seconds: float) -> float:
        """The instant :meth:`book_burst` would return, booking nothing:
        the per-quantum loop's own arithmetic."""
        remaining = cpu_seconds * self.overhead.cpu_multiplier
        if remaining <= 1e-12:
            return start
        quantum_s = self.quantum_s
        switch_s = self.overhead.context_switch_s
        end = start
        while True:
            # ``min(quantum_s, remaining)``, without the call.
            slice_s = remaining if remaining < quantum_s else quantum_s
            end = end + (slice_s + switch_s)
            remaining -= slice_s
            if remaining <= 1e-12:
                return end

    def _flush(self) -> None:
        """Write every booked core claim, quantum dip and release due by
        now, in time order (booking order breaks ties), with the
        counters beside them.

        A cursor ``[remaining, slice_s]`` stands at its burst's next
        write: the claim while ``slice_s`` is None, else the boundary
        that ends a ``slice_s`` quantum with ``remaining`` left — a
        release once nothing is left, a dip before.
        """
        cursors = self._cursors
        if not cursors:
            return
        now = self.env.now
        if cursors[0][0] > now:
            return
        server = self.server
        trace = self._trace
        cores = self.cores
        quantum_s = self.quantum_s
        switch_s = self.overhead.context_switch_s
        dip = None
        while cursors:
            t, seq, cursor = cursors[0]
            if t > now:
                return
            remaining, slice_s = cursor
            if slice_s is None:
                if cores.count + self._busy >= server.cores:
                    # The refused burst goes with its error, so a later
                    # flush (a suspended burst closing) does not refuse
                    # it again.
                    heappop(cursors)
                    self._contended()
                self._context_switches += 1
                self._busy += 1
                server.record_busy(t, cores.count + self._busy)
                dip = None
            elif remaining <= 1e-12:
                self._cpu_seconds += slice_s
                self._busy -= 1
                server.record_busy(t, cores.count + self._busy)
                dip = None
                heappop(cursors)
                continue
            else:
                # An interior quantum is always a full one.
                self._cpu_seconds += quantum_s
                if dip is None:
                    dip = server.requantum(cores.count + self._busy)
                trace.record_dip(t, dip[0], dip[1])
                self._context_switches += 1
            # The next boundary: the per-quantum loop's own arithmetic.
            slice_s = remaining if remaining < quantum_s else quantum_s
            cursor[0] = remaining - slice_s
            cursor[1] = slice_s
            heapreplace(cursors, (t + (slice_s + switch_s), seq, cursor))

    def _booked_burst(self, cpu_seconds: float):
        end, cursor = self._book(self.env.now, cpu_seconds)
        self._flush()
        if end == self.env.now:
            return
        try:
            yield self.env.timeout_at(end)
        finally:
            if self.env.now < end:
                # Interrupted or closed mid-burst: the rest of its
                # writes go, and the core comes back.
                self._flush()
                cursors = self._cursors
                cursors[:] = [e for e in cursors if e[2] is not cursor]
                heapify(cursors)
                self._busy -= 1
                self._report_power()

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


__all__ = ["Hypervisor"]
