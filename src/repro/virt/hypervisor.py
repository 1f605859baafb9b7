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
books.  Such a burst claims its core as usual, then waits once, until
the instant the quantum chain would have ended; its interior boundaries
go on a time-ordered pending heap and are written — trace points,
context switches, executed CPU seconds — before anything later is
recorded or read, so every float matches the per-quantum loop.  A core
request that would have to wait while such a burst holds a core raises
:class:`~repro.sim.kernel.SimulationError`.

The hypervisor also owns host power bookkeeping: every time a core is
claimed or released it reports the busy-core count to the
:class:`~repro.hardware.rackserver.RackServer`, whose concave power
curve turns utilization into watts on the host's trace.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.hardware.rackserver import RackServer
from repro.sim.kernel import Environment, SimulationError
from repro.sim.resources import Resource
from repro.virt.overhead import VirtualizationOverhead


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
        #: Quantum boundaries of fused bursts not yet written, as
        #: ``(time, seq, slice_s, request)``; ``seq`` keeps ties in push
        #: order and ``request`` names the burst that owns the boundary.
        self._boundaries: list = []
        self._boundary_seq = 0
        #: Fused bursts currently holding a core.
        self._fused = 0
        server.before_record = self._replay

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
        free = self.server.spec.ram_bytes - self.server.spec.host_reserved_bytes
        return max(0, free // self.overhead.ram_per_vm_bytes)

    # -- scheduling ------------------------------------------------------------------

    @property
    def busy_cores(self) -> int:
        return self.cores.count

    @property
    def runnable_vcpus(self) -> int:
        """vCPUs currently holding or waiting for a core."""
        return self.cores.count + self.cores.queue_length

    @property
    def context_switches(self) -> int:
        """Quanta started so far."""
        self._replay()
        return self._context_switches

    @property
    def cpu_seconds_executed(self) -> float:
        """Guest CPU seconds of the quanta that have ended."""
        self._replay()
        return self._cpu_seconds

    def consume_cpu(self, cpu_seconds: float):
        """Process helper: burn ``cpu_seconds`` of guest CPU time.

        Usage from a VM process::

            yield from hypervisor.consume_cpu(0.5)

        The burst is executed in quanta so concurrent vCPUs interleave
        fairly.  Each quantum pays the context-switch cost and the
        configured CPU multiplier.  When vCPUs cannot contend (see the
        module docstring) the quanta are accounted without one kernel
        event each.
        """
        if cpu_seconds < 0:
            raise ValueError(f"negative CPU time: {cpu_seconds}")
        remaining = cpu_seconds * self.overhead.cpu_multiplier
        if 0 < self.vm_count <= self.server.cores:
            return self._fused_burst(remaining)
        return self._quanta(remaining)

    def _quanta(self, remaining: float):
        # The epsilon guard stops float residue from spawning a final
        # zero-length quantum.
        while remaining > 1e-12:
            slice_s = min(self.quantum_s, remaining)
            request = self.cores.request()
            if self._fused and not request.triggered:
                self._contended(request)
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

    def _fused_burst(self, remaining: float):
        """The per-quantum loop as one wait: only valid while no core
        request can queue, which the self-check enforces."""
        if remaining <= 1e-12:
            return
        request = self.cores.request()
        if not request.triggered:
            self._contended(request)
        yield request
        self._context_switches += 1
        self._report_power()
        # The chain of quantum ends, by the per-quantum loop's arithmetic.
        quantum_s = self.quantum_s
        switch_s = self.overhead.context_switch_s
        boundaries = self._boundaries
        slice_s = min(quantum_s, remaining)
        end = self.env.now + (slice_s + switch_s)
        remaining -= slice_s
        while remaining > 1e-12:
            self._boundary_seq += 1
            heappush(boundaries, (end, self._boundary_seq, slice_s, request))
            slice_s = min(quantum_s, remaining)
            end = end + (slice_s + switch_s)
            remaining -= slice_s
        self._fused += 1
        finished = False
        try:
            yield self.env.timeout_at(end)
            self._replay()
            self._cpu_seconds += slice_s
            finished = True
        finally:
            self._fused -= 1
            if not finished:
                # Interrupted or closed mid-burst: the boundaries passed
                # so far happened; the rest never will.
                self._replay()
                self._boundaries = [
                    entry for entry in self._boundaries
                    if entry[3] is not request
                ]
                heapify(self._boundaries)
            self.cores.release(request)
            self._report_power()

    def _replay(self) -> None:
        """Write every pending quantum boundary up to now, in time order."""
        boundaries = self._boundaries
        if not boundaries:
            return
        now = self.env.now
        record = self.server.record_requantum
        while boundaries and boundaries[0][0] <= now:
            time, _seq, slice_s, _request = heappop(boundaries)
            self._cpu_seconds += slice_s
            record(time)
            self._context_switches += 1

    def _contended(self, request) -> None:
        self.cores.release(request)
        raise SimulationError(
            f"a core request must wait ({self.busy_cores}/"
            f"{self.server.cores} cores busy, {self.vm_count} VMs) while "
            "bursts run without per-quantum events; one registered VM "
            "may run only one burst at a time"
        )

    def _report_power(self) -> None:
        self.server.set_busy_cores(self.cores.count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Hypervisor vms={self.vm_count} busy={self.busy_cores}/"
            f"{self.server.cores} queued={self.cores.queue_length}>"
        )


__all__ = ["Hypervisor"]
