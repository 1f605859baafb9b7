"""MicroVM guest model.

A :class:`MicroVm` is the conventional cluster's worker: one vCPU,
512 MB RAM, running the same worker OS as the SBCs (its x86 build).
The VM worker process drives it through boot → execute → reboot cycles;
CPU phases go through the hypervisor (where contention lives) and I/O
phases simply wait.  On an uncontended host a worker may book a whole
cycle at its claim instead (each burst becomes one cursor the
hypervisor keeps, see :meth:`Hypervisor.book_burst`); the guest's state
then moves at the booking.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.bootos.stages import optimized_sequence
from repro.sim.kernel import Environment
from repro.virt.hypervisor import Hypervisor


class VmState(enum.Enum):
    STOPPED = "stopped"
    BOOTING = "booting"
    IDLE = "idle"
    RUNNING = "running"


@dataclass(frozen=True)
class MicroVmSpec:
    """Guest configuration (the paper's microVMs: 1 vCPU, 512 MB)."""

    vcpus: int = 1
    ram_bytes: int = 512 * 1024**2

    def __post_init__(self) -> None:
        if self.vcpus != 1:
            raise ValueError(
                "the conventional cluster's microVMs have exactly 1 vCPU"
            )
        if self.ram_bytes <= 0:
            raise ValueError("RAM must be positive")


class MicroVm:
    """One microVM guest registered with a hypervisor."""

    def __init__(
        self,
        env: Environment,
        hypervisor: Hypervisor,
        vm_id: int = 0,
        spec: MicroVmSpec = MicroVmSpec(),
    ):
        self.env = env
        self.hypervisor = hypervisor
        self.vm_id = vm_id
        self.spec = spec
        self.state = VmState.STOPPED
        self.boot_count = 0
        self.jobs_completed = 0
        self._boot_sequence = optimized_sequence("x86")
        hypervisor.register_vm()

    @property
    def boot_real_s(self) -> float:
        """Wall boot time of the worker OS on x86 (0.96 s published)."""
        return self._boot_sequence.real_s

    @property
    def boot_cpu_s(self) -> float:
        """CPU-busy portion of the boot."""
        return self._boot_sequence.cpu_s

    def boot(self):
        """Process helper: boot (or reboot) the guest.

        The CPU-busy part of boot contends for host cores like any other
        guest work; the rest is device/firmware waiting.
        """
        io_wait = self._begin_boot()
        if io_wait > 0:
            yield self.env.timeout(io_wait)
        yield from self.hypervisor.consume_cpu(self.boot_cpu_s)
        self.state = VmState.IDLE

    def _begin_boot(self) -> float:
        if self.state in (VmState.BOOTING, VmState.RUNNING):
            raise RuntimeError(f"vm-{self.vm_id}: cannot boot while {self.state}")
        self.state = VmState.BOOTING
        self.boot_count += 1
        return self.boot_real_s - self.boot_cpu_s

    def book_boot(self, start: float) -> float:
        """Book :meth:`boot` from ``start``; returns the instant it ends."""
        io_wait = self._begin_boot()
        self.state = VmState.IDLE
        if io_wait > 0:
            start = start + io_wait
        return self.hypervisor.book_burst(start, self.boot_cpu_s)

    def boot_end(self, start: float) -> float:
        """The instant :meth:`book_boot` would return, booking nothing."""
        io_wait = self.boot_real_s - self.boot_cpu_s
        if io_wait > 0:
            start = start + io_wait
        return self.hypervisor.burst_end(start, self.boot_cpu_s)

    def execute(self, cpu_s: float, io_s: float):
        """Process helper: run one function body (CPU phase + I/O phase)."""
        self._begin_execute(cpu_s, io_s)
        self.state = VmState.RUNNING
        try:
            if cpu_s > 0:
                yield from self.hypervisor.consume_cpu(cpu_s)
            if io_s > 0:
                yield self.env.timeout(io_s)
            self.jobs_completed += 1
        finally:
            self.state = VmState.IDLE

    def _begin_execute(self, cpu_s: float, io_s: float) -> None:
        if self.state is not VmState.IDLE:
            raise RuntimeError(
                f"vm-{self.vm_id}: cannot execute while {self.state}"
            )
        if cpu_s < 0 or io_s < 0:
            raise ValueError("phase durations must be non-negative")

    def book_execute(self, start: float, cpu_s: float, io_s: float) -> float:
        """Book :meth:`execute` from ``start``; returns the instant it ends."""
        self._begin_execute(cpu_s, io_s)
        self.jobs_completed += 1
        if cpu_s > 0:
            start = self.hypervisor.book_burst(start, cpu_s)
        return start + io_s if io_s > 0 else start

    def execute_end(self, start: float, cpu_s: float, io_s: float) -> float:
        """The instant :meth:`book_execute` would return, booking nothing."""
        if cpu_s > 0:
            start = self.hypervisor.burst_end(start, cpu_s)
        return start + io_s if io_s > 0 else start

    def shutdown(self) -> None:
        """Stop the guest and release its host RAM."""
        if self.state is VmState.STOPPED:
            raise RuntimeError(f"vm-{self.vm_id} is already stopped")
        self.state = VmState.STOPPED
        self.hypervisor.unregister_vm()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MicroVm #{self.vm_id} {self.state.value} jobs={self.jobs_completed}>"


__all__ = ["MicroVm", "MicroVmSpec", "VmState"]
