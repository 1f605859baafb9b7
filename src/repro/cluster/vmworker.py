"""MicroVM worker: the conventional cluster's platform hooks.

:class:`VmWorker` runs :class:`~repro.cluster.worker.Worker`'s lifecycle
on the virtualization substrate: the same worker OS (its 0.96 s x86
build), the same reboot-per-job clean-state discipline, but boots and
CPU phases go through the hypervisor — where contention appears once
vCPUs outnumber physical cores — and the host is never powered off
(conventional platforms keep their rack servers hot).  Its hooks:

- boot source: the guest (re)boot, :meth:`MicroVm.boot` per phase or
  :meth:`MicroVm.book_boot` booked.  The initial boot runs before the
  first claim and is charged to that job; every later claim reboots
  when the policy says so;
- executor: :meth:`MicroVm.execute` per phase or
  :meth:`MicroVm.book_execute` booked.  Only an uncontended host books
  (:attr:`Hypervisor.uncontended`), and the booking tells the burst's
  end, so a job on the per-phase path reports an open end.  Under
  network chaos :meth:`MicroVm.boot_end` and :meth:`MicroVm.execute_end`
  walk the same quanta without booking, to price each transfer at its
  start;
- pricing: the x86 profile, stretched by the host's DVFS step;
- overhead: the sum of the transfer and session durations.

:class:`~repro.cluster.pool.MicroVmPool` gives a VM neither a
control-plane model nor a contended backend.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.worker import Worker
from repro.core.platform import X86
from repro.core.lifecycle import RunToCompletionPolicy
from repro.net.transfer import SESSION_OVERHEAD_S
from repro.virt.microvm import MicroVm


class VmWorker(Worker):
    """One microVM worker bound to its queue and the OP."""

    kind = "vm"
    platform = X86
    session_s = SESSION_OVERHEAD_S["x86-virtio"]
    default_policy = RunToCompletionPolicy(
        reboot_between_jobs=True,
        power_off_when_idle=False,  # the host stays hot regardless
    )

    def _bind(self, vm: MicroVm) -> None:
        self.vm = vm
        self.worker_id = vm.vm_id
        self.boot_real_s = vm.boot_real_s

    @property
    def _bookable(self) -> bool:
        return self.vm.hypervisor.uncontended

    @property
    def _charged_boot_s(self) -> float:
        return 0.0 if self.vm.jobs_completed else self.vm.boot_real_s

    @property
    def _next_claim_boots(self) -> bool:
        return self.policy.reboot_between_jobs and self.vm.jobs_completed > 0

    def _initial_boot(self):
        return self.vm.boot()

    def _boot_kind(self) -> Optional[str]:
        return "guest-reboot" if self._next_claim_boots else None

    def _boot(self):
        return self.vm.boot()

    def _book_boot(self, claim: float) -> float:
        return self.vm.book_boot(claim)

    def _boot_end(self, claim: float) -> float:
        return self.vm.boot_end(claim)

    def _work(self, profile, jitter: float):
        work_s = profile.work_x86_s * jitter
        cpu_s = work_s * profile.cpu_fraction_x86
        io_s = work_s - cpu_s
        dvfs = getattr(self.vm.hypervisor.server, "dvfs_step", None)
        if dvfs is not None:
            # Down-clocked host: the vCPU phase stretches, I/O doesn't.
            cpu_s /= dvfs.perf_scale
        return cpu_s, io_s

    def _execute(self, profile, cpu_s: float, io_s: float):
        return self.vm.execute(cpu_s=cpu_s, io_s=io_s)

    def _book_execute(self, start: float, cpu_s: float, io_s: float) -> float:
        return self.vm.book_execute(start, cpu_s, io_s)

    def _execute_end(self, start: float, cpu_s: float, io_s: float) -> float:
        return self.vm.execute_end(start, cpu_s, io_s)

    def _predict(self, booting: bool, plan) -> Optional[float]:
        # Booking tells the end without walking the quanta twice.
        return None

    def _overhead_s(self, inbound, outbound, inbound_start, inbound_end,
                    outbound_start, end) -> float:
        return inbound.total_s + self.session_s + outbound.total_s


__all__ = ["VmWorker"]
