"""Virtualization overhead constants and placement limits.

The calibrated workload profiles already fold steady-state
virtualization slowdown into their x86 work times (they were measured
"through" a microVM in the paper).  What this module adds are the
*structural* overheads the simulation applies explicitly:

- context-switch cost when a vCPU is scheduled onto a core;
- a CPU multiplier for ablations that remove or exaggerate
  virtualization cost;
- RAM accounting that bounds how many VMs a host can hold (the Fig. 4
  sweep ends where the host's memory saturates).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import RackServerSpec


@dataclass(frozen=True)
class VirtualizationOverhead:
    """Tunable overhead knobs for the hypervisor."""

    #: Cost of dispatching a vCPU onto a physical core, seconds.
    context_switch_s: float = 50e-6
    #: Multiplier on guest CPU time (1.0 = calibrated baseline, because
    #: the profiles' x86 work times were taken through a microVM).
    cpu_multiplier: float = 1.0
    #: Fixed per-VM RAM (the paper allocates 512 MB per microVM).
    vm_ram_bytes: int = 512 * 1024**2
    #: QEMU/firmware RAM overhead per VM beyond the guest allocation.
    per_vm_host_overhead_bytes: int = 48 * 1024**2

    def __post_init__(self) -> None:
        if self.context_switch_s < 0:
            raise ValueError("context switch cost cannot be negative")
        if self.cpu_multiplier < 1.0:
            raise ValueError(
                "cpu_multiplier below 1.0 would mean virtualization "
                "speeds up the guest"
            )
        if self.vm_ram_bytes <= 0:
            raise ValueError("VM RAM must be positive")

    @property
    def ram_per_vm_bytes(self) -> int:
        """Host RAM consumed per VM (guest allocation plus overhead)."""
        return self.vm_ram_bytes + self.per_vm_host_overhead_bytes


def max_vms_for_host(
    spec: RackServerSpec,
    overhead: VirtualizationOverhead = VirtualizationOverhead(),
) -> int:
    """How many microVMs the host's RAM can hold.

    For the evaluation host (16 GB, 2 GB host reserve, 512 MB + 48 MB
    per VM) this is 25 VMs — the far end of the Fig. 4 sweep.
    """
    return spec.max_vm_count(overhead.ram_per_vm_bytes)


__all__ = ["VirtualizationOverhead", "max_vms_for_host"]
