"""Rack-server (virtualization host) model.

The rack server hosts the conventional cluster's microVMs.  Its power
draw follows the concave utilization curve of
:class:`~repro.hardware.power.UtilizationPowerModel`; the hypervisor
(:mod:`repro.virt`) reports how many physical cores are busy, and the
server records the resulting wattage on its power trace.

A hypervisor that books bursts ahead of the clock keeps them itself and
registers its flush with the trace
(:meth:`~repro.hardware.power.PowerTrace.defer_to`); each write here
first writes the bookings due, so they land in time order.
"""

from __future__ import annotations

from typing import Callable

from repro.hardware.power import PowerTrace, UtilizationPowerModel
from repro.hardware.specs import RackServerSpec, THINKMATE_RAX


class RackServer:
    """A conventional x86 rack server acting as a virtualization host."""

    def __init__(
        self,
        clock: Callable[[], float],
        spec: RackServerSpec = THINKMATE_RAX,
        powered_on: bool = True,
    ):
        self.spec = spec
        self._clock = clock
        self._powered = powered_on
        self._busy_cores = 0.0
        initial = spec.idle_watts if powered_on else 0.0
        self.trace = PowerTrace(initial_time=clock(), initial_watts=initial)
        # watts-per-busy-count memo: the hypervisor reports integer core
        # counts on every quantum, so the power curve is evaluated for a
        # handful of distinct values millions of times.  Cleared on any
        # power-state change.
        self._watts_by_busy: dict = {}
        #: Active DVFS step, or None at nominal frequency.  VM workers
        #: stretch execute-phase CPU time by ``1 / perf_scale`` when set.
        #: This sets the nominal :attr:`power_model`, too.
        self.apply_dvfs(None)

    @property
    def is_powered(self) -> bool:
        return self._powered

    @property
    def cores(self) -> int:
        return self.spec.cpu.cores

    @property
    def busy_cores(self) -> float:
        self.trace.flush()
        return self._busy_cores

    @property
    def utilization(self) -> float:
        """CPU utilization in [0, 1]."""
        return min(1.0, self.busy_cores / self.cores)

    @property
    def watts(self) -> float:
        """Instantaneous power draw."""
        return self._watts_for(self.busy_cores)

    def set_busy_cores(self, busy: float) -> None:
        """Report that ``busy`` physical cores are executing vCPUs."""
        if busy < 0:
            raise ValueError(f"negative busy core count: {busy}")
        if busy > self.cores + 1e-9:
            raise ValueError(
                f"busy={busy} exceeds physical core count {self.cores}"
            )
        self.trace.flush()
        self.record_busy(self._clock(), busy)

    def record_busy(self, time: float, busy: float) -> None:
        """Write a (booked) busy-core count at ``time``."""
        self._busy_cores = busy
        self.trace.record(time, self._watts_for(busy))

    def requantum(self, busy: int) -> tuple:
        """Report a quantum boundary at ``busy`` busy cores: one core
        drops its vCPU and takes it straight back, so the count dips by
        one and returns within the instant.  Returns the ``(dip_watts,
        watts)`` pair the boundary writes (see
        :meth:`PowerTrace.record_dip`)."""
        self._busy_cores = busy
        return (self._watts_for(busy - 1), self._watts_for(busy))

    def _watts_for(self, busy: float) -> float:
        watts = self._watts_by_busy.get(busy)
        if watts is None:
            if self._powered:
                watts = self.power_model.watts(min(1.0, busy / self.cores))
            else:
                watts = 0.0
            self._watts_by_busy[busy] = watts
        return watts

    def apply_dvfs(self, step) -> None:
        """Clock the host down (or back up) to ``step``; None is nominal.

        Only the dynamic range scales — idle draw is dominated by fans,
        disks, and DRAM refresh that a frequency governor cannot touch,
        which is exactly the non-proportionality the paper targets.
        """
        spec = self.spec
        loaded = spec.loaded_watts
        if step is not None:
            loaded = spec.idle_watts + (
                (loaded - spec.idle_watts) * step.power_scale
            )
        self.trace.flush()
        self.power_model = UtilizationPowerModel(
            idle_watts=spec.idle_watts,
            loaded_watts=loaded,
            exponent=spec.power_exponent,
        )
        self.dvfs_step = step
        self._watts_by_busy.clear()
        if self._powered:
            self.trace.record(self._clock(), self.watts)

    def clear_dvfs(self) -> None:
        """Return to nominal frequency."""
        if self.dvfs_step is not None:
            self.apply_dvfs(None)

    def power_off(self) -> None:
        """Cut power to the whole host (rare in conventional clouds)."""
        self.trace.flush()
        self._powered = False
        self._busy_cores = 0.0
        self._watts_by_busy.clear()
        self.trace.record(self._clock(), 0.0)

    def power_on(self) -> None:
        """Restore power; the host returns to idle draw."""
        self.trace.flush()
        self._powered = True
        self._watts_by_busy.clear()
        self.trace.record(self._clock(), self.watts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RackServer {self.spec.name} busy={self._busy_cores:.2f}/"
            f"{self.cores} {self.watts:.1f} W>"
        )


__all__ = ["RackServer"]
