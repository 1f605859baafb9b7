"""Single-board computer worker-node model.

An SBC is a passive hardware model: it owns a power-state machine and a
spec sheet, and exposes the state transitions that the cluster's worker
process and the orchestrator's GPIO lines drive (power on/off, boot,
busy/IO phases).  It deliberately contains no scheduling logic — the
paper's point is that the worker is dumb, single-tenant hardware.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from repro.hardware.power import PowerState, PowerStateMachine
from repro.hardware.specs import BEAGLEBONE_BLACK, SbcSpec


@functools.lru_cache(maxsize=None)
def _state_watts_for(power) -> dict:
    """The state→watts table of a (frozen, hashable) power spec, built
    once: every board of a fleet shares its spec, and rebuilding the
    enum-keyed dict per board was a measurable slice of 100k-worker
    cold-build time.  The state machine copies the table, so sharing
    the template is safe."""
    return {
        PowerState.OFF: power.off,
        PowerState.BOOT: power.boot,
        PowerState.IDLE: power.idle,
        PowerState.CPU_BUSY: power.cpu_busy,
        PowerState.IO_WAIT: power.io_wait,
    }


class SingleBoardComputer:
    """A bare-metal SBC worker node (default: BeagleBone Black).

    Parameters
    ----------
    clock:
        Zero-argument callable returning current simulated time.
    spec:
        Hardware spec sheet.
    node_id:
        Identifier within the cluster.
    """

    #: Called with the node id after each :meth:`power_off` (recovery
    #: runs only), or None.
    on_power_off: Optional[Callable[[int], None]] = None

    def __init__(
        self,
        clock: Callable[[], float],
        spec: SbcSpec = BEAGLEBONE_BLACK,
        node_id: int = 0,
    ):
        self.spec = spec
        self.node_id = node_id
        self._clock = clock
        self.psm = PowerStateMachine(
            clock,
            state_watts=_state_watts_for(spec.power),
            initial_state=PowerState.OFF,
        )
        self.boot_count = 0
        self.jobs_completed = 0
        self.ip_address: Optional[str] = None
        #: True when the board has booted and run no code since — the
        #: clean-state guarantee a fresh tenant requires (Sec. III-a).
        self.clean = False
        #: Active DVFS step, or None at nominal frequency.  Workers
        #: stretch execute-phase CPU time by ``1 / perf_scale`` when set.
        self.dvfs_step = None

    # -- power control (driven by GPIO / worker process) ----------------------

    @property
    def state(self) -> PowerState:
        return self.psm.state

    @property
    def is_powered(self) -> bool:
        return self.psm.state is not PowerState.OFF

    def power_on(self) -> None:
        """Assert the PWR_BUT line: the board enters its boot sequence."""
        if self.is_powered:
            raise RuntimeError(f"node {self.node_id} is already powered on")
        self.boot_count += 1
        self.psm.set_state(PowerState.BOOT)

    def boot_complete(self) -> None:
        """Boot finished; the worker idles awaiting a job."""
        self._require(PowerState.BOOT)
        self.clean = True
        self.psm.set_state(PowerState.IDLE)

    def begin_reboot(self) -> None:
        """Warm reboot between jobs (clean-state guarantee, Sec. III-a)."""
        if self.psm.state is PowerState.OFF:
            raise RuntimeError(f"node {self.node_id} is off; use power_on()")
        self.boot_count += 1
        self.clean = False
        self.psm.set_state(PowerState.BOOT)

    def power_off(self) -> None:
        """Cut power (energy-proportional idle, Sec. III-b)."""
        self.clean = False
        self.psm.set_state(PowerState.OFF)
        if self.on_power_off is not None:
            self.on_power_off(self.node_id)

    # -- DVFS / power capping --------------------------------------------------

    def apply_dvfs(self, step) -> None:
        """Clock the board down (or back up) to ``step``; None is nominal.

        Active-state draws scale by the step's ``power_scale``; standby,
        boot, and idle draws are frequency-independent (the boot chain
        runs before the governor, standby power is leakage).  The shared
        per-spec watts template is never mutated — each capped board
        gets its own scaled copy.
        """
        table = _state_watts_for(self.spec.power)
        if step is not None:
            table = dict(table)
            for state in (PowerState.CPU_BUSY, PowerState.IO_WAIT):
                table[state] = table[state] * step.power_scale
        self.psm.rescale(table)
        self.dvfs_step = step

    def clear_dvfs(self) -> None:
        """Return to nominal frequency."""
        if self.dvfs_step is not None:
            self.apply_dvfs(None)

    # -- execution phases ------------------------------------------------------

    def start_compute(self) -> None:
        """The CPU is executing function code."""
        self._require(PowerState.IDLE, PowerState.IO_WAIT, PowerState.CPU_BUSY)
        self.clean = False
        self.psm.set_state(PowerState.CPU_BUSY)

    def start_io_wait(self) -> None:
        """The function is blocked on network/service I/O."""
        self._require(PowerState.IDLE, PowerState.CPU_BUSY, PowerState.IO_WAIT)
        self.clean = False
        self.psm.set_state(PowerState.IO_WAIT)

    def finish_job(self) -> None:
        """A job's result has been returned to the orchestrator."""
        self.jobs_completed += 1
        self.psm.set_state(PowerState.IDLE)

    # -- helpers ---------------------------------------------------------------

    @property
    def watts(self) -> float:
        """Instantaneous power draw."""
        return self.psm.watts

    @property
    def trace(self):
        """The node's power trace."""
        return self.psm.trace

    def _require(self, *states: PowerState) -> None:
        if self.psm.state not in states:
            raise RuntimeError(
                f"node {self.node_id}: invalid transition from {self.psm.state}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SBC #{self.node_id} {self.spec.name} state={self.state.value} "
            f"boots={self.boot_count} jobs={self.jobs_completed}>"
        )


__all__ = ["SingleBoardComputer"]
