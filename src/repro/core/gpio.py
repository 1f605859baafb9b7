"""GPIO power-control lines between the OP and its workers.

The testbed wires the OP's GPIO pins to each worker SBC's PWR_BUT pin
(Sec. IV-D) so the OP can wake workers; a worker powers itself off
when its job is done.  A :class:`GpioBank` models that wiring: one line
per worker, each bound to a power-on callable and a power sense, with a
small actuation latency and pulse accounting (real power buttons are
edge-triggered).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

#: Time between asserting the line and the board reacting, seconds.
DEFAULT_ACTUATION_S = 5e-3


@dataclass
class GpioLine:
    """One PWR_BUT line."""

    worker_id: int
    power_on: Callable[[], None]
    is_powered: Callable[[], bool]
    pulses: int = 0


class GpioBank:
    """The OP's bank of power-control lines."""

    def __init__(self, actuation_s: float = DEFAULT_ACTUATION_S):
        if actuation_s < 0:
            raise ValueError("actuation latency cannot be negative")
        self.actuation_s = actuation_s
        self._lines: Dict[int, GpioLine] = {}
        #: Chaos state: lines whose pulses currently do nothing (a loose
        #: jumper, a blown level shifter).
        self._stuck: set = set()

    def break_line(self, worker_id: int) -> None:
        """Make a line's pulses ineffective until repaired."""
        self.line(worker_id)  # validate
        self._stuck.add(worker_id)

    def repair_line(self, worker_id: int) -> None:
        self._stuck.discard(worker_id)

    def is_stuck(self, worker_id: int) -> bool:
        return worker_id in self._stuck

    def connect(
        self,
        worker_id: int,
        power_on: Callable[[], None],
        is_powered: Callable[[], bool],
    ) -> None:
        """Wire a worker's PWR_BUT to the bank."""
        if worker_id in self._lines:
            raise ValueError(f"worker {worker_id} already wired")
        self._lines[worker_id] = GpioLine(worker_id, power_on, is_powered)

    def line(self, worker_id: int) -> GpioLine:
        if worker_id not in self._lines:
            raise KeyError(f"no GPIO line for worker {worker_id}")
        return self._lines[worker_id]

    @property
    def worker_count(self) -> int:
        return len(self._lines)

    def assert_power_on(self, worker_id: int) -> bool:
        """Pulse the line to wake a worker; no-op if already powered.

        Returns True if a pulse was sent.
        """
        line = self.line(worker_id)
        if line.is_powered():
            return False
        line.pulses += 1
        if worker_id in self._stuck:
            return False  # the pulse went nowhere
        line.power_on()
        return True


__all__ = ["DEFAULT_ACTUATION_S", "GpioBank", "GpioLine"]
