"""WattsUp-Pro-style sampling power meter, the tests' sampling oracle.

The paper measures each cluster's total energy with a *WattsUp Pro* wall
meter.  The meter samples instantaneous power at 1 Hz and accumulates
energy as ``sum(sample * interval)``.  This module reproduces those
measurement semantics as a simulation process.  No run uses it: results
integrate the power traces exactly
(:meth:`~repro.cluster.harness.ClusterHarness.energy_joules`).  Tests
sample the traces with it, through :func:`metered_watts`, to check that
every run path leaves the same instantaneous draw at each sample.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.cluster.pool import SbcPool
from repro.sim.kernel import Environment, Interrupt


class PowerMeter:
    """Samples a power signal at a fixed interval and integrates energy.

    Parameters
    ----------
    env:
        Simulation environment.
    watts_fn:
        Zero-argument callable returning instantaneous watts of the
        metered equipment (e.g. the sum over a cluster's nodes).
    interval_s:
        Sampling interval; the WattsUp Pro logs once per second.
    """

    def __init__(
        self,
        env: Environment,
        watts_fn: Callable[[], float],
        interval_s: float = 1.0,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        self.env = env
        self.watts_fn = watts_fn
        self.interval_s = interval_s
        self.samples: List[Tuple[float, float]] = []
        self._energy_joules = 0.0
        self._process = None
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None

    def start(self) -> None:
        """Begin sampling now."""
        if self._process is not None:
            raise RuntimeError("meter already started")
        self._started_at = self.env.now
        self._process = self.env.process(self._run(), name="power-meter")

    def stop(self) -> None:
        """Stop sampling."""
        if self._process is None:
            raise RuntimeError("meter was never started")
        if self._stopped_at is None:
            self._stopped_at = self.env.now
            if self._process.is_alive:
                self._process.interrupt("stop")

    def _run(self):
        # Each sample is taken at the *end* of its interval and charged
        # for the whole interval, matching an accumulating wall meter.
        try:
            while True:
                yield self.env.timeout(self.interval_s)
                watts = float(self.watts_fn())
                self.samples.append((self.env.now, watts))
                self._energy_joules += watts * self.interval_s
        except Interrupt:
            return

    # -- readings --------------------------------------------------------------

    @property
    def energy_joules(self) -> float:
        """Accumulated energy reading (left-rectangle integration)."""
        return self._energy_joules

    @property
    def sample_count(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        """Metered wall time so far."""
        if self._started_at is None:
            return 0.0
        end = self._stopped_at if self._stopped_at is not None else self.env.now
        return end - self._started_at

    def average_watts(self) -> float:
        """Mean of the recorded samples."""
        if not self.samples:
            raise RuntimeError("no samples recorded")
        return sum(w for _, w in self.samples) / len(self.samples)

    def peak_watts(self) -> float:
        """Highest recorded sample."""
        if not self.samples:
            raise RuntimeError("no samples recorded")
        return max(w for _, w in self.samples)


def pool_watts(pool) -> float:
    """Instantaneous draw of one pool's metered hardware: its boards, or
    its VM host."""
    if isinstance(pool, SbcPool):
        return sum(sbc.watts for sbc in pool.sbcs)
    return pool.server.watts


def metered_watts(cluster) -> float:
    """Instantaneous draw of what
    :meth:`~repro.cluster.harness.ClusterHarness.energy_joules` covers:
    every pool's hardware, plus the switches if the cluster meters them
    (the paper meters the compute, not the fabric)."""
    watts = sum(pool_watts(pool) for pool in cluster.pools)
    if cluster.include_switch_power:
        watts += sum(switch.watts for switch in cluster.switches)
    return watts
