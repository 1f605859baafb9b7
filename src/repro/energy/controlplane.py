"""The energy control plane: online attribution, forecasts, signals.

- :class:`EnergyLedger` — the one per-invocation energy engine.  It
  holds the worker → board power-trace map and the window integral
  (:meth:`EnergyLedger.window_joules`) that both its own billing and
  the per-span view (:func:`repro.obs.energy.attribute`) read.  Updated
  incrementally from the orchestrator's job-transition path, each
  per-board-metered worker carries a billing cursor; a delivered
  attempt bills its service window (``t_started`` → ``t_completed``)
  to its function and tenant, the gap since the previous bill goes to
  the shared ``idle`` overhead pool, and crashed or duplicate attempts
  bill to ``wasted`` — never double-counted.  By construction the
  billed segments partition each covered trace, so invocation +
  overhead joules reconcile against the metered total to
  float-accumulation error (≤1e-9 in the test suite).
- :class:`ArrivalForecast` — EWMA rate estimate over fixed sampling
  ticks, with idle-detection reset, feeding predictive warm-pool sizing.
- :class:`WarmingAccount` — the explicit joules-spent-warming vs
  cold-boots-avoided balance sheet a warm pool settles.
- :class:`CarbonSignal` — a deterministic time-varying carbon-intensity
  (or price) curve per region; optional noise is pre-sampled from a
  named RNG stream at construction, so reading the signal mid-run draws
  nothing.

Everything here is opt-in: an orchestrator without a ledger, a warm
pool without a forecast, and a scheduler without signals behave
bit-identically to the pre-control-plane platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class ReconciliationReport:
    """One conservation check: metered vs attributed joules."""

    metered_joules: float
    attributed_joules: float

    @property
    def residual_joules(self) -> float:
        return self.metered_joules - self.attributed_joules

    def ok(self, tolerance_j: float = 1e-9) -> bool:
        return abs(self.residual_joules) <= tolerance_j


class EnergyLedger:
    """Online double-entry energy attribution over per-board meters.

    Scope: workers with their own power trace (SBCs).  A microVM is
    metered at the host wall shared with its siblings, so per-guest
    attribution is not physically meaningful; its windows integrate to
    0.0 J.

    The orchestrator drives the ledger from its completion/failure/
    recovery paths; nothing here advances simulated time or draws RNG,
    so attaching a ledger never perturbs a run.
    """

    def __init__(self, clock):
        self._clock = clock
        self._traces: Dict[int, object] = {}
        self._cursor: Dict[int, float] = {}
        #: Delivered active joules per function (service windows).
        self.function_joules: Dict[str, float] = {}
        #: Joules per tenant: delivered *and* wasted attempts — a
        #: tenant's crashes and lost hedges burn its budget too.
        self.tenant_joules: Dict[str, float] = {}
        #: Shared overhead pools: ``idle`` (boot/idle/off time between
        #: attempts) and ``wasted`` (crashed or duplicate attempts).
        self.overhead_joules: Dict[str, float] = {"idle": 0.0, "wasted": 0.0}
        self.attempts_billed = 0
        self.wasted_attempts = 0

    # -- wiring ----------------------------------------------------------------

    def register_worker(self, worker_id: int, trace) -> None:
        """Cover one worker's power trace, billing from its origin."""
        if worker_id in self._traces:
            raise ValueError(f"worker {worker_id} already registered")
        self._traces[worker_id] = trace
        self._cursor[worker_id] = trace.start_time

    def register_cluster(self, cluster) -> int:
        """Cover every per-board-metered worker of a harness-built
        cluster; returns how many boards are now covered."""
        count = 0
        for pool in cluster.pools:
            for sbc in getattr(pool, "sbcs", ()):
                self.register_worker(sbc.node_id, sbc.trace)
                count += 1
        return count

    def window_joules(self, worker_id, start: float, end: float) -> float:
        """Joules ``worker_id``'s board drew over ``[start, end]``; 0.0
        for a worker the ledger does not cover (VM guests, remote
        shard workers, no worker at all)."""
        trace = self._traces.get(worker_id)
        if trace is None:
            return 0.0
        return trace.energy_joules(start, end)

    # -- billing (orchestrator hooks) ------------------------------------------

    def bill_attempt(self, job, t_end: float, delivered: bool) -> None:
        """Bill one finished attempt's service window.

        ``delivered=True`` books the window to the job's function (and
        tenant); duplicates and crashed attempts book to ``wasted``.
        The idle gap between the previous bill and this window goes to
        the ``idle`` pool either way.  Unmetered workers (VM guests,
        remote shard workers) are ignored.
        """
        worker_id = job.worker_id
        start = job.t_started
        if start is None or worker_id not in self._cursor:
            return
        cursor = self._cursor[worker_id]
        if start > cursor:
            self.overhead_joules["idle"] += self.window_joules(
                worker_id, cursor, start
            )
        elif start < cursor:
            # An interim settle() billed part of this running attempt's
            # window to idle; reclaim it so the invocation keeps its
            # exact service window and nothing is counted twice.
            self.overhead_joules["idle"] -= self.window_joules(
                worker_id, start, cursor
            )
        window_j = self.window_joules(worker_id, start, t_end)
        if delivered:
            self.function_joules[job.function] = (
                self.function_joules.get(job.function, 0.0) + window_j
            )
        else:
            self.overhead_joules["wasted"] += window_j
            self.wasted_attempts += 1
        tenant = getattr(job, "tenant", None)
        if tenant is not None:
            self.tenant_joules[tenant] = (
                self.tenant_joules.get(tenant, 0.0) + window_j
            )
        self._cursor[worker_id] = max(cursor, t_end)
        self.attempts_billed += 1

    def bill_crashed_attempt(self, job, t_end: float) -> None:
        """Bill a crashed attempt (worker died mid-job) as wasted.

        Called *before* ``reset_for_retry`` clears the attempt's
        ``t_started``/``worker_id``; queued attempts that never started
        have no window and bill nothing.
        """
        self.bill_attempt(job, t_end, delivered=False)

    # -- settlement / queries --------------------------------------------------

    def settle(self, end: float) -> None:
        """Bill every covered worker's unattributed tail up to ``end``
        into the ``idle`` pool (energy of an attempt still in flight is
        reclaimed when that attempt lands — see :meth:`bill_attempt`)."""
        for worker_id, trace in self._traces.items():
            cursor = self._cursor[worker_id]
            if end > cursor:
                self.overhead_joules["idle"] += trace.energy_joules(
                    cursor, end
                )
                self._cursor[worker_id] = end

    def attributed_joules(self) -> float:
        """Everything billed so far: invocations plus overhead pools."""
        return sum(self.function_joules.values()) + sum(
            self.overhead_joules.values()
        )

    def metered_joules(self, end: float) -> float:
        """Ground truth: covered traces integrated from their origin."""
        return sum(
            trace.energy_joules(trace.start_time, end)
            for trace in self._traces.values()
        )

    def reconcile(self, end: Optional[float] = None) -> ReconciliationReport:
        """Settle tails through ``end`` (default: now) and report the
        conservation check.  Callable mid-flight: in-flight attempts'
        energy sits in ``idle`` until they land."""
        if end is None:
            end = self._clock()
        self.settle(end)
        return ReconciliationReport(
            metered_joules=self.metered_joules(end),
            attributed_joules=self.attributed_joules(),
        )


class ArrivalForecast:
    """EWMA arrival-rate forecast over fixed sampling ticks.

    Feed one instantaneous rate per tick; read ``rate_hat``.  The first
    observation seeds the estimate (no cold-start bias toward zero), and
    ``idle_ticks_to_reset`` consecutive zero ticks snap the forecast to
    zero — a plain EWMA decays geometrically and would hold a warm pool
    open long after traffic stops.
    """

    def __init__(self, alpha: float = 0.5, idle_ticks_to_reset: int = 2):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if idle_ticks_to_reset < 1:
            raise ValueError("idle_ticks_to_reset must be >= 1")
        self.alpha = alpha
        self.idle_ticks_to_reset = idle_ticks_to_reset
        self.rate_hat = 0.0
        self.observations = 0
        self._zero_streak = 0

    def observe(self, instant_rate: float) -> float:
        """Fold one tick's observed rate in; returns the new forecast."""
        if instant_rate < 0:
            raise ValueError(f"negative rate: {instant_rate}")
        if instant_rate == 0:
            self._zero_streak += 1
        else:
            self._zero_streak = 0
        if self._zero_streak >= self.idle_ticks_to_reset:
            self.rate_hat = 0.0
        elif self.observations == 0:
            self.rate_hat = instant_rate
        else:
            self.rate_hat = (
                self.alpha * instant_rate
                + (1.0 - self.alpha) * self.rate_hat
            )
        self.observations += 1
        return self.rate_hat


@dataclass(frozen=True)
class WarmingAccount:
    """The warm pool's balance sheet: joules spent idling warm boards
    vs the boot energy those warm claims avoided."""

    joules_spent_warming: float
    cold_boots_avoided: int
    #: Energy of one avoided boot (boot draw × boot time) on the
    #: warmable platform.
    boot_joules_each: float

    @property
    def joules_saved_booting(self) -> float:
        return self.cold_boots_avoided * self.boot_joules_each

    @property
    def net_joules(self) -> float:
        """Positive when warming saved more boot energy than it burned
        keeping boards idle."""
        return self.joules_saved_booting - self.joules_spent_warming


class CarbonSignal:
    """A deterministic time-varying carbon-intensity (or price) curve.

    ``cost_at(now)`` is a diurnal sinusoid around ``base`` plus an
    optional piecewise-constant noise table.  The noise is pre-sampled
    at construction from a named RNG stream, so reading the signal
    mid-run draws nothing — routing decisions stay bit-identical no
    matter how often anyone looks.
    """

    def __init__(
        self,
        base: float,
        amplitude: float = 0.0,
        period_s: float = 86400.0,
        phase_s: float = 0.0,
        noise_steps=(),
        noise_step_s: float = 3600.0,
    ):
        if base < 0:
            raise ValueError(f"negative base cost: {base}")
        if amplitude < 0 or amplitude > base:
            raise ValueError("amplitude must be in [0, base]")
        if period_s <= 0 or noise_step_s <= 0:
            raise ValueError("periods must be positive")
        self.base = base
        self.amplitude = amplitude
        self.period_s = period_s
        self.phase_s = phase_s
        self.noise_steps = tuple(noise_steps)
        self.noise_step_s = noise_step_s

    @classmethod
    def from_stream(
        cls,
        streams,
        name: str,
        base: float,
        amplitude: float = 0.0,
        period_s: float = 86400.0,
        phase_s: float = 0.0,
        noise: float = 0.0,
        noise_slots: int = 24,
        noise_step_s: float = 3600.0,
    ) -> "CarbonSignal":
        """Pre-sample a noisy signal from a named stream family.

        All ``noise_slots`` offsets are drawn here, from the spawned
        ``carbon-<name>`` stream — nothing shared with the simulation's
        streams, nothing drawn later.
        """
        spawned = streams.spawn(f"carbon-{name}")
        steps = tuple(
            spawned.uniform(f"slot-{slot}", -noise, noise)
            for slot in range(noise_slots)
        )
        return cls(
            base=base,
            amplitude=amplitude,
            period_s=period_s,
            phase_s=phase_s,
            noise_steps=steps if noise > 0 else (),
            noise_step_s=noise_step_s,
        )

    def cost_at(self, now: float) -> float:
        """Signal value at simulated time ``now`` (clamped to >= 0)."""
        value = self.base + self.amplitude * math.sin(
            TAU * (now + self.phase_s) / self.period_s
        )
        if self.noise_steps:
            slot = int(now // self.noise_step_s) % len(self.noise_steps)
            value += self.noise_steps[slot]
        return max(0.0, value)


__all__ = [
    "ArrivalForecast",
    "CarbonSignal",
    "EnergyLedger",
    "ReconciliationReport",
    "WarmingAccount",
]
