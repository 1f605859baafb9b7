"""Warm-pool controller: masking the cold boot with pre-booted boards.

MicroFaaS pays 1.51 s of boot on every invocation — the clean-state
guarantee.  A warm pool keeps some boards *pre-booted*: after finishing
a job with an empty queue, a warm board reboots immediately and idles
powered-on, so its next tenant starts on a clean board with **zero**
boot latency.  The cost is idle power (1.05 W instead of 0.128 W) —
a classic latency/energy trade this controller makes measurable.

Two modes:

- **static** — a fixed number of warm boards (``WarmPool(cluster, k)``).
  Resizes only flip per-worker flags; power changes happen at each
  worker's own between-jobs decision point, exactly as before.
- **dynamic** — an autoscaling process that resizes the pool every
  ``interval_s`` from an :class:`~repro.energy.controlplane.
  ArrivalForecast` (EWMA over the observed submission rate, with
  idle-detection reset) instead of the raw last-interval snapshot, so
  one quiet interval no longer collapses the pool mid-burst.  Dynamic
  resizes are *proactive*: newly-warm boards that sit powered off are
  booted ahead of demand, and boards leaving the pool are powered off
  if idle — but a board mid-boot is never power-cycled, and busy
  boards are left to their own between-jobs logic.

The controller keeps the explicit energy account the trade-off talk
always hand-waves: :meth:`warming_account` returns joules spent idling
warm boards vs the boot energy their warm hits avoided.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.cluster.matching import mean_cycle_s
from repro.core.platform import ARM
from repro.energy.controlplane import ArrivalForecast, WarmingAccount
from repro.hardware import PowerState


class WarmPool:
    """Controls which of a cluster's warmable workers stay warm.

    Only workers with their own board-level power control (SBC workers)
    can be kept warm — a microVM's host is always hot, so "warm" is
    meaningless there.  On a hybrid cluster the pool therefore operates
    on the SBC subset and ignores the VM workers; on a pure MicroFaaS
    cluster this is every worker, exactly as before.
    """

    def __init__(self, cluster, size: int = 0):
        self.cluster = cluster
        self._warmable = [
            worker
            for worker in cluster.workers
            if getattr(worker, "sbc", None) is not None
        ]
        self._size = 0
        self.resize_history: List[tuple] = []
        #: Forecast driving dynamic mode (None until autoscale starts).
        self.forecast: Optional[ArrivalForecast] = None
        #: Boards booted ahead of demand by proactive resizes.
        self.proactive_boots = 0
        self._joules_spent_warming = 0.0
        self.set_size(size)

    @property
    def size(self) -> int:
        return self._size

    def set_size(self, size: int, proactive: bool = False) -> None:
        """Keep the first ``size`` warmable workers warm.

        By default (static mode) only the per-worker flags change, and
        power follows at each worker's next between-jobs decision
        point.  With ``proactive=True`` (dynamic mode) the resize also
        acts on idle boards immediately: a board joining the pool while
        powered off is pre-booted now, and an idle board leaving the
        pool is powered off now.  A board mid-boot is never touched —
        power-cycling a booting board would strand its in-flight boot
        timeline — and boards with work (running or queued) are left to
        the worker loop either way.
        """
        if not 0 <= size <= len(self._warmable):
            raise ValueError(
                f"warm-pool size {size} outside [0, "
                f"{len(self._warmable)}]"
            )
        self._size = size
        for index, worker in enumerate(self._warmable):
            was_warm = worker.keep_warm
            now_warm = index < size
            worker.keep_warm = now_warm
            if not proactive or now_warm == was_warm:
                continue
            if self._board_is_undisturbable(worker):
                continue
            sbc = worker.sbc
            if now_warm and not sbc.is_powered:
                self.proactive_boots += 1
                self.cluster.env.process(
                    self._prewarm(worker),
                    name=f"prewarm-{sbc.node_id}",
                )
            elif not now_warm and sbc.is_powered:
                sbc.power_off()
        self.resize_history.append((self.cluster.env.now, size))

    @staticmethod
    def _board_is_undisturbable(worker) -> bool:
        """Boards a proactive resize must leave alone: anything with
        work in flight or queued, and anything mid-boot."""
        return (
            worker.current_job is not None
            or worker.queue.depth > 0
            or worker.sbc.state is PowerState.BOOT
        )

    def _prewarm(self, worker):
        """Boot an off, idle board ahead of demand.

        If a job claims the board mid-boot the worker loop takes over
        its own boot timeline (it sees the BOOT state and re-runs the
        sequence), so this process only completes the boot when the
        board is still unclaimed.
        """
        sbc = worker.sbc
        sbc.power_on()
        yield self.cluster.env.timeout(worker.boot_real_s)
        if sbc.state is PowerState.BOOT and worker.current_job is None:
            sbc.boot_complete()
            if not worker.keep_warm:
                # Shrunk back out of the pool while booting; the boot
                # is complete (never cut mid-boot), so power down now.
                sbc.power_off()

    # -- the energy account ----------------------------------------------------------

    def warming_account(self) -> WarmingAccount:
        """The pool's balance sheet so far.

        Joules-spent-warming is metered at autoscale ticks (idle draw of
        warm boards × tick interval), so static pools report only the
        avoided-boot side unless the caller meters them explicitly via
        :meth:`meter_warming`.
        """
        boot_joules_each = 0.0
        if self._warmable:
            first = self._warmable[0]
            boot_joules_each = (
                first.sbc.spec.power.boot * first.boot_real_s
            )
        return WarmingAccount(
            joules_spent_warming=self._joules_spent_warming,
            cold_boots_avoided=sum(
                worker.boots_avoided for worker in self._warmable
            ),
            boot_joules_each=boot_joules_each,
        )

    def meter_warming(self, interval_s: float) -> None:
        """Charge one interval of warm-idle draw to the account.

        Samples each warm board's current state: a board idling warm
        bills ``idle_watts × interval``; boards working (or booting)
        bill nothing — that energy belongs to their jobs.
        """
        for worker in self._warmable:
            if worker.keep_warm and worker.sbc.state is PowerState.IDLE:
                self._joules_spent_warming += worker.sbc.watts * interval_s

    # -- dynamic sizing --------------------------------------------------------------

    def autoscale(
        self,
        interval_s: float = 10.0,
        headroom: float = 1.2,
        max_size: Optional[int] = None,
        alpha: float = 0.5,
        forecast: Optional[ArrivalForecast] = None,
    ):
        """Autoscaling process: run as ``env.process(pool.autoscale())``.

        Each interval it feeds the observed submission rate into the
        EWMA forecast and sizes the pool to
        ``ceil(rate_hat * mean_cycle * headroom)``.  The forecast's
        idle-reset still drains the pool to zero when traffic stops;
        ``alpha=1.0`` recovers the old instantaneous-snapshot sizing
        exactly.
        """
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1.0")
        if forecast is None:
            forecast = ArrivalForecast(alpha=alpha)
        self.forecast = forecast
        limit = (
            len(self._warmable) if max_size is None
            else min(max_size, len(self._warmable))
        )
        cycle = mean_cycle_s(ARM)  # only SBC workers are warmable
        orchestrator = self.cluster.orchestrator
        last_submitted = orchestrator._submitted
        env = self.cluster.env
        while True:
            yield env.timeout(interval_s)
            self.meter_warming(interval_s)
            submitted = orchestrator._submitted
            instant_rate = (submitted - last_submitted) / interval_s
            last_submitted = submitted
            rate_hat = forecast.observe(instant_rate)
            target = min(limit, math.ceil(rate_hat * cycle * headroom))
            if target != self._size:
                self.set_size(target, proactive=True)


__all__ = ["WarmPool"]
