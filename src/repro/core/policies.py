"""Orchestrator recovery policies and per-worker health tracking.

The paper's OP assumes workers either finish a job or die cleanly; a
production fleet of power-cycled SBCs also boots slowly, hangs
mid-transfer, and flaps.  This module holds the knobs and state machines
the orchestrator uses to survive that:

- :class:`RecoveryPolicy` — per-job deadlines and retry budgets with
  exponential backoff + deterministic jitter, straggler hedging
  thresholds, and circuit-breaker parameters.  Recovery is opt-in: an
  orchestrator built without a policy behaves exactly as before.
- :class:`WorkerHealthTracker` — a per-worker consecutive-failure
  circuit breaker (CLOSED → OPEN → HALF_OPEN) that quarantines flapping
  boards and feeds the scheduler's candidate set.
- :class:`BudgetPolicy` / :class:`TenantBudgetController` — per-tenant
  energy budgets over fixed windows, metered live from the
  :class:`~repro.energy.controlplane.EnergyLedger`.  A tenant that
  exhausts its window is throttled (delayed to the next window, shed,
  or the cluster is down-clocked); the layer sits *under* the recovery
  stack — retries and hedges of an admitted job are never re-gated —
  and is opt-in like everything else here.

Everything is deterministic: backoff jitter derives from the job id and
attempt number via SHA-256 (:func:`repro.sim.rng.derive_seed`), never
from a shared RNG, so recovery decisions are identical across runs and
process counts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.backoff import backoff_delay_s


@dataclass(frozen=True)
class RecoveryPolicy:
    """Tunable recovery behaviour for the orchestration platform.

    All timeouts are in simulated seconds.  ``attempt_timeout_s`` and
    ``hedge_after_s`` are measured from the moment an attempt starts
    *running* (queue wait under saturation is normal and must not
    trigger retries); ``job_deadline_s`` — when set — is measured from
    submission and is the only way a job can be abandoned.
    """

    #: Supervisor scan period.
    tick_s: float = 0.5
    #: Re-launch an attempt if none has delivered this long after the
    #: last launch (covers runaway executions, e.g. a dropped link).
    attempt_timeout_s: float = 25.0
    #: Launch one duplicate (hedge) for an attempt running this long;
    #: ``None`` disables hedging.
    hedge_after_s: Optional[float] = 8.0
    #: Total attempts per job (initial + crash resubmissions + timeout
    #: retries + hedges).
    max_attempts: int = 6
    #: Exponential backoff for timeout retries.
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 4.0
    #: Jitter as a fraction of the computed backoff (0 disables).
    backoff_jitter: float = 0.2
    #: Abandon a job outright this long after submission (``None`` =
    #: never; jobs are retried until the budget runs out instead).
    job_deadline_s: Optional[float] = None
    #: A worker whose board is off while work is assigned to it for this
    #: long is declared stuck and its queue recovered.
    stuck_worker_grace_s: float = 3.0
    #: Circuit breaker: consecutive failures that open the breaker, and
    #: how long the worker stays quarantined before a half-open probe.
    circuit_failure_threshold: int = 3
    quarantine_s: float = 30.0

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise ValueError("tick must be positive")
        if self.attempt_timeout_s <= 0:
            raise ValueError("attempt timeout must be positive")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError("hedge threshold must be positive")
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff times cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.job_deadline_s is not None and self.job_deadline_s <= 0:
            raise ValueError("job deadline must be positive")
        if self.stuck_worker_grace_s <= 0:
            raise ValueError("stuck-worker grace must be positive")
        if self.circuit_failure_threshold < 1:
            raise ValueError("failure threshold must be >= 1")
        if self.quarantine_s < 0:
            raise ValueError("quarantine cannot be negative")

    def backoff_s(self, attempt: int, job_id: int) -> float:
        """Backoff before launching retry number ``attempt`` (1-based).

        Exponential with a cap, plus deterministic jitter in
        ``[0, backoff_jitter]`` of the base value derived from the job
        id — the same (job, attempt) always backs off identically.
        Delegates to the shared :func:`repro.core.backoff.backoff_delay_s`.
        """
        return backoff_delay_s(
            attempt,
            base_s=self.backoff_base_s,
            factor=self.backoff_factor,
            max_s=self.backoff_max_s,
            jitter=self.backoff_jitter,
            key=job_id,
            salt="backoff",
        )


#: Throttle actions a :class:`BudgetPolicy` may take on an exhausted
#: tenant window.
BUDGET_ACTIONS = ("delay", "shed", "downclock")


@dataclass(frozen=True)
class BudgetPolicy:
    """Per-tenant energy budgets over fixed accounting windows.

    Joules are metered from the energy ledger (delivered *and* wasted
    attempts bill the owning tenant).  Once a tenant's use in the
    current window reaches its budget, new submissions are throttled:

    - ``delay`` — held until the next window boundary, then assigned
      normally (deterministic: the boundary is a pure function of the
      clock, never a backoff draw);
    - ``shed`` — rejected outright (the job fails with a budget reason,
      the only intentional loss path besides deadlines);
    - ``downclock`` — admitted, but the controller fires its down-clock
      hook (typically a cluster power cap) once per exhausted window.

    Gating applies at submission only: retries/hedges of an admitted
    job are recovery's business and are never re-gated, so this layer
    composes under :class:`RecoveryPolicy` without touching it.
    """

    window_s: float = 60.0
    #: Per-tenant budgets in joules per window.
    budgets_j: Mapping[str, float] = field(default_factory=dict)
    #: Budget for tenants not listed in ``budgets_j`` (None = unlimited).
    default_budget_j: Optional[float] = None
    action: str = "delay"

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("budget window must be positive")
        if self.action not in BUDGET_ACTIONS:
            raise ValueError(
                f"unknown budget action {self.action!r}; "
                f"known: {BUDGET_ACTIONS}"
            )
        for tenant, budget in self.budgets_j.items():
            if budget <= 0:
                raise ValueError(
                    f"tenant {tenant!r} budget must be positive, "
                    f"got {budget}"
                )
        if self.default_budget_j is not None and self.default_budget_j <= 0:
            raise ValueError("default budget must be positive")

    def budget_for(self, tenant: str) -> Optional[float]:
        """The tenant's joules-per-window budget (None = unlimited)."""
        return self.budgets_j.get(tenant, self.default_budget_j)


class TenantBudgetController:
    """Runtime state of a :class:`BudgetPolicy`: window bookkeeping and
    the admit/throttle decision, driven by the orchestrator's submit
    path.

    Deterministic by construction — decisions are pure functions of the
    clock and the ledger's tenant totals; no RNG is ever consulted.
    """

    def __init__(
        self,
        policy: BudgetPolicy,
        ledger,
        clock: Callable[[], float],
        downclock: Optional[Callable[[str], None]] = None,
    ):
        self.policy = policy
        self.ledger = ledger
        self._clock = clock
        self._downclock = downclock
        self._window_index = -1
        #: Ledger tenant totals snapshotted at the window roll.
        self._window_base_j: Dict[str, float] = {}
        #: Tenants already down-clocked this window (fire once each).
        self._downclocked: set = set()
        self.jobs_delayed = 0
        self.jobs_shed = 0
        self.downclocks = 0

    def _roll_window(self, now: float) -> None:
        index = int(now // self.policy.window_s)
        if index != self._window_index:
            self._window_index = index
            self._window_base_j = dict(self.ledger.tenant_joules)
            self._downclocked.clear()

    def window_use_j(self, tenant: str, now: float) -> float:
        """The tenant's metered joules in the current window."""
        self._roll_window(now)
        return self.ledger.tenant_joules.get(
            tenant, 0.0
        ) - self._window_base_j.get(tenant, 0.0)

    def next_window_in_s(self, now: float) -> float:
        """Seconds until the next window boundary."""
        window = self.policy.window_s
        boundary = (math.floor(now / window) + 1) * window
        return boundary - now

    def admit(self, job, now: float) -> Tuple[str, float]:
        """Gate one submission.

        Returns ``(verdict, delay_s)`` where verdict is ``"admit"``,
        ``"delay"`` (assign after ``delay_s``), or ``"shed"``.  The
        ``downclock`` action admits the job after firing the hook.
        """
        tenant = job.tenant
        if tenant is None:
            return ("admit", 0.0)
        budget = self.policy.budget_for(tenant)
        if budget is None:
            return ("admit", 0.0)
        if self.window_use_j(tenant, now) < budget:
            return ("admit", 0.0)
        action = self.policy.action
        if action == "shed":
            self.jobs_shed += 1
            return ("shed", 0.0)
        if action == "downclock":
            if tenant not in self._downclocked:
                self._downclocked.add(tenant)
                self.downclocks += 1
                if self._downclock is not None:
                    self._downclock(tenant)
            return ("admit", 0.0)
        self.jobs_delayed += 1
        return ("delay", self.next_window_in_s(now))


class BreakerState(enum.Enum):
    """Circuit-breaker states for one worker."""

    CLOSED = "closed"  # healthy, fully schedulable
    OPEN = "open"  # quarantined, no assignments
    HALF_OPEN = "half-open"  # probing: schedulable, one strike re-opens


@dataclass
class WorkerHealth:
    """Mutable health record for one worker."""

    worker_id: int
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    total_failures: int = 0
    total_successes: int = 0
    open_until: float = 0.0
    times_opened: int = 0


class WorkerHealthTracker:
    """Per-worker consecutive-failure circuit breaker.

    Failures come from crash detections, boot-retry exhaustion, stuck
    boards, and timeout retries attributed to a worker; successes from
    completed jobs.  ``circuit_failure_threshold`` consecutive failures
    open the breaker: the worker is quarantined for ``quarantine_s``,
    then allowed a half-open probe — one more failure re-opens it, a
    success closes it.
    """

    def __init__(self, failure_threshold: int = 3, quarantine_s: float = 30.0):
        if failure_threshold < 1:
            raise ValueError("failure threshold must be >= 1")
        if quarantine_s < 0:
            raise ValueError("quarantine cannot be negative")
        self.failure_threshold = failure_threshold
        self.quarantine_s = quarantine_s
        self._workers: Dict[int, WorkerHealth] = {}
        #: Workers whose breaker is not CLOSED.
        self._tripped: Set[int] = set()

    @classmethod
    def from_policy(cls, policy: RecoveryPolicy) -> "WorkerHealthTracker":
        return cls(policy.circuit_failure_threshold, policy.quarantine_s)

    def _health(self, worker_id: int) -> WorkerHealth:
        if worker_id not in self._workers:
            self._workers[worker_id] = WorkerHealth(worker_id)
        return self._workers[worker_id]

    def record_success(self, worker_id: int, now: float) -> None:
        """A job completed on the worker: reset its failure streak."""
        health = self._health(worker_id)
        health.consecutive_failures = 0
        health.total_successes += 1
        if health.state is not BreakerState.CLOSED:
            health.state = BreakerState.CLOSED
            health.open_until = 0.0
            self._tripped.discard(worker_id)

    def record_failure(self, worker_id: int, now: float) -> None:
        """A failure was attributed to the worker; may open the breaker."""
        health = self._health(worker_id)
        health.consecutive_failures += 1
        health.total_failures += 1
        if health.state is BreakerState.HALF_OPEN:
            # Probe failed: straight back to quarantine.
            self._open(health, now)
        elif (
            health.state is BreakerState.CLOSED
            and health.consecutive_failures >= self.failure_threshold
        ):
            self._open(health, now)

    def _open(self, health: WorkerHealth, now: float) -> None:
        health.state = BreakerState.OPEN
        health.open_until = now + self.quarantine_s
        health.times_opened += 1
        self._tripped.add(health.worker_id)

    def reset(self, worker_id: int, now: float) -> None:
        """A repaired/replaced worker rejoins with a clean slate."""
        health = self._health(worker_id)
        health.state = BreakerState.CLOSED
        health.consecutive_failures = 0
        health.open_until = 0.0
        self._tripped.discard(worker_id)

    def is_available(self, worker_id: int, now: float) -> bool:
        """Whether the scheduler may assign to the worker right now.

        An OPEN breaker whose quarantine elapsed transitions to
        HALF_OPEN here (the query doubles as the probe gate) — the
        simulation is single-threaded, so mutating on read is safe.
        """
        health = self._workers.get(worker_id)
        if health is None or health.state is BreakerState.CLOSED:
            return True
        if health.state is BreakerState.OPEN:
            if now >= health.open_until:
                health.state = BreakerState.HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: probing

    def unavailable(self, now: float, dead) -> Set[int]:
        """Alive workers the breaker bars from assignment right now.

        Reads :meth:`is_available` (and so moves elapsed quarantines to
        HALF_OPEN) for exactly the alive workers whose breaker is not
        CLOSED; a read on a CLOSED breaker would change nothing.
        """
        return {
            wid
            for wid in self._tripped
            if wid not in dead and not self.is_available(wid, now)
        }

    def state_of(self, worker_id: int) -> BreakerState:
        health = self._workers.get(worker_id)
        return health.state if health is not None else BreakerState.CLOSED

    def quarantined(self, now: float) -> List[int]:
        """Worker ids currently barred from assignment."""
        return sorted(
            wid
            for wid, health in self._workers.items()
            if health.state is BreakerState.OPEN and now < health.open_until
        )

    def snapshot(self) -> Dict[int, WorkerHealth]:
        """The raw health records (for telemetry/experiments)."""
        return dict(self._workers)


__all__ = [
    "BUDGET_ACTIONS",
    "BreakerState",
    "BudgetPolicy",
    "RecoveryPolicy",
    "TenantBudgetController",
    "WorkerHealth",
    "WorkerHealthTracker",
]
