"""MicroFaaS cluster orchestration platform (the paper's OP).

The orchestration platform (Sec. IV-D) is the paper's control plane: it
keeps one job queue per worker, assigns each incoming invocation to a
queue (the paper samples queues uniformly at random), powers workers on
and off through GPIO lines, and records the timestamps every experiment
in Sec. V is computed from.

- :mod:`repro.core.job` — jobs, status lifecycle, invocation records.
- :mod:`repro.core.queue` — per-worker job queues.
- :mod:`repro.core.scheduler` — assignment policies (random sampling
  plus round-robin / least-loaded / packing extensions).
- :mod:`repro.core.gpio` — the PWR_BUT control lines.
- :mod:`repro.core.lifecycle` — the run-to-completion worker policy
  (reboot between jobs, power off when idle).
- :mod:`repro.core.telemetry` — data collection and aggregate metrics.
- :mod:`repro.core.policies` — recovery policies (retry budgets,
  hedging, per-worker circuit breakers) for at-least-once execution.
- :mod:`repro.core.orchestrator` — the OP itself.
"""

from repro.core.gpio import GpioBank
from repro.core.job import Job, JobStatus
from repro.core.lifecycle import RunToCompletionPolicy
from repro.core.orchestrator import Orchestrator
from repro.core.policies import (
    BreakerState,
    BudgetPolicy,
    RecoveryPolicy,
    TenantBudgetController,
    WorkerHealthTracker,
)
from repro.core.queue import WorkerQueue
from repro.core.scheduler import (
    AssignmentPolicy,
    CarbonAwarePolicy,
    EnergyAwarePolicy,
    LeastLoadedPolicy,
    PackingPolicy,
    RandomSamplingPolicy,
    RoundRobinPolicy,
    SchedulingState,
    make_policy,
)
from repro.core.telemetry import InvocationRecord, TelemetryCollector
from repro.core.warmpool import WarmPool

__all__ = [
    "AssignmentPolicy",
    "BreakerState",
    "BudgetPolicy",
    "CarbonAwarePolicy",
    "EnergyAwarePolicy",
    "GpioBank",
    "InvocationRecord",
    "Job",
    "JobStatus",
    "LeastLoadedPolicy",
    "Orchestrator",
    "PackingPolicy",
    "RandomSamplingPolicy",
    "RecoveryPolicy",
    "RoundRobinPolicy",
    "RunToCompletionPolicy",
    "SchedulingState",
    "TelemetryCollector",
    "TenantBudgetController",
    "WorkerHealthTracker",
    "WorkerQueue",
    "make_policy",
]
