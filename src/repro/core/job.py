"""Jobs and their lifecycle.

A :class:`Job` is one function invocation travelling through the
platform: submitted to the OP, assigned to a worker queue, executed
run-to-completion, and completed with its result timestamps.  The
timestamps mirror what the paper's OP and workers record (Sec. V uses
them to split runtime into *Working* and *Overhead*).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional


class JobStatus(enum.Enum):
    """Lifecycle states of a job."""

    SUBMITTED = "submitted"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"

    def can_transition_to(self, new: "JobStatus") -> bool:
        return new in _ALLOWED_TRANSITIONS[self]


#: Lifecycle DAG, built once — ``can_transition_to`` runs three times per
#: job, so rebuilding this mapping per call dominated large replays.
_ALLOWED_TRANSITIONS = {
    JobStatus.SUBMITTED: frozenset({JobStatus.QUEUED}),
    JobStatus.QUEUED: frozenset({JobStatus.RUNNING}),
    JobStatus.RUNNING: frozenset({JobStatus.COMPLETED, JobStatus.FAILED}),
    JobStatus.COMPLETED: frozenset(),
    JobStatus.FAILED: frozenset(),
}


@dataclass
class Job:
    """One function invocation."""

    job_id: int
    function: str
    input_bytes: int
    output_bytes: int
    payload: Optional[Dict[str, Any]] = None
    status: JobStatus = JobStatus.SUBMITTED
    #: Timestamps (simulated seconds); None until the event happens.
    t_submit: Optional[float] = None
    t_queued: Optional[float] = None
    t_started: Optional[float] = None
    t_completed: Optional[float] = None
    worker_id: Optional[int] = None
    failure: Optional[str] = None
    #: How many times the job has been (re)assigned after worker faults.
    attempts: int = 0
    #: At-least-once delivery: attempts of the same logical invocation
    #: share one key, so the OP can suppress duplicate results.  Stamped
    #: at submission; clones (hedges, timeout retries) inherit it.
    idempotency_key: Optional[str] = None
    #: Owning tenant for energy budgeting (see
    #: :class:`repro.core.policies.BudgetPolicy`); None means untenanted
    #: — the ledger and budget layers skip the job entirely.  Clones
    #: inherit it, so every attempt bills the same account.
    tenant: Optional[str] = None
    #: Tracing (see :mod:`repro.obs`): the trace this invocation belongs
    #: to, set at submission iff an enabled recorder sampled it — None
    #: is the "not traced" fast path every hot-path guard checks.
    #: Clones inherit it, so all attempts land in one trace.
    trace_id: Optional[int] = None
    #: The open attempt span this Job object is currently executing
    #: under (a recorder span id); owned by whichever worker claimed
    #: the attempt, cleared when the span closes.
    trace_attempt: Optional[int] = None

    def __post_init__(self) -> None:
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise ValueError("payload sizes must be non-negative")
        if not self.function:
            raise ValueError("job needs a function name")

    def transition(self, new: JobStatus, now: float) -> None:
        """Advance the lifecycle, stamping the matching timestamp."""
        if not self.status.can_transition_to(new):
            raise ValueError(
                f"job {self.job_id}: illegal transition "
                f"{self.status.value} -> {new.value}"
            )
        self.status = new
        if new is JobStatus.QUEUED:
            self.t_queued = now
        elif new is JobStatus.RUNNING:
            self.t_started = now
        elif new in (JobStatus.COMPLETED, JobStatus.FAILED):
            self.t_completed = now

    def reset_for_retry(self) -> None:
        """Return a lost job (dead worker) to the submittable state.

        Only queued or running jobs can be retried; completed/failed
        jobs are terminal.
        """
        if self.status not in (JobStatus.QUEUED, JobStatus.RUNNING):
            raise ValueError(
                f"job {self.job_id}: cannot retry from {self.status.value}"
            )
        self.status = JobStatus.SUBMITTED
        self.attempts += 1
        self.t_started = None
        self.worker_id = None
        self.trace_attempt = None

    def spawn_attempt(self) -> "Job":
        """Clone this job as a fresh attempt (hedge or timeout retry).

        At-least-once execution on run-to-completion workers cannot
        cancel an in-flight attempt, so a retry is a *new* Job object
        with a fresh lifecycle, sharing the logical identity (job_id,
        idempotency key, payload).  The OP keeps this object as the
        canonical record and suppresses whichever result arrives second.
        """
        clone = Job(
            job_id=self.job_id,
            function=self.function,
            input_bytes=self.input_bytes,
            output_bytes=self.output_bytes,
            payload=self.payload,
            idempotency_key=self.idempotency_key,
            tenant=self.tenant,
        )
        clone.t_submit = self.t_submit
        clone.trace_id = self.trace_id
        self.attempts += 1
        return clone

    def absorb_completion(self, now: float) -> None:
        """Mark the canonical record done off a duplicate attempt's result.

        The canonical object may sit QUEUED on a slow worker while its
        hedge completes, so this bypasses the transition table: it is
        only ever called by the orchestrator for the first result of a
        logical job.
        """
        self.status = JobStatus.COMPLETED
        if self.t_completed is None:
            self.t_completed = now

    @property
    def is_finished(self) -> bool:
        return self.status in (JobStatus.COMPLETED, JobStatus.FAILED)

    @property
    def queue_wait_s(self) -> float:
        """Time spent waiting in a worker queue."""
        if self.t_queued is None or self.t_started is None:
            raise ValueError(f"job {self.job_id} has not started")
        return self.t_started - self.t_queued

    @property
    def end_to_end_s(self) -> float:
        """Submission to completion."""
        if self.t_submit is None or self.t_completed is None:
            raise ValueError(f"job {self.job_id} has not completed")
        return self.t_completed - self.t_submit


__all__ = ["Job", "JobStatus"]
