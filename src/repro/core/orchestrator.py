"""The orchestration platform (OP).

Owns the per-worker queues, the assignment policy, the GPIO bank, and
the telemetry collector.  Workers (built by :mod:`repro.cluster`) pull
jobs from their queues and report completions back here.

Job flow (Sec. IV-D): ``submit`` stamps the job, the policy picks a
queue, the push triggers a GPIO power-on if that worker is sleeping, the
worker boots/executes/reports, and ``wait_all`` lets experiments run the
simulation until every submitted job has completed.

Recovery (opt-in via a :class:`~repro.core.policies.RecoveryPolicy`):
jobs carry idempotency keys and are executed *at least once* — crash
resubmission, per-attempt timeouts with backoff, and straggler hedging
may all launch duplicate attempts, and ``complete``/``fail`` deliver
exactly the first result per logical job, suppressing the rest.  A
:class:`~repro.core.policies.WorkerHealthTracker` circuit breaker
quarantines flapping boards out of the scheduler's candidate set.
Without a policy the orchestrator behaves exactly as before.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.core.gpio import GpioBank
from repro.core.job import Job, JobStatus
from repro.core.platform import ARM
from repro.core.policies import RecoveryPolicy, WorkerHealthTracker
from repro.core.queue import RemoteQueueStub, WorkerQueue
from repro.core.scheduler import (
    NO_BARRED,
    AssignmentPolicy,
    RandomSamplingPolicy,
    SchedulingState,
)
from repro.core.telemetry import InvocationRecord, TelemetryCollector
from repro.obs import trace as obs
from repro.obs.trace import NULL_RECORDER
from repro.sim.kernel import Environment, Event
from repro.workloads.profiles import profile_for


class Orchestrator:
    """The MicroFaaS control plane."""

    def __init__(
        self,
        env: Environment,
        policy: Optional[AssignmentPolicy] = None,
        gpio: Optional[GpioBank] = None,
        recovery: Optional[RecoveryPolicy] = None,
        telemetry: Optional[TelemetryCollector] = None,
        tracer=None,
    ):
        self.env = env
        self.policy = policy if policy is not None else RandomSamplingPolicy()
        self.gpio = gpio if gpio is not None else GpioBank()
        #: Span recorder (see :mod:`repro.obs`).  The default no-op
        #: recorder never samples, so ``job.trace_id`` stays None and
        #: every tracing hook below short-circuits on one comparison.
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        self.recovery = recovery
        self.health: Optional[WorkerHealthTracker] = (
            WorkerHealthTracker.from_policy(recovery)
            if recovery is not None
            else None
        )
        # Callers running at megatrace scale pass a streaming collector
        # (``TelemetryCollector(exact=False)``); the default retains
        # every record, as before.
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryCollector()
        )
        #: When True, finished jobs are dropped from :attr:`jobs` (and
        #: the delivered-id set) as their results arrive, keeping OP
        #: memory O(in-flight) instead of O(all-time).  Only safe
        #: without a recovery policy — duplicate suppression and retry
        #: bookkeeping need the full history — so megatrace-scale runs
        #: opt in explicitly.
        self.evict_finished = False
        self.queues: List[WorkerQueue] = []
        #: Per-worker outstanding loads, the dead set and platform tags:
        #: everything the policy reads (see :mod:`repro.core.scheduler`).
        self.state = SchedulingState(clock=lambda: env.now)
        self.policy.bind(self.state, self.queues, self._is_powered)
        self.jobs: Dict[int, Job] = {}
        #: Logical jobs not yet resolved, in submission order: what the
        #: recovery supervisor scans.  Kept only under a recovery
        #: policy; a job leaves at its first result, failure, give-up,
        #: shed or hand-off, while :attr:`jobs` keeps the history.
        self._in_flight: Optional[Dict[int, Job]] = (
            {} if recovery is not None else None
        )
        #: Energy control plane (opt-in; see
        #: :mod:`repro.energy.controlplane` and
        #: :class:`~repro.core.policies.TenantBudgetController`).  With
        #: both left None every hook below is one comparison and the
        #: run is bit-identical to the pre-control-plane platform.
        self.ledger = None
        self.budgets = None
        self.jobs_shed = 0
        #: Optional ``(job_id, function) -> tenant`` hook consulted by
        #: :meth:`make_job` so trace replays (which never construct jobs
        #: themselves) can run tenanted without a per-call tenant column.
        self.tenant_namer = None
        self.resubmissions = 0
        #: Recovery counters (only move when a policy is installed).
        self.duplicates_suppressed = 0
        self.timeout_retries = 0
        self.hedges = 0
        self.jobs_lost = 0
        self._next_job_id = 0
        self._submitted = 0
        self._completed = 0
        self._drain_events: List[Event] = []
        #: Logical jobs whose (first) result has been delivered.
        self._done: Set[int] = set()
        #: Attempts launched / last-launch time per logical job.
        self._attempt_count: Dict[int, int] = {}
        self._attempt_started: Dict[int, float] = {}
        self._hedged: Set[int] = set()
        #: When each worker's board was first seen off with work queued.
        self._board_stuck_since: Dict[int, float] = {}
        #: Boards that may have gone off owing work since the last
        #: stuck-worker scan (see :meth:`_scan_stuck_workers`).  Kept
        #: only under a recovery policy.
        self._maybe_stuck: Optional[Set[int]] = (
            set() if recovery is not None else None
        )
        #: No job scan can act before this instant (see
        #: :meth:`_scan_jobs`); lowered at every launch stamp.
        self._scan_due = math.inf
        #: Shortest launch-to-action wait: a timeout retry or a hedge.
        self._launch_wait_s: Optional[float] = None
        if recovery is not None:
            self._launch_wait_s = min(
                recovery.attempt_timeout_s,
                math.inf if recovery.hedge_after_s is None
                else recovery.hedge_after_s,
            )
        self._supervisor_running = False
        #: Sharding hooks (see :mod:`repro.shard`).  ``assign_override``
        #: lets a shard runtime capture policy-driven assignments (chaos
        #: salvage) for the coordinator to decide globally; the
        #: ``on_*`` callbacks report completions and worker liveness
        #: transitions at window boundaries; ``on_claim`` hears every
        #: claim as ``(job_id, worker_id, t_done or None, t_claim)``,
        #: with the completion instant when the worker could fix it.
        #: All default to ``None`` and cost one comparison when unused.
        self.assign_override: Optional[Callable[[Job, Optional[int]], bool]] = None
        self.on_claim: Optional[
            Callable[[int, int, Optional[float], float], None]
        ] = None
        self.on_complete: Optional[Callable[[Job, InvocationRecord], None]] = None
        self.on_worker_dead: Optional[Callable[[int], None]] = None
        self.on_worker_alive: Optional[Callable[[int], None]] = None
        #: Job-completion subscribers (see :meth:`on_job_done`).
        self._job_done_callbacks: List[
            Callable[[Job, Optional[InvocationRecord]], None]
        ] = []

    # -- workers ---------------------------------------------------------------

    def add_worker(self, platform: str = ARM, stub: bool = False) -> WorkerQueue:
        """Create the queue for a new worker, returning it.

        ``platform`` is the worker's tag (see
        :mod:`repro.cluster.platform`); heterogeneous clusters register
        workers of several platforms and platform-aware policies read
        the tag off each candidate queue.

        ``stub=True`` registers a :class:`RemoteQueueStub` instead of a
        live queue — blueprint-built shards claim the global id without
        paying for a store, wake hook, or enqueue path the shard can
        never use (see :mod:`repro.cluster.blueprint`).
        """
        self.state.add_workers(1, platform)
        if stub:
            queue = RemoteQueueStub(
                worker_id=len(self.queues), platform=platform
            )
            self.queues.append(queue)
            return queue
        queue = WorkerQueue(
            self.env,
            worker_id=len(self.queues),
            platform=platform,
            state=self.state,
        )
        queue.on_enqueue(lambda job, wid=queue.worker_id: self._wake(wid, job))
        self.queues.append(queue)
        return queue

    def add_worker_stubs(self, count: int, platform: str = ARM) -> None:
        """Register ``count`` consecutive remote-worker stub queues.

        Equivalent to ``count`` calls of ``add_worker(stub=True)``;
        blueprint-built shards claim whole remote spans through this
        bulk path.
        """
        queues = self.queues
        base = len(queues)
        self.state.add_workers(count, platform)
        queues.extend(
            [
                RemoteQueueStub(worker_id=base + offset, platform=platform)
                for offset in range(count)
            ]
        )

    @property
    def worker_count(self) -> int:
        return len(self.queues)

    def _wake(self, worker_id: int, job: Optional[Job] = None) -> None:
        """Power on a sleeping worker when a job lands in its queue."""
        try:
            self.gpio.line(worker_id)
        except KeyError:
            return  # worker manages its own power (e.g. microVM host)
        pulsed = self.gpio.assert_power_on(worker_id)
        if pulsed:
            if job is not None and job.trace_id is not None:
                self.tracer.annotate(
                    job.trace_id, obs.POWER_ON, self.env.now,
                    worker_id=worker_id,
                )
        elif self._maybe_stuck is not None and self.gpio.is_stuck(worker_id):
            # The pulse went nowhere: the board may stay off owing work.
            self._maybe_stuck.add(worker_id)

    def note_power_off(self, worker_id: int) -> None:
        """A board lost power (recovery runs wire this to each board)."""
        if self.queues[worker_id].outstanding > 0:
            self._maybe_stuck.add(worker_id)

    def _is_powered(self, worker_id: int) -> bool:
        try:
            return self.gpio.line(worker_id).is_powered()
        except KeyError:
            return True

    # -- worker health -------------------------------------------------------------

    @property
    def dead_workers(self) -> set:
        """Ids of workers the policy must not pick."""
        return self.state.dead

    def mark_worker_dead(self, worker_id: int) -> None:
        """Stop assigning jobs to a failed worker."""
        if not 0 <= worker_id < len(self.queues):
            raise KeyError(f"no worker {worker_id}")
        self.state.mark_dead(worker_id)
        if len(self.state.dead) == len(self.queues):
            raise RuntimeError("every worker is dead; cluster is lost")
        if self.on_worker_dead is not None:
            self.on_worker_dead(worker_id)

    def mark_worker_alive(self, worker_id: int) -> None:
        """A replaced/repaired worker rejoins the assignment pool."""
        self.state.mark_alive(worker_id)
        if self._maybe_stuck is not None:
            # A revived board may still be off owing work.
            self._maybe_stuck.add(worker_id)
        if self.on_worker_alive is not None:
            self.on_worker_alive(worker_id)

    def note_worker_failure(self, worker_id: int) -> None:
        """Feed one failure observation into the circuit breaker."""
        if self.health is not None:
            self.health.record_failure(worker_id, self.env.now)

    def note_worker_recovered(self, worker_id: int) -> None:
        """A repaired worker rejoins with a clean breaker."""
        if self.health is not None:
            self.health.reset(worker_id, self.env.now)

    def _barred(self, exclude: Optional[int], alive: int):
        """Alive workers this assignment must skip.

        Quarantined workers are barred unless that would bar every
        alive worker — the breaker never starves the cluster — and the
        ``exclude`` preference (avoid the worker a retry/hedge is
        fleeing) yields when it would leave no candidate.
        """
        barred = NO_BARRED
        if self.health is not None:
            barred = self.health.unavailable(self.env.now, self.state.dead)
            if len(barred) == alive:
                barred = NO_BARRED
        if (
            exclude is not None
            and exclude not in barred
            and exclude not in self.state.dead
            and alive - len(barred) > 1
        ):
            barred = barred | {exclude}
        return barred

    # -- job submission -----------------------------------------------------------

    def make_job(self, function: str) -> Job:
        """Build a job for ``function`` using its calibrated payload sizes."""
        profile = profile_for(function)
        job = Job(
            job_id=self._next_job_id,
            function=function,
            input_bytes=profile.input_bytes,
            output_bytes=profile.output_bytes,
        )
        self._next_job_id += 1
        if self.tenant_namer is not None:
            job.tenant = self.tenant_namer(job.job_id, function)
        return job

    def _assign(self, job: Job, exclude: Optional[int] = None) -> None:
        """Pick a schedulable worker via the policy and push the job."""
        if self.assign_override is not None and self.assign_override(job, exclude):
            return
        state = self.state
        alive = len(state.loads) - len(state.dead)
        if alive <= 0:
            raise RuntimeError("no alive workers available")
        barred = NO_BARRED
        if self.health is not None or exclude is not None:
            barred = self._barred(exclude, alive)
        worker_id = self.policy.select(job, barred)
        if job.trace_id is not None:
            self.tracer.annotate(
                job.trace_id, obs.ASSIGN, self.env.now,
                worker_id=worker_id,
                attrs={
                    "policy": self.policy.name,
                    "candidates": alive - len(barred),
                },
            )
        self.queues[worker_id].push(job)

    def submit(self, job: Job) -> Job:
        """Accept a job and assign it to a worker queue."""
        if not self.queues:
            raise RuntimeError("no workers registered")
        if job.job_id in self.jobs:
            raise ValueError(f"job {job.job_id} already submitted")
        job.t_submit = self.env.now
        if job.idempotency_key is None:
            job.idempotency_key = f"{job.function}/{job.job_id}"
        # Head-based sampling: one decision per logical job, made here
        # so hedges and retries (clones) inherit the trace.
        if self.tracer.enabled and self.tracer.sample(job.job_id):
            job.trace_id = job.job_id
            self.tracer.begin_trace(
                job.trace_id, self.env.now, job.function,
                attrs={"idempotency_key": job.idempotency_key},
            )
            self.tracer.annotate(job.trace_id, obs.SUBMIT, self.env.now)
        self.jobs[job.job_id] = job
        self._submitted += 1
        if self.recovery is not None:
            self._in_flight[job.job_id] = job
            self._attempt_count[job.job_id] = 1
            self._stamp_launch(job.job_id, self.env.now)
            self._lower_scan_due(job.t_submit, self.recovery.job_deadline_s)
            if not self._supervisor_running:
                self._supervisor_running = True
                self.env.process(self._supervise())
        if self.budgets is not None and job.tenant is not None:
            verdict, delay = self.budgets.admit(job, self.env.now)
            if verdict == "shed":
                self._shed(job)
                return job
            if verdict == "delay":
                if self.recovery is not None:
                    # Count the hold against the attempt clock so the
                    # supervisor doesn't fire a retry for the wait.
                    self._stamp_launch(job.job_id, self.env.now + delay)
                self.env.process(self._launch_later(job, delay, exclude=None))
                return job
        self._assign(job)
        return job

    def submit_assigned(self, job: Job, worker_id: int) -> Job:
        """Accept a job whose placement was decided elsewhere.

        Identical to :meth:`submit` except the assignment policy is
        never consulted — the caller (a shard coordinator running the
        policy on global scheduling state) names the target worker directly.
        Stamps, traces, and counters match :meth:`submit` exactly.
        """
        if not 0 <= worker_id < len(self.queues):
            raise KeyError(f"no worker {worker_id}")
        if job.job_id in self.jobs:
            raise ValueError(f"job {job.job_id} already submitted")
        job.t_submit = self.env.now
        if job.idempotency_key is None:
            job.idempotency_key = f"{job.function}/{job.job_id}"
        if self.tracer.enabled and self.tracer.sample(job.job_id):
            job.trace_id = job.job_id
            self.tracer.begin_trace(
                job.trace_id, self.env.now, job.function,
                attrs={"idempotency_key": job.idempotency_key},
            )
            self.tracer.annotate(job.trace_id, obs.SUBMIT, self.env.now)
        self.jobs[job.job_id] = job
        self._submitted += 1
        if self._in_flight is not None:
            self._in_flight[job.job_id] = job
            self._lower_scan_due(self.env.now, self._launch_wait_s)
            self._lower_scan_due(job.t_submit, self.recovery.job_deadline_s)
        if job.trace_id is not None:
            self.tracer.annotate(
                job.trace_id, obs.ASSIGN, self.env.now,
                worker_id=worker_id,
                attrs={"policy": self.policy.name, "candidates": -1},
            )
        self.queues[worker_id].push(job)
        return job

    def adopt_job(self, job: Job, worker_id: int) -> Job:
        """Take over a mid-flight job migrated from another shard.

        The job keeps its original ``t_submit``/attempt bookkeeping; it
        is simply pushed onto the named local queue at the current time
        (the chaos-detection boundary where the coordinator reassigned
        it).
        """
        if not 0 <= worker_id < len(self.queues):
            raise KeyError(f"no worker {worker_id}")
        if job.job_id in self.jobs:
            raise ValueError(f"job {job.job_id} already present")
        self.jobs[job.job_id] = job
        self._submitted += 1
        if self._in_flight is not None:
            self._in_flight[job.job_id] = job
            self._lower_scan_due(self.env.now, self._launch_wait_s)
            if job.t_submit is not None:
                self._lower_scan_due(
                    job.t_submit, self.recovery.job_deadline_s
                )
        self.queues[worker_id].push(job)
        return job

    def release_job(self, job_id: int) -> Job:
        """Hand a mid-flight job off to another shard (the inverse of
        :meth:`adopt_job`): forget it locally without completing it."""
        job = self.jobs.pop(job_id)
        self._submitted -= 1
        if self._in_flight is not None:
            self._in_flight.pop(job_id, None)
        return job

    def recover_job(self, job: Job) -> bool:
        """Reassign a job lost to a worker fault: the one resubmission path.

        Tolerates attempts salvaged from a dead worker's queue whose
        logical job already finished elsewhere (a hedge or an earlier
        attempt won the race): those release their queue slot and are
        dropped.  Returns True when the attempt was actually reassigned.
        """
        if job.worker_id is not None:
            self.queues[job.worker_id].job_finished()
        canonical = self.jobs.get(job.job_id)
        if job.job_id in self._done or job.is_finished:
            self._trace_drop_attempt(job)
            return False
        if canonical is not None and canonical is not job and canonical.is_finished:
            self._trace_drop_attempt(job)
            return False
        if job.trace_id is not None:
            self._trace_attempt_lost(job, "crashed")
            self.tracer.annotate(
                job.trace_id, obs.RESUBMIT, self.env.now,
                worker_id=job.worker_id,
            )
        if self.ledger is not None:
            self.ledger.bill_crashed_attempt(job, self.env.now)
        job.reset_for_retry()
        self.resubmissions += 1
        if self.recovery is not None:
            self._attempt_count[job.job_id] = (
                self._attempt_count.get(job.job_id, 1) + 1
            )
            self._stamp_launch(job.job_id, self.env.now)
        self._assign(job)
        return True

    def submit_function(self, function: str) -> Job:
        """Shorthand: build and submit one invocation of ``function``."""
        return self.submit(self.make_job(function))

    def submit_batch(self, functions: Iterable[str]) -> List[Job]:
        """Submit one job per function name, in order.

        Submission events (worker wake-ups, dispatch timers) are collected
        in a kernel bulk window and heap-merged once at the end — same
        firing order as N individual submits, without N heap pushes.
        """
        env = self.env
        env.begin_bulk()
        try:
            return [self.submit_function(name) for name in functions]
        finally:
            env.end_bulk()

    # -- arrivals -------------------------------------------------------------------

    def paper_arrival_process(
        self,
        functions: Sequence[str],
        jobs_per_interval: int,
        total_jobs: int,
        interval_s: float = 1.0,
        rng: Optional[random.Random] = None,
    ):
        """Sec. IV-D arrivals: every second, add jobs to random queues.

        Run as a process: ``env.process(op.paper_arrival_process(...))``.
        Functions are drawn round-robin from ``functions`` so every
        function gets an equal share (the Sec. V experiments issue 1,000
        invocations of each).

        The whole schedule is pre-sampled before the clock moves: the
        process then just submits one batch per interval, so each
        interval costs one timeout event regardless of batch size, and
        the submission order (hence every downstream draw) matches the
        old per-job loop exactly.
        """
        if jobs_per_interval < 1:
            raise ValueError("jobs_per_interval must be >= 1")
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        count = len(functions)
        batches = [
            [
                functions[issued % count]
                for issued in range(
                    first, min(first + jobs_per_interval, total_jobs)
                )
            ]
            for first in range(0, total_jobs, jobs_per_interval)
        ]
        for batch in batches:
            self.submit_batch(batch)
            yield self.env.timeout(interval_s)

    # -- completion ---------------------------------------------------------------

    def on_job_done(
        self,
        callback: Callable[[Job, Optional[InvocationRecord]], None],
    ) -> None:
        """Subscribe to logical-job resolution (push, not poll).

        ``callback(job, record)`` fires exactly once per logical job,
        at the simulated instant its first result is delivered —
        *before* eviction, so the job object is always live inside the
        callback even on ``evict_finished`` runs:

        - completion: ``record`` is the delivered
          :class:`~repro.core.telemetry.InvocationRecord`;
        - terminal failure or an abandoned deadline: ``record`` is
          ``None`` and ``job.failure`` names the reason.

        Suppressed duplicate attempts (hedges/retries losing the race)
        never fire.  Unlike :attr:`on_complete` — a single slot owned
        by the shard/federation runtimes, which also skips the failure
        paths — any number of subscribers may register here, and
        registration never perturbs the simulation: callbacks run
        synchronously inside the delivery event and draw no RNG.
        """
        self._job_done_callbacks.append(callback)

    def _notify_job_done(
        self, job: Job, record: Optional[InvocationRecord]
    ) -> None:
        for callback in self._job_done_callbacks:
            callback(job, record)

    def is_delivered(self, job_id: int) -> bool:
        """Whether the logical job's (first) result has been delivered.

        Workers consult this at claim time — the idempotency-key check —
        so a stranded duplicate attempt is discarded instead of executed.
        """
        return job_id in self._done

    def _trace_attempt_lost(self, job: Job, outcome: str) -> None:
        """Close a traced job's open attempt span (crash/loss paths)."""
        if job.trace_attempt is not None:
            self.tracer.end_attempt(
                job.trace_id, job.trace_attempt, self.env.now,
                attrs={"outcome": outcome},
            )
            job.trace_attempt = None

    def _trace_drop_attempt(self, job: Job) -> None:
        """A salvaged attempt turned out stale: mark it discarded."""
        if job.trace_id is None:
            return
        self._trace_attempt_lost(job, "discarded")
        self.tracer.annotate(
            job.trace_id, obs.DISCARDED, self.env.now,
            worker_id=job.worker_id,
        )

    def discard_stale_attempt(self, job: Job) -> None:
        """Release a popped attempt whose logical job already delivered."""
        if job.worker_id is not None:
            self.queues[job.worker_id].job_finished()
        if self.recovery is not None:
            self.duplicates_suppressed += 1
        self._trace_drop_attempt(job)

    def _fire_drain_events(self) -> None:
        if self._completed == self._submitted:
            for event in self._drain_events:
                if not event.triggered:
                    event.succeed(self._completed)
            self._drain_events.clear()

    def complete(self, job: Job, record: InvocationRecord) -> None:
        """Worker callback: an attempt finished; deliver at most one result.

        The first result per logical job is recorded; later duplicates
        (a hedge and its original both ran to completion — boards
        cannot cancel in-flight work) release their queue slot and are
        suppressed without touching telemetry or counters.
        """
        if job.job_id not in self.jobs:
            raise KeyError(f"unknown job {job.job_id}")
        now = self.env.now
        if job.worker_id is not None:
            self.queues[job.worker_id].job_finished()
            if self.health is not None:
                self.health.record_success(job.worker_id, now)
        if self.recovery is not None:
            if job.job_id in self._done:
                self.duplicates_suppressed += 1
                if self.ledger is not None:
                    # The race was lost: this attempt's joules are waste.
                    self.ledger.bill_attempt(job, now, delivered=False)
                if not job.is_finished:
                    job.transition(JobStatus.COMPLETED, now)
                return
            self._in_flight.pop(job.job_id, None)
        self._done.add(job.job_id)
        if self.ledger is not None:
            self.ledger.bill_attempt(job, now, delivered=True)
        job.transition(JobStatus.COMPLETED, now)
        canonical = self.jobs[job.job_id]
        if canonical is not job and not canonical.is_finished:
            canonical.absorb_completion(now)
        if job.trace_id is not None:
            # The delivering attempt span is still open (the worker
            # closes it after post-job housekeeping), so the trace
            # seals only once its reboot/shutdown spans are in.
            self.tracer.mark_delivered(
                job.trace_id, now, status="completed",
                attempt_id=job.trace_attempt,
            )
        self.telemetry.record(record)
        self._completed += 1
        if self.on_complete is not None:
            self.on_complete(job, record)
        if self._job_done_callbacks:
            self._notify_job_done(job, record)
        if self.evict_finished and self.recovery is None:
            del self.jobs[job.job_id]
            self._done.discard(job.job_id)
        self._fire_drain_events()

    def fail(self, job: Job, reason: str) -> None:
        """Worker callback: an attempt failed terminally."""
        now = self.env.now
        if job.worker_id is not None:
            self.queues[job.worker_id].job_finished()
            if self.health is not None:
                self.health.record_failure(job.worker_id, now)
        if self.recovery is not None:
            if job.job_id in self._done:
                self.duplicates_suppressed += 1
                if self.ledger is not None:
                    self.ledger.bill_attempt(job, now, delivered=False)
                if not job.is_finished:
                    job.failure = reason
                    job.transition(JobStatus.FAILED, now)
                return
            self._in_flight.pop(job.job_id, None)
        self._done.add(job.job_id)
        if self.ledger is not None:
            self.ledger.bill_attempt(job, now, delivered=False)
        job.failure = reason
        job.transition(JobStatus.FAILED, now)
        if job.trace_id is not None:
            self.tracer.mark_delivered(
                job.trace_id, now, status="failed",
                attempt_id=job.trace_attempt,
            )
        canonical = self.jobs.get(job.job_id)
        if canonical is not None and canonical is not job and not canonical.is_finished:
            canonical.failure = reason
            canonical.status = JobStatus.FAILED
            canonical.t_completed = now
        if self._job_done_callbacks:
            self._notify_job_done(job, None)
        self._completed += 1
        self._fire_drain_events()

    # -- recovery supervision ------------------------------------------------------

    def _supervise(self):
        """Recovery supervisor: scan in-flight jobs every ``tick_s``.

        Runs only when a :class:`RecoveryPolicy` is installed.  A tick
        with nothing due costs O(boards that may be stuck); the job
        scan walks the in-flight index, never the run's whole job
        history, and only once something can fire.  Draws no
        random numbers (jitter is hashed from job ids), so its presence
        never perturbs the simulation's RNG streams — a zero-fault run
        with recovery enabled is bit-identical to one without.
        """
        policy = self.recovery
        try:
            while self.pending > 0:
                yield self.env.timeout(policy.tick_s)
                now = self.env.now
                self._scan_jobs(policy, now)
                self._scan_stuck_workers(policy, now)
        finally:
            # Re-armed by the next submit() if more work arrives.
            self._supervisor_running = False

    def _stamp_launch(self, job_id: int, launched: float) -> None:
        """Record when a job's attempt launched (or will, after a hold)."""
        self._attempt_started[job_id] = launched
        self._lower_scan_due(launched, self._launch_wait_s)

    def _lower_scan_due(self, start: float, wait_s: Optional[float]) -> None:
        """Let the job scan run from ``start + wait_s`` on (None never
        fires), less a margin far above float rounding: the scan's own
        tests subtract where this adds."""
        if wait_s is None:
            return
        due = start + wait_s
        due -= 1e-9 * (1.0 + abs(due))
        if due < self._scan_due:
            self._scan_due = due

    def _scan_jobs(self, policy: RecoveryPolicy, now: float) -> None:
        """Give up on, retry or hedge in-flight jobs whose clocks ran out.

        Runs its loop only from :attr:`_scan_due` on: a lower bound on
        the first instant any in-flight job can give up, retry or hedge,
        lowered at every launch stamp and recomputed after each loop.
        Before it the loop would act on nothing.
        """
        if now < self._scan_due:
            return
        # A snapshot: a give-up's subscribers may submit or resolve
        # jobs mid-scan.
        for job in list(self._in_flight.values()):
            job_id = job.job_id
            if job_id in self._done or job.is_finished:
                continue
            if (
                policy.job_deadline_s is not None
                and job.t_submit is not None
                and now - job.t_submit >= policy.job_deadline_s
            ):
                self._give_up(job, now)
                continue
            if job.t_started is None:
                # Still queued: saturation makes long waits normal, and
                # stranded queues are the stuck-worker scan's problem.
                continue
            launched = max(job.t_started, self._attempt_started.get(job_id, 0.0))
            age = now - launched
            count = self._attempt_count.get(job_id, 1)
            if age >= policy.attempt_timeout_s and count < policy.max_attempts:
                self._retry(job, count, now)
            elif (
                policy.hedge_after_s is not None
                and job_id not in self._hedged
                and age >= policy.hedge_after_s
                and count < policy.max_attempts
            ):
                self._hedge(job)
        self._scan_due = math.inf
        wait_s = self._launch_wait_s
        deadline_s = policy.job_deadline_s
        started = self._attempt_started
        for job in self._in_flight.values():
            # The loop's own launch instant; a queued job's claim (and
            # so its launch) comes no earlier than now.
            launched = started.get(job.job_id, 0.0)
            t_started = job.t_started
            launched = max(now if t_started is None else t_started, launched)
            self._lower_scan_due(launched, wait_s)
            if job.t_submit is not None:
                self._lower_scan_due(job.t_submit, deadline_s)

    def _shed(self, job: Job) -> None:
        """Budget shed: reject an over-budget tenant's submission.

        Shaped exactly like :meth:`_give_up` — the job resolves FAILED
        with a named reason, subscribers fire once, drain accounting
        stays balanced — but counted separately: shedding is a policy
        choice, not a loss.
        """
        now = self.env.now
        self._done.add(job.job_id)
        if self._in_flight is not None:
            self._in_flight.pop(job.job_id, None)
        job.failure = "energy budget exhausted"
        job.status = JobStatus.FAILED
        job.t_completed = now
        if job.trace_id is not None:
            self.tracer.mark_delivered(job.trace_id, now, status="shed")
        self.jobs_shed += 1
        if self._job_done_callbacks:
            self._notify_job_done(job, None)
        self._completed += 1
        self._fire_drain_events()

    def _give_up(self, job: Job, now: float) -> None:
        """Deadline exceeded: abandon the job (the only loss path)."""
        self._done.add(job.job_id)
        self._in_flight.pop(job.job_id, None)
        job.failure = "deadline exceeded"
        job.status = JobStatus.FAILED
        job.t_completed = now
        if job.trace_id is not None:
            self.tracer.mark_delivered(job.trace_id, now, status="lost")
        self.jobs_lost += 1
        if self._job_done_callbacks:
            self._notify_job_done(job, None)
        self._completed += 1
        self._fire_drain_events()

    def _retry(self, job: Job, count: int, now: float) -> None:
        """The running attempt timed out: back off, then relaunch."""
        self.timeout_retries += 1
        self._attempt_count[job.job_id] = count + 1
        if job.worker_id is not None:
            self.note_worker_failure(job.worker_id)
        delay = self.recovery.backoff_s(count, job.job_id)
        # Stamp the launch time now (including the backoff) so the next
        # tick does not fire a second retry for the same stall.
        self._stamp_launch(job.job_id, now + delay)
        if job.trace_id is not None:
            self.tracer.annotate(
                job.trace_id, obs.RETRY, now, worker_id=job.worker_id,
                attrs={"attempt": count + 1, "backoff_s": delay},
            )
        clone = job.spawn_attempt()
        self.env.process(
            self._launch_later(clone, delay, exclude=job.worker_id)
        )

    def _hedge(self, job: Job) -> None:
        """Straggler detected: launch one duplicate on another worker."""
        self.hedges += 1
        self._hedged.add(job.job_id)
        self._attempt_count[job.job_id] = (
            self._attempt_count.get(job.job_id, 1) + 1
        )
        if job.trace_id is not None:
            self.tracer.annotate(
                job.trace_id, obs.HEDGE, self.env.now,
                worker_id=job.worker_id,
            )
        clone = job.spawn_attempt()
        self._assign(clone, exclude=job.worker_id)

    def _launch_later(self, clone: Job, delay: float, exclude: Optional[int]):
        if delay > 0:
            yield self.env.timeout(delay)
        if clone.job_id in self._done:
            return
        try:
            self._assign(clone, exclude=exclude)
        except RuntimeError:
            # No alive workers right now; the next timeout retry (or a
            # chaos repair) will try again.
            pass

    def _scan_stuck_workers(self, policy: RecoveryPolicy, now: float) -> None:
        """Recover queues stranded on boards that are off but owe work.

        A stuck GPIO line (or a boot that never completed) leaves a
        powered-off board with a non-empty queue and no process able to
        serve it.  After ``stuck_worker_grace_s`` of that state the
        worker is declared dead and its queue recovered, exactly like a
        crash detection.

        Only boards that can be in that state are visited, in worker-id
        order: those already on the clock, and :attr:`_maybe_stuck` —
        boards a wake pulse missed, that lost power owing work or that
        were revived since the last scan.  A board neither holds is on,
        or owes nothing, and a visit would only clear its (absent) clock.
        """
        stuck = self._board_stuck_since
        maybe = self._maybe_stuck
        if not maybe and not stuck:
            return
        visit = sorted(maybe.union(stuck))
        maybe.clear()
        index = 0
        while index < len(visit):
            wid = visit[index]
            index += 1
            queue = self.queues[wid]
            if wid in self.dead_workers:
                stuck.pop(wid, None)
                continue
            if queue.outstanding > 0 and not self._is_powered(wid):
                since = stuck.setdefault(wid, now)
                if now - since >= policy.stuck_worker_grace_s:
                    stuck.pop(wid, None)
                    self._recover_stuck_worker(wid)
                    # Left alive (the last worker), it stays off owing
                    # work; the recovery's wake pulses may strand boards
                    # further on, which this scan still reaches.
                    maybe.add(wid)
                    ahead = {w for w in maybe if w > wid}
                    if ahead:
                        maybe.difference_update(ahead)
                        visit[index:] = sorted(ahead.union(visit[index:]))
            else:
                stuck.pop(wid, None)

    def _recover_stuck_worker(self, worker_id: int) -> None:
        if len(self.dead_workers) + 1 >= len(self.queues):
            return  # never kill the last alive worker from a scan
        self.mark_worker_dead(worker_id)
        self.note_worker_failure(worker_id)
        for job in self.queues[worker_id].drain():
            self.recover_job(job)

    @property
    def pending(self) -> int:
        return self._submitted - self._completed

    def wait_all(self) -> Event:
        """Event that fires when every submitted job has finished."""
        event = Event(self.env)
        if self._submitted == self._completed and self._submitted > 0:
            event.succeed(self._completed)
        else:
            self._drain_events.append(event)
        return event


__all__ = ["Orchestrator"]
