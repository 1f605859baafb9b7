"""Worker processes: one run-to-completion lifecycle for both platforms.

:class:`Worker` runs the Sec. IV-D loop once for boards and microVMs:
pop a job, claim it (discarding stale clones), decide the boot, draw the
jitter, fix what the claim can fix, report ``on_claim``, serve, call
``complete`` and end the attempt.  The platform supplies only its hooks
(listed on :class:`Worker`): its boot source, its CPU/I/O executor, its
pricing, session constant and platform tag, and its overhead float.

:class:`SbcWorker` drives one BeagleBone: sleep powered-off → GPIO wake
on job assignment → boot the worker OS (1.51 s) → receive input →
execute (CPU phase + backend I/O phase) → return result → reboot for the
next job or power back off.  Execution timing comes from the calibrated
function profiles with per-invocation lognormal jitter (mean-preserving,
so the cluster-level calibration holds); the input/result overhead comes
from the network transfer model, so payload sizes and NIC speed
determine Fig. 3's overhead bars.

A job whose timeline nothing later can move is fixed at the claim
(:meth:`Worker._plan`) and, where the platform can book it, booked whole
— every power-state transition on the board, in one
:meth:`~repro.hardware.power.PowerStateMachine.book_run` call for the
boot end and one for the CPU, I/O and re-entry points, or every guest
burst on the host — with one wait, for the result transfer's end.
Tracing does not matter, and neither does network chaos as long as no
announced link or switch change (see :mod:`repro.net.transfer`) touches
the job's path between its claim and its end: each transfer is then
priced at its own start.  The books
are written before any later write or read, and a crash drops the
rest, so every record, time-in-state sum and joule matches the per-phase
path — the differential oracle, which every other job takes: one wait
each for the boot, inbound transfer + session overhead, the CPU phase,
the I/O phase and the result transfer.

Either path writes a traced job's phase spans once, when the job ends
or a crash cuts it short (:meth:`Worker._emit_spans`), from the phase
endpoints it reached.

When the orchestrator carries an ``on_claim`` hook (only shard runtimes
set one), the worker reports at the claim the instant it will finish,
or None when the job's end stays open.  The shard coordinator places
later arrivals on the strength of that report.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple

from repro.bootos.stages import optimized_sequence
from repro.core.job import Job, JobStatus
from repro.core.platform import ARM
from repro.obs import trace as obs
from repro.core.lifecycle import RunToCompletionPolicy
from repro.core.queue import WorkerQueue
from repro.core.telemetry import InvocationRecord
from repro.hardware.power import PowerState
from repro.hardware.sbc import SingleBoardComputer
from repro.hardware.specs import BEAGLEBONE_BLACK
from repro.net.transfer import SESSION_OVERHEAD_S
from repro.sim.kernel import Interrupt, SimulationError
from repro.workloads.profiles import PROFILES


class Worker:
    """One worker process bound to its queue, the OP and the fabric:
    the claim → serve → complete loop both platforms run.

    A platform supplies:

    - ``_bind(hardware)``: take the board or guest, set ``worker_id``
      and ``boot_real_s``;
    - ``_boot_kind()``: at the claim, ready the hardware and return the
      kind of boot the claim pays, or None; ``_next_claim_boots``, the
      same answer for the next claim, read before it;
    - its boot source: ``_boot()`` runs a boot one wait at a time,
      ``_book_boot(claim)`` books one and returns its end,
      ``_boot_end(claim)`` returns that end without booking;
    - its CPU/I/O executor: ``_execute(profile, cpu_s, io_s)`` runs the
      function body one wait at a time, ``_book_execute(start, cpu_s,
      io_s)`` books it and returns its end, ``_execute_end(start,
      cpu_s, io_s)`` returns that end without booking;
    - ``_work(profile, jitter)``: CPU and I/O seconds at the current
      clock;
    - ``_overhead_s(...)``: the record's transfer + session overhead;
    - ``kind``, ``platform``, ``session_s`` and ``default_policy``;

    and may override ``_bookable``, ``_charged_boot_s``,
    ``_initial_boot``, ``_predict``, ``_begin_inbound``, ``_finish_job``
    and ``_after_job``.
    """

    #: Stream and process name prefix, and the records' platform tag.
    kind: str
    platform: str
    #: Inbound session overhead (TCP setup and payload codec) of the
    #: platform's network stack.
    session_s: float
    #: What the worker does between jobs, unless told otherwise.
    default_policy: RunToCompletionPolicy
    #: Wall length of one worker-OS boot.
    boot_real_s: float
    #: Whether a job whose timeline is fixed at the claim can be booked
    #: whole.
    _bookable = True
    #: Seconds of a boot that ran before this claim and is charged to it.
    _charged_boot_s = 0.0
    #: The orchestration server's endpoint on the shared fabric.
    orchestrator_endpoint = "op"

    def __init__(self, harness, hardware, queue: WorkerQueue, endpoint: str,
                 policy: Optional[RunToCompletionPolicy] = None,
                 jitter_sigma: float = 0.06, profiles=None,
                 control_plane=None, backend=None):
        self.env = harness.env
        self._bind(hardware)
        self.queue = queue
        self.orchestrator = harness.orchestrator
        self.transfers = harness.transfers
        self.endpoint = endpoint
        self.policy = self.default_policy if policy is None else policy
        self.streams = harness.streams.spawn(f"{self.kind}-{self.worker_id}")
        self.jitter_sigma = jitter_sigma
        self.profiles = PROFILES if profiles is None else profiles
        self.control_plane = control_plane
        self.backend = backend
        #: Job currently executing (fault recovery reads this).
        self.current_job: Optional[Job] = None
        #: The traced job in service, while some of its phase spans are
        #: unwritten: ``[job, boot kind, charged boot seconds, plan,
        #: phase endpoints, phases written (-1: nothing yet)]`` (see
        #: :meth:`_emit_spans`).
        self._spans: Optional[list] = None
        self._pending_pop = None
        self.process = self.env.process(
            self._run(), name=f"{self.kind}-worker-{self.worker_id}"
        )

    @property
    def min_service_s(self) -> float:
        """Lower bound on claim-to-completion of this worker's next job.

        A claim that boots pays the whole boot before anything else;
        otherwise the inbound session overhead is the first phase every
        job pays.  Every phase end is a float sum of non-negative
        durations onto the claim instant, so the bound holds float for
        float; a guest reboot's quanta each add a context switch, and
        the session overhead still follows it.
        """
        return self.boot_real_s if self._next_claim_boots else self.session_s

    def _jitter(self) -> float:
        """Mean-1 multiplicative jitter (lognormal, bias-corrected)."""
        if self.jitter_sigma == 0:
            return 1.0
        raw = self.streams.lognormal_factor("jitter", self.jitter_sigma)
        return raw * math.exp(-self.jitter_sigma**2 / 2)

    # -- the worker loop --------------------------------------------------------------

    def _run(self):
        try:
            yield from self._serve()
        except Interrupt:
            # The worker lost power mid-operation (fault injection).  A
            # pending queue claim must be withdrawn so no job is handed
            # to a dead worker.
            if self._pending_pop is not None:
                self.queue.cancel_pop(self._pending_pop)

    def _serve(self):
        yield from self._initial_boot()
        while True:
            pop_event = self.queue.pop()
            self._pending_pop = pop_event
            job: Job = yield pop_event
            self._pending_pop = None
            if not self._claim(job):
                continue
            self.current_job = job
            charged_s = self._charged_boot_s
            boot_kind = self._boot_kind()
            # Drawn at the claim, not at the CPU phase: "jitter" is this
            # worker's only stream and a crashed worker never draws
            # again (a revived one gets a fresh stream), so every job
            # still gets the draw it got at execute time.
            jitter = self._jitter()
            plan, t_done = self._plan(job, boot_kind is not None, jitter)
            if plan is not None and self._bookable:
                record = yield from self._serve_booked(
                    job, boot_kind, charged_s, plan, t_done
                )
            else:
                self._report_claim(job, t_done)
                record = yield from self._serve_phases(
                    job, boot_kind, charged_s, jitter, plan
                )
            self.orchestrator.complete(job, record)
            self.current_job = None
            # Post-job housekeeping belongs to this attempt's window.
            yield from self._after_job(job)
            self._end_attempt(job)

    def _claim(self, job: Job) -> bool:
        """Start serving a popped job: service (including any boot it
        pays) starts now, and the queue wait ends.  A stranded
        duplicate — its logical job already finished on another worker,
        a hedge or retry won the race — is discarded instead, without
        executing (the idempotency-key check): returns False."""
        if job.is_finished or self.orchestrator.is_delivered(job.job_id):
            self.orchestrator.discard_stale_attempt(job)
            return False
        now = self.env.now
        job.transition(JobStatus.RUNNING, now)
        if job.trace_id is not None:
            tracer = self.orchestrator.tracer
            job.trace_attempt = tracer.begin_attempt(
                job.trace_id, now, self.worker_id,
                attrs={"attempt": job.attempts + 1,
                       "platform": self.platform},
            )
            # Same subtraction endpoints as the telemetry record's
            # queue_wait_s: t_queued to the claim.
            tracer.span(
                job.trace_id, obs.QUEUE_WAIT, job.t_queued, now,
                worker_id=self.worker_id,
                attrs={"attempt_span": job.trace_attempt},
            )
        return True

    def _plan(self, job: Job, booting: bool, jitter: float):
        """Everything the serve paths wait on, fixed at the claim — or
        None when something later can still move the timeline: a
        control-plane model, a contended backend or, under transfer
        fault accounting, an announced network change within the job's
        window (or a worker that cannot book, so nothing tells the
        window before it runs).

        Returns ``(plan, t_done)``: the inbound and outbound transfer
        estimates with the CPU and I/O seconds, and the completion
        instant (:meth:`_predict`'s, or None when open).  Under fault
        accounting each transfer is priced at its own start.
        """
        profile = self.profiles[job.function]
        if self.control_plane is not None or (
            self.backend is not None and profile.service_op is not None
        ):
            return None, None
        transfers = self.transfers
        src, dst = self.orchestrator_endpoint, self.endpoint
        cpu_s, io_s = self._work(profile, jitter)
        if not transfers.chaos_enabled:
            plan = (
                transfers.transfer(src, dst, job.input_bytes),
                transfers.transfer(dst, src, job.output_bytes),
                cpu_s, io_s,
            )
            return plan, self._predict(booting, plan)
        if not self._bookable:
            return None, None
        claim = self.env.now
        start = self._boot_end(claim) if booting else claim
        inbound = transfers.transfer(src, dst, job.input_bytes, at=start)
        start = self._execute_end(
            (start + inbound.total_s) + self.session_s, cpu_s, io_s
        )
        outbound = transfers.transfer(dst, src, job.output_bytes, at=start)
        end = start + outbound.total_s
        if transfers.changes_within(src, dst, claim, end):
            return None, None
        return (inbound, outbound, cpu_s, io_s), end

    def _report_claim(self, job: Job, t_done: Optional[float]) -> None:
        """Tell ``on_claim`` when the job will finish (None: open)."""
        on_claim = self.orchestrator.on_claim
        if on_claim is not None:
            on_claim(job.job_id, self.worker_id, t_done, self.env.now)

    def _serve_booked(self, job: Job, boot_kind: Optional[str],
                      charged_s: float, plan, t_done: Optional[float]):
        """Book the timeline :meth:`_plan` fixed at the claim — boot,
        inbound transfer + session overhead, CPU and I/O phases, result
        transfer — at the floats :meth:`_serve_phases`'s waits reach,
        report its end and wait once."""
        inbound, outbound, cpu_s, io_s = plan
        claim = self.env.now
        if boot_kind is not None:
            inbound_start = self._book_boot(claim)
        else:
            inbound_start = claim
            self._begin_inbound()
        inbound_end = (inbound_start + inbound.total_s) + self.session_s
        outbound_start = self._book_execute(inbound_end, cpu_s, io_s)
        end = outbound_start + outbound.total_s
        if t_done is not None and end != t_done:
            raise SimulationError(
                f"worker {self.worker_id}: job {job.job_id}'s booked "
                f"timeline ends at {end!r}, predicted {t_done!r} at its claim"
            )
        self._report_claim(job, end)
        if job.trace_id is not None:
            self._spans = [job, boot_kind, charged_s, plan,
                           (claim, inbound_start, inbound_end,
                            outbound_start, end), -1]
        try:
            yield self.env.timeout_at(end)
        except Interrupt:
            # A phase ending at the crash instant is cut, as the
            # per-phase wait for it is: the crash's event came first.
            self._emit_spans(cut=self.env.now, done=True)
            raise
        self._finish_job()
        if self._spans is not None:
            self._emit_spans(done=True)
        return self._record(
            job, inbound_start - claim if boot_kind is not None else charged_s,
            outbound_start - inbound_end,
            self._overhead_s(inbound, outbound, inbound_start, inbound_end,
                             outbound_start, end),
        )

    def _serve_phases(self, job: Job, boot_kind: Optional[str],
                      charged_s: float, jitter: float, plan):
        """Serve a claimed job one phase wait at a time; ``plan`` is
        :meth:`_plan`'s claim-time plan, or None to price each phase
        when it starts."""
        env = self.env
        # The phase endpoints reached so far — claim, inbound start,
        # inbound end, outbound start, end — and what the phases ran.
        stamps = [env.now]
        priced = plan is not None
        plan = list(plan) if priced else [None] * 4
        if job.trace_id is not None:
            self._spans = [job, boot_kind, charged_s, plan, stamps, -1]
        try:
            if boot_kind is not None:
                yield from self._boot()
            inbound_start = env.now
            stamps.append(inbound_start)
            # Receive the invocation input (overhead, I/O bound).  With
            # a control-plane model, the OP must first find CPU to
            # dispatch us.
            self._begin_inbound()
            if not priced:
                if self.control_plane is not None:
                    yield from self.control_plane.dispatch()
                plan[0] = self.transfers.transfer(
                    self.orchestrator_endpoint, self.endpoint,
                    job.input_bytes,
                )
            # Transfer, then session overhead: one wait, ending where
            # the two chained timeouts would.
            inbound_end = (env.now + plan[0].total_s) + self.session_s
            yield env.timeout_at(inbound_end)
            stamps.append(inbound_end)
            profile = self.profiles[job.function]
            if not priced:
                plan[2:] = self._work(profile, jitter)
            yield from self._execute(profile, plan[2], plan[3])
            outbound_start = env.now
            stamps.append(outbound_start)
            # Return the result (overhead); the OP must ingest it.
            if not priced:
                plan[1] = self.transfers.transfer(
                    self.endpoint, self.orchestrator_endpoint,
                    job.output_bytes,
                )
            yield env.timeout_at(outbound_start + plan[1].total_s)
            if self.control_plane is not None:
                yield from self.control_plane.collect()
            self._finish_job()
            stamps.append(env.now)
        except Interrupt:
            # Every phase reached has ended (a crash interrupts a wait).
            self._emit_spans(done=True)
            raise
        self._emit_spans(done=True)
        return self._record(
            job, inbound_start - stamps[0] if boot_kind is not None
            else charged_s,
            outbound_start - inbound_end,
            self._overhead_s(plan[0], plan[1], inbound_start, inbound_end,
                             outbound_start, env.now),
        )

    def emit_open_spans(self) -> None:
        """Write the spans of the traced job in service for phases that
        ended by now, ahead of the trace being sealed mid-flight at the
        end of a run (per-phase waits up to now have all fired)."""
        if self._spans is not None:
            self._emit_spans(cut=math.nextafter(self.env.now, math.inf))

    def _emit_spans(self, cut: float = math.inf, done: bool = False) -> None:
        """Write the traced job's phase spans not written yet, for the
        phases that ended before ``cut``; ``done`` forgets the job.

        Spans go under the job's attempt: boot (with its stage
        children), ``input_transfer``, ``execute`` and
        ``result_transfer``, from the phase endpoints either serve path
        recorded — all of them for a booked timeline, those reached so
        far for the per-phase path.
        """
        state = self._spans
        if state is None:
            return
        if done:
            self._spans = None
        job, boot_kind, charged_s, plan, stamps, written = state
        ended = 0
        for t in stamps[1:]:
            if t >= cut:
                break
            ended += 1
        if ended <= written:
            return
        state[5] = ended
        tracer = self.orchestrator.tracer
        trace_id, attempt = job.trace_id, job.trace_attempt
        worker_id = self.worker_id
        inbound, outbound, cpu_s, io_s = plan
        claim = stamps[0]
        if written < 0 and boot_kind is None and charged_s:
            # A boot that ran before this claim cannot be a child
            # interval of the attempt; record it as a zero-duration
            # marker carrying the charged cost.
            tracer.span(
                trace_id, obs.BOOT, claim, claim, parent_id=attempt,
                worker_id=worker_id,
                attrs={"kind": "initial", "charged_s": charged_s},
            )
        if boot_kind is not None and written < 1 <= ended:
            self._trace_boot(job, claim, stamps[1], obs.BOOT, boot_kind)
        if written < 2 <= ended:
            tracer.span(
                trace_id, obs.INPUT_TRANSFER, stamps[1], stamps[2],
                parent_id=attempt, worker_id=worker_id,
                attrs={"bytes": job.input_bytes, **inbound.as_attrs(),
                       "session_s": self.session_s},
            )
        if written < 3 <= ended:
            # The execute span's duration IS working_s (same endpoints),
            # which is what lets the critical-path analyzer reconcile
            # with TelemetryCollector exactly.
            tracer.span(
                trace_id, obs.EXECUTE, stamps[2], stamps[3],
                parent_id=attempt, worker_id=worker_id,
                attrs={"cpu_s": cpu_s, "io_s": io_s},
            )
        if written < 4 <= ended:
            tracer.span(
                trace_id, obs.RESULT_TRANSFER, stamps[3], stamps[4],
                parent_id=attempt, worker_id=worker_id,
                attrs={"bytes": job.output_bytes, **outbound.as_attrs()},
            )

    def _record(self, job: Job, boot_s: float, working_s: float,
                overhead_s: float) -> InvocationRecord:
        """The record of a job completing now."""
        return InvocationRecord(
            job_id=job.job_id,
            function=job.function,
            worker_id=self.worker_id,
            platform=self.platform,
            t_queued=job.t_queued,
            t_started=job.t_started,
            t_completed=self.env.now,
            boot_s=boot_s,
            working_s=working_s,
            overhead_s=overhead_s,
        )

    def _end_attempt(self, job: Job) -> None:
        """Close the job's attempt span — and, once no attempt is open,
        its trace — now."""
        if job.trace_id is not None and job.trace_attempt is not None:
            self.orchestrator.tracer.end_attempt(
                job.trace_id, job.trace_attempt, self.env.now,
                attrs={"outcome": "completed"},
            )
            job.trace_attempt = None

    def _trace_boot(self, job: Job, start: float, end: float, name: str,
                    kind: str):
        """Attach a boot span to the job's open attempt; returns its id."""
        return self.orchestrator.tracer.span(
            job.trace_id, name, start, end,
            parent_id=job.trace_attempt, worker_id=self.worker_id,
            attrs={"kind": kind},
        )

    # -- optional platform hooks ------------------------------------------------------

    def _initial_boot(self):
        """Process helper: the boot that runs before the first pop."""
        return ()

    def _predict(self, booting: bool, plan) -> Optional[float]:
        """The completion instant of a planned job claimed now, chained
        with exactly the float additions the waits perform — or None
        when only booking it tells."""
        inbound, outbound, cpu_s, io_s = plan
        now = self.env.now
        start = self._boot_end(now) if booting else now
        return self._execute_end(
            (start + inbound.total_s) + self.session_s, cpu_s, io_s
        ) + outbound.total_s

    def _begin_inbound(self) -> None:
        """The inbound transfer starts now."""

    def _finish_job(self) -> None:
        """The result transfer ended now."""

    def _after_job(self, job: Job):
        """Process helper: housekeeping after a job completes."""
        return ()


class SbcWorker(Worker):
    """One SBC worker node bound to its queue and the OP."""

    kind = "sbc"
    platform = ARM
    session_s = SESSION_OVERHEAD_S["arm-bare"]
    default_policy = RunToCompletionPolicy.paper_default()

    def _bind(self, sbc: SingleBoardComputer) -> None:
        self.sbc = sbc
        self.worker_id = sbc.node_id
        self.boot_real_s = (
            optimized_sequence("arm").real_s * sbc.spec.boot_time_scale
        )
        # Profiles are calibrated for the BeagleBone Black; other boards
        # scale by relative CPU speed.
        self._speed_factor = (
            BEAGLEBONE_BLACK.relative_speed / sbc.spec.relative_speed
        )
        #: When True (set by a warm-pool controller) the worker pre-boots
        #: after each job and idles powered-on instead of powering off,
        #: so the next tenant starts with zero boot latency.
        self.keep_warm = False
        #: Warm hits: jobs that found this board pre-booted and clean
        #: and so skipped the clean-state reboot they would otherwise
        #: pay.  The warm pool's savings account reads this.
        self.boots_avoided = 0

    @property
    def _next_claim_boots(self) -> bool:
        # A clean pre-booted board is the one exception to the reboot.
        return (
            self.policy.reboot_between_jobs
            and not self.keep_warm
            and not self.sbc.clean
        )

    def _boot_kind(self) -> Optional[str]:
        sbc = self.sbc
        # The OP's GPIO hook powers us on at enqueue; if this worker
        # was built without a wired line, wake up now.
        if not sbc.is_powered:
            sbc.power_on()
        if sbc.state is PowerState.BOOT:
            return "cold"
        if self.policy.reboot_between_jobs and not sbc.clean:
            # Clean-state reboot before touching the next tenant's job.
            # A pre-booted (warm, still-clean) board skips this — that's
            # the warm pool's cold-start win.
            sbc.begin_reboot()
            return "clean-reboot"
        if self.policy.reboot_between_jobs:
            # Warm hit: pre-booted and still clean, reboot skipped.
            self.boots_avoided += 1
        return None

    def _boot(self):
        """Run the boot timeline; the SBC must already be in BOOT state."""
        yield self.env.timeout(self.boot_real_s)
        self.sbc.boot_complete()

    def _boot_end(self, claim: float) -> float:
        return claim + self.boot_real_s

    def _book_boot(self, claim: float) -> float:
        """Boot end: IDLE, then IO_WAIT for the inbound transfer."""
        end = claim + self.boot_real_s
        self.sbc.psm.book_run(((end, PowerState.IDLE),
                               (end, PowerState.IO_WAIT)))
        return end

    def _work(self, profile, jitter: float):
        # A faster board shrinks only the CPU phase — backend waits are
        # the services' problem, not the worker's.
        nominal_s = profile.work_arm_s * jitter
        cpu_s = nominal_s * profile.cpu_fraction_arm * self._speed_factor
        dvfs = self.sbc.dvfs_step
        if dvfs is not None:
            # Down-clocked board: CPU phase stretches, I/O doesn't.
            cpu_s /= dvfs.perf_scale
        io_s = nominal_s * (1 - profile.cpu_fraction_arm)
        return cpu_s, io_s

    def _execute(self, profile, cpu_s: float, io_s: float):
        if cpu_s > 0:
            self.sbc.start_compute()
            yield self.env.timeout(cpu_s)
        self.sbc.start_io_wait()
        if io_s > 0:
            if self.backend is not None and profile.service_op is not None:
                # Contended backends queue the service share of the wait.
                yield from self.backend.serve(profile.service_op, io_s)
            else:
                yield self.env.timeout(io_s)
            self.sbc.start_io_wait()

    def _execute_end(self, start: float, cpu_s: float, io_s: float) -> float:
        if cpu_s > 0:
            start = start + cpu_s
        return start + io_s if io_s > 0 else start

    def _book_execute(self, start: float, cpu_s: float, io_s: float) -> float:
        """CPU phase, I/O phase and the I/O end's same-state re-entry."""
        self.sbc.clean = False
        t = start
        if cpu_s > 0:
            t = t + cpu_s
            run = [(start, PowerState.CPU_BUSY), (t, PowerState.IO_WAIT)]
        else:
            run = [(t, PowerState.IO_WAIT)]
        if io_s > 0:
            t = t + io_s
            run.append((t, PowerState.IO_WAIT))
        self.sbc.psm.book_run(run)
        return t

    def _overhead_s(self, inbound, outbound, inbound_start, inbound_end,
                    outbound_start, end) -> float:
        # Phase endpoints: a control-plane dispatch or collection wait
        # is overhead too.
        return (inbound_end - inbound_start) + (end - outbound_start)

    def _begin_inbound(self) -> None:
        self.sbc.start_io_wait()

    def _finish_job(self) -> None:
        self.sbc.finish_job()

    def _after_job(self, job: Job):
        """Pre-boot a kept-warm board, or power an idle one off."""
        traced = job.trace_id is not None
        if self.queue.depth == 0 and self.keep_warm:
            if self.policy.reboot_between_jobs:
                # Pre-boot now so the next tenant sees a clean,
                # already-booted board (cold-start masking).
                self.sbc.begin_reboot()
                start = self.env.now
                yield from self._boot()
                if traced:
                    self._trace_boot(job, start, self.env.now, obs.REBOOT,
                                     "pre-boot")
        elif self.queue.depth == 0 and self.policy.power_off_when_idle:
            if self.policy.idle_grace_s > 0:
                yield self.env.timeout(self.policy.idle_grace_s)
            if self.queue.depth == 0 and not self.keep_warm:
                self.sbc.power_off()
                if traced:
                    self.orchestrator.tracer.annotate(
                        job.trace_id, obs.SHUTDOWN, self.env.now,
                        worker_id=self.worker_id,
                    )

    def _trace_boot(self, job: Job, start: float, end: float, name: str,
                    kind: str):
        """The boot span, with per-stage children."""
        boot_id = super()._trace_boot(job, start, end, name, kind)
        config = getattr(self.orchestrator.tracer, "config", None)
        if boot_id is None or config is None or not config.boot_stages:
            return boot_id
        span = self.orchestrator.tracer.span
        t = start
        for name, duration in _boot_stage_spans(self.sbc.spec.boot_time_scale):
            end = t + duration
            span(job.trace_id, name, t, end, parent_id=boot_id,
                 worker_id=self.worker_id)
            t = end
        return boot_id


@lru_cache(maxsize=16)
def _boot_stage_spans(scale: float) -> Tuple[Tuple[str, float], ...]:
    """``(span name, wall seconds)`` of each ARM boot stage, in order.

    Workers boot the calibrated sequence scaled by their board's
    ``boot_time_scale``; chaining the durations from the boot's start
    gives per-stage child spans whose union is exactly the observed
    boot window.  Memoized per scale, since every traced boot asks.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return tuple(
        (obs.BOOT_STAGE_PREFIX + stage.name.value, stage.real_s * scale)
        for stage in optimized_sequence("arm")
    )


__all__ = ["SbcWorker", "Worker"]
