"""SBC worker process: the MicroFaaS run-to-completion loop.

One :class:`SbcWorker` drives one BeagleBone through the Sec. IV-D
lifecycle: sleep powered-off → GPIO wake on job assignment → boot the
worker OS (1.51 s) → receive input → execute (CPU phase + backend I/O
phase) → return result → reboot for the next job or power back off.

Execution timing comes from the calibrated function profiles with
per-invocation lognormal jitter (mean-preserving, so the cluster-level
calibration holds); the input/result overhead comes from the network
transfer model, so payload sizes and NIC speed determine Fig. 3's
overhead bars.

An untraced job whose timeline nothing later can move is fixed at the
claim (:meth:`SbcWorker._plan`): the worker books every power-state
transition of it on the board
(:meth:`~repro.hardware.power.PowerStateMachine.book`) and waits once,
for the result transfer's end.  The board writes each booking before
any later write or read, and a crash truncates the rest, so every
record, time-in-state sum and joule matches the per-phase path — the
differential oracle, which every other job takes: one wait each for
the boot, inbound transfer + session overhead, the CPU phase, the I/O
phase and the result transfer.

When the orchestrator carries an ``on_claim`` hook (only shard runtimes
set one), the worker reports at the claim the instant it will finish,
or None when the job's end stays open.  The shard coordinator places
later arrivals on the strength of that report.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.bootos.stages import optimized_sequence
from repro.bootos.timeline import scaled_stage_intervals
from repro.core.job import Job, JobStatus
from repro.core.platform import ARM
from repro.obs import trace as obs
from repro.core.lifecycle import RunToCompletionPolicy
from repro.core.orchestrator import Orchestrator
from repro.core.queue import WorkerQueue
from repro.core.telemetry import InvocationRecord
from repro.hardware.power import PowerState
from repro.hardware.sbc import SingleBoardComputer
from repro.net.transfer import SESSION_OVERHEAD_S, TransferModel
from repro.services.latency import ServiceLatencyModel
from repro.sim.kernel import Environment, Interrupt, SimulationError
from repro.sim.rng import RandomStreams
from repro.workloads.profiles import PROFILES

#: Inbound session overhead of a bare-metal ARM worker (TCP setup and
#: payload codec on the slow core).
_SESSION_S = SESSION_OVERHEAD_S["arm-bare"]


class Worker:
    """What the SBC and microVM worker processes share: the queue, the
    OP and fabric they are bound to, a mean-1 jitter stream, and the
    claim-time span, the ``on_claim`` report and the record of a job."""

    #: Stream and process name prefix, and the records' platform tag.
    kind: str
    platform: str

    def __init__(self, env, worker_id, queue, orchestrator, transfers,
                 orchestrator_endpoint, endpoint, policy, streams,
                 jitter_sigma, service_latency, profiles):
        self.env = env
        self.worker_id = worker_id
        self.queue = queue
        self.orchestrator = orchestrator
        self.transfers = transfers
        self.orchestrator_endpoint = orchestrator_endpoint
        self.endpoint = endpoint
        self.policy = policy
        self.streams = (
            streams if streams is not None else RandomStreams(0)
        ).spawn(f"{self.kind}-{worker_id}")
        self.jitter_sigma = jitter_sigma
        self.service_latency = service_latency
        self.profiles = PROFILES if profiles is None else profiles

    def _start(self, body) -> None:
        self.process = self.env.process(
            body, name=f"{self.kind}-worker-{self.worker_id}"
        )

    def _jitter(self) -> float:
        """Mean-1 multiplicative jitter (lognormal, bias-corrected)."""
        if self.jitter_sigma == 0:
            return 1.0
        raw = self.streams.lognormal_factor("jitter", self.jitter_sigma)
        return raw * math.exp(-self.jitter_sigma**2 / 2)

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

    def _report_claim(self, job: Job, t_done: Optional[float]) -> None:
        """Tell ``on_claim`` when the job will finish (None: open)."""
        on_claim = self.orchestrator.on_claim
        if on_claim is not None:
            on_claim(job.job_id, self.worker_id, t_done, self.env.now)

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


class SbcWorker(Worker):
    """One SBC worker node bound to its queue and the OP."""

    kind = "sbc"
    platform = ARM

    def __init__(
        self,
        env: Environment,
        sbc: SingleBoardComputer,
        queue: WorkerQueue,
        orchestrator: Orchestrator,
        transfers: TransferModel,
        orchestrator_endpoint: str,
        endpoint: str,
        policy: RunToCompletionPolicy = RunToCompletionPolicy.paper_default(),
        streams: Optional[RandomStreams] = None,
        jitter_sigma: float = 0.06,
        service_latency: ServiceLatencyModel = ServiceLatencyModel(),
        profiles=None,
        control_plane=None,
        backend=None,
    ):
        super().__init__(
            env, sbc.node_id, queue, orchestrator, transfers,
            orchestrator_endpoint, endpoint, policy, streams, jitter_sigma,
            service_latency, profiles,
        )
        self.sbc = sbc
        self.control_plane = control_plane
        self.backend = backend
        self.boot_real_s = (
            optimized_sequence("arm").real_s * sbc.spec.boot_time_scale
        )
        # Profiles are calibrated for the BeagleBone Black; other boards
        # scale by relative CPU speed.
        from repro.hardware.specs import BEAGLEBONE_BLACK

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
        #: Job currently executing (fault recovery reads this).
        self.current_job: Optional[Job] = None
        self._pending_pop = None
        self._start(self._run())

    # -- helpers -------------------------------------------------------------------

    @property
    def min_service_s(self) -> float:
        """Lower bound on claim-to-completion of this worker's next job.

        A board that reboots between jobs and is not kept warm pays a
        full boot before anything else (a clean pre-booted board is the
        one exception); otherwise the inbound session overhead is the
        first phase every job pays.  Every phase end is a float sum of
        non-negative durations onto the claim instant, so the bound
        holds float for float.
        """
        if (
            self.policy.reboot_between_jobs
            and not self.keep_warm
            and not self.sbc.clean
        ):
            return self.boot_real_s
        return _SESSION_S

    def _work(self, profile, jitter: float):
        """CPU and I/O seconds of one invocation at the current clock."""
        nominal_s = profile.work_arm_s * jitter
        cpu_s = nominal_s * profile.cpu_fraction_arm * self._speed_factor
        dvfs = self.sbc.dvfs_step
        if dvfs is not None:
            # Down-clocked board: CPU phase stretches, I/O doesn't.
            cpu_s /= dvfs.perf_scale
        io_s = nominal_s * (1 - profile.cpu_fraction_arm)
        return cpu_s, io_s

    def _plan(self, job: Job, booting: bool, jitter: float):
        """Everything :meth:`_execute` will wait on, fixed at the claim —
        or None when something later can still move the timeline: a
        control-plane model (queues the dispatch and the collection), a
        contended backend (decides when the I/O ends), or transfer
        fault accounting (prices each transfer at the instant it
        starts).

        Returns ``(plan, t_done)``: the inbound and outbound transfer
        estimates with the CPU and I/O seconds, and the completion
        instant, chained with exactly the float additions the worker's
        waits perform.
        """
        profile = self.profiles[job.function]
        if (
            self.control_plane is not None
            or self.transfers.chaos_enabled
            or (self.backend is not None and profile.service_op is not None)
        ):
            return None, None
        now = self.env.now
        inbound = self.transfers.transfer(
            self.orchestrator_endpoint, self.endpoint, job.input_bytes
        )
        outbound = self.transfers.transfer(
            self.endpoint, self.orchestrator_endpoint, job.output_bytes
        )
        cpu_s, io_s = self._work(profile, jitter)
        t = now + self.boot_real_s if booting else now
        t = (t + inbound.total_s) + _SESSION_S
        if cpu_s > 0:
            t = t + cpu_s
        if io_s > 0:
            t = t + io_s
        return (inbound, outbound, cpu_s, io_s), t + outbound.total_s

    def _boot(self):
        """Run the boot timeline; the SBC must already be in BOOT state."""
        yield self.env.timeout(self.boot_real_s)
        self.sbc.boot_complete()

    def _trace_boot(self, job: Job, start: float, name: str,
                    kind: str) -> None:
        """Attach a boot/reboot span (with per-stage children) to the
        job's open attempt."""
        tracer = self.orchestrator.tracer
        boot_id = tracer.span(
            job.trace_id, name, start, self.env.now,
            parent_id=job.trace_attempt, worker_id=self.sbc.node_id,
            attrs={"kind": kind},
        )
        config = getattr(tracer, "config", None)
        if boot_id is None or config is None or not config.boot_stages:
            return
        for interval in scaled_stage_intervals(
            optimized_sequence("arm"), start, self.sbc.spec.boot_time_scale
        ):
            tracer.span(
                job.trace_id,
                obs.BOOT_STAGE_PREFIX + interval.stage.value,
                interval.start_s,
                interval.end_s,
                parent_id=boot_id,
                worker_id=self.sbc.node_id,
            )

    # -- the worker loop --------------------------------------------------------------

    def _run(self):
        try:
            yield from self._serve()
        except Interrupt:
            # The board lost power mid-operation (fault injection).  A
            # pending queue claim must be withdrawn so no job is handed
            # to a dead worker.
            if self._pending_pop is not None:
                self.queue.cancel_pop(self._pending_pop)
            return

    def _serve(self):
        while True:
            pop_event = self.queue.pop()
            self._pending_pop = pop_event
            job: Job = yield pop_event
            self._pending_pop = None
            if not self._claim(job):
                continue
            self.current_job = job
            # The OP's GPIO hook powers us on at enqueue; if this worker
            # was built without a wired line, wake up now.
            if not self.sbc.is_powered:
                self.sbc.power_on()
            boot_kind = None
            if self.sbc.state is PowerState.BOOT:
                boot_kind = "cold"
            elif self.policy.reboot_between_jobs and not self.sbc.clean:
                # Clean-state reboot before touching the next tenant's
                # job.  A pre-booted (warm, still-clean) board skips
                # this — that's the warm pool's cold-start win.
                self.sbc.begin_reboot()
                boot_kind = "clean-reboot"
            elif self.policy.reboot_between_jobs:
                # Warm hit: pre-booted and still clean, reboot skipped.
                self.boots_avoided += 1
            # Drawn at the claim, not at the CPU phase: "jitter" is this
            # worker's only stream and a crashed worker never draws
            # again (a revived one gets a fresh stream), so every job
            # still gets the draw it got at execute time.
            jitter = self._jitter()
            booting = boot_kind is not None
            plan, t_done = self._plan(job, booting, jitter)
            self._report_claim(job, t_done)
            if plan is not None and job.trace_id is None:
                record = yield from self._serve_booked(
                    job, booting, plan, t_done
                )
            else:
                boot_s = 0.0
                if booting:
                    start = self.env.now
                    yield from self._boot()
                    boot_s = self.env.now - start
                    if job.trace_id is not None:
                        self._trace_boot(job, start, obs.BOOT, boot_kind)
                record = yield from self._execute(job, boot_s, jitter, plan)
            self.orchestrator.complete(job, record)
            self.current_job = None
            if self.queue.depth == 0 and self.keep_warm:
                if self.policy.reboot_between_jobs:
                    # Pre-boot now so the next tenant sees a clean,
                    # already-booted board (cold-start masking).
                    self.sbc.begin_reboot()
                    start = self.env.now
                    yield from self._boot()
                    if job.trace_id is not None:
                        self._trace_boot(job, start, obs.REBOOT, "pre-boot")
            elif self.queue.depth == 0 and self.policy.power_off_when_idle:
                if self.policy.idle_grace_s > 0:
                    yield self.env.timeout(self.policy.idle_grace_s)
                if self.queue.depth == 0 and not self.keep_warm:
                    self.sbc.power_off()
                    if job.trace_id is not None:
                        self.orchestrator.tracer.annotate(
                            job.trace_id, obs.SHUTDOWN, self.env.now,
                            worker_id=self.sbc.node_id,
                        )
            # Post-job housekeeping (reboot/grace/shutdown) belongs to
            # this attempt's window.
            self._end_attempt(job)

    def _serve_booked(self, job: Job, booting: bool, plan, t_done: float):
        """Book the timeline :meth:`_plan` fixed at the claim — boot end
        (IDLE, then IO_WAIT for the inbound transfer), CPU phase, I/O
        phase and the I/O end's same-state re-entry, at the floats
        :meth:`_execute`'s waits reach — and wait once."""
        env = self.env
        sbc = self.sbc
        book = sbc.psm.book
        inbound, outbound, cpu_s, io_s = plan
        claim = env.now
        if booting:
            inbound_start = claim + self.boot_real_s
            book(inbound_start, PowerState.IDLE)
            book(inbound_start, PowerState.IO_WAIT)
        else:
            inbound_start = claim
            sbc.start_io_wait()
        sbc.clean = False
        inbound_end = (inbound_start + inbound.total_s) + _SESSION_S
        t = inbound_end
        if cpu_s > 0:
            book(t, PowerState.CPU_BUSY)
            t = t + cpu_s
        book(t, PowerState.IO_WAIT)
        if io_s > 0:
            t = t + io_s
            book(t, PowerState.IO_WAIT)
        outbound_start = t
        t = t + outbound.total_s
        if t != t_done:
            raise SimulationError(
                f"worker {sbc.node_id}: job {job.job_id}'s booked timeline "
                f"ends at {t!r}, predicted {t_done!r} at its claim"
            )
        yield env.timeout_at(t)
        sbc.finish_job()
        return self._record(
            job, inbound_start - claim, outbound_start - inbound_end,
            (inbound_end - inbound_start) + (t - outbound_start),
        )

    def _execute(self, job: Job, boot_s: float, jitter: float, plan):
        """Serve one claimed job; ``plan`` is :meth:`_plan`'s claim-time
        plan, or None to price each phase when it starts."""
        env = self.env
        profile = self.profiles[job.function]
        traced = job.trace_id is not None
        inbound_start = env.now
        # Receive the invocation input (overhead, I/O bound).  With a
        # control-plane model, the OP must first find CPU to dispatch us.
        self.sbc.start_io_wait()
        if plan is None:
            if self.control_plane is not None:
                yield from self.control_plane.dispatch()
            inbound = self.transfers.transfer(
                self.orchestrator_endpoint, self.endpoint, job.input_bytes
            )
        else:
            inbound, outbound, cpu_s, io_s = plan
        # Transfer, then session overhead (TCP setup + payload codec on
        # the slow core): one wait, ending where the two chained
        # timeouts would.
        session_s = _SESSION_S
        inbound_end = (env.now + inbound.total_s) + session_s
        yield env.timeout_at(inbound_end)
        inbound_overhead_s = inbound_end - inbound_start
        if traced:
            self.orchestrator.tracer.span(
                job.trace_id, obs.INPUT_TRANSFER, inbound_start,
                inbound_end, parent_id=job.trace_attempt,
                worker_id=self.sbc.node_id,
                attrs={"bytes": job.input_bytes, **inbound.as_attrs(),
                       "session_s": session_s},
            )
        # Execute the function body: CPU phase, then backend I/O phase.
        # A faster board shrinks only the CPU phase — backend waits are
        # the services' problem, not the worker's.
        if plan is None:
            cpu_s, io_s = self._work(profile, jitter)
        working_start = env.now
        if cpu_s > 0:
            self.sbc.start_compute()
            yield env.timeout(cpu_s)
        self.sbc.start_io_wait()
        if io_s > 0:
            if self.backend is not None and profile.service_op is not None:
                # Contended backends queue the service share of the wait.
                yield from self.backend.serve(profile.service_op, io_s)
            else:
                yield env.timeout(io_s)
            # Return the result (overhead); the OP must ingest it.
            self.sbc.start_io_wait()
        outbound_start = env.now
        working_s = outbound_start - working_start
        if traced:
            # The execute span's duration IS working_s (same endpoints),
            # which is what lets the critical-path analyzer reconcile
            # with TelemetryCollector exactly.
            self.orchestrator.tracer.span(
                job.trace_id, obs.EXECUTE, working_start, outbound_start,
                parent_id=job.trace_attempt, worker_id=self.sbc.node_id,
                attrs={"cpu_s": cpu_s, "io_s": io_s},
            )
        if plan is None:
            outbound = self.transfers.transfer(
                self.endpoint, self.orchestrator_endpoint, job.output_bytes
            )
        yield env.timeout_at(outbound_start + outbound.total_s)
        if self.control_plane is not None:
            yield from self.control_plane.collect()
        self.sbc.finish_job()
        if traced:
            self.orchestrator.tracer.span(
                job.trace_id, obs.RESULT_TRANSFER, outbound_start,
                env.now, parent_id=job.trace_attempt,
                worker_id=self.sbc.node_id,
                attrs={"bytes": job.output_bytes, **outbound.as_attrs()},
            )
        return self._record(
            job, boot_s, working_s,
            inbound_overhead_s + (env.now - outbound_start),
        )


__all__ = ["SbcWorker", "Worker"]
