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

The worker wakes only at phase ends that something outside it can
observe, so an invocation costs one kernel event per observed stretch:

- the boot end (the board's draw changes, and warm pools read
  ``BOOT``);
- inbound transfer + session overhead, as one absolute-time wait:
  nothing happens between the two;
- the CPU end (the draw changes to ``IO_WAIT``);
- I/O + result transfer, as one wait, unless the I/O end is observed —
  by a traced job's execute span, by chaos accounting (which prices
  the outbound transfer at the instant it starts) or by a contended
  backend (which decides when the I/O ends).  Then each is its own
  wait.  A fused stretch books the I/O end's same-state re-entry with
  :meth:`~repro.hardware.power.PowerStateMachine.reenter_at`, so
  time-in-state sums match the unfused path float for float.

Each stretch end is the float the chained relative timeouts would
reach, so every record, span and joule is unchanged by the fusion.
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
from repro.sim.kernel import Environment, Interrupt
from repro.sim.rng import RandomStreams
from repro.workloads.profiles import PROFILES, profile_for


class SbcWorker:
    """One SBC worker node bound to its queue and the OP."""

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
        self.env = env
        self.sbc = sbc
        self.control_plane = control_plane
        self.backend = backend
        self.queue = queue
        self.orchestrator = orchestrator
        self.transfers = transfers
        self.orchestrator_endpoint = orchestrator_endpoint
        self.endpoint = endpoint
        self.policy = policy
        self.streams = (
            streams if streams is not None else RandomStreams(0)
        ).spawn(f"sbc-{sbc.node_id}")
        self.jitter_sigma = jitter_sigma
        self.service_latency = service_latency
        self.profiles = PROFILES if profiles is None else profiles
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
        self.process = env.process(self._run(), name=f"sbc-worker-{sbc.node_id}")

    # -- helpers -------------------------------------------------------------------

    def _jitter(self) -> float:
        """Mean-1 multiplicative jitter (lognormal, bias-corrected)."""
        if self.jitter_sigma == 0:
            return 1.0
        raw = self.streams.lognormal_factor("jitter", self.jitter_sigma)
        return raw * math.exp(-self.jitter_sigma**2 / 2)

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
            if job.is_finished or self.orchestrator.is_delivered(job.job_id):
                # A stranded duplicate: the logical job already finished
                # on another worker (hedge/retry won the race).  The
                # idempotency-key check at claim time discards it without
                # executing — release the queue slot and move on.
                self.orchestrator.discard_stale_attempt(job)
                continue
            self.current_job = job
            # Service (including the boot this job pays) starts now; the
            # queue wait ends at the pop.
            job.transition(JobStatus.RUNNING, self.env.now)
            if job.trace_id is not None:
                tracer = self.orchestrator.tracer
                job.trace_attempt = tracer.begin_attempt(
                    job.trace_id, self.env.now, self.sbc.node_id,
                    attrs={"attempt": job.attempts + 1, "platform": ARM},
                )
                # Same subtraction endpoints as the telemetry record's
                # queue_wait_s: t_queued to the claim.
                tracer.span(
                    job.trace_id, obs.QUEUE_WAIT, job.t_queued,
                    self.env.now, worker_id=self.sbc.node_id,
                    attrs={"attempt_span": job.trace_attempt},
                )
            boot_s = 0.0
            # The OP's GPIO hook powers us on at enqueue; if this worker
            # was built without a wired line, wake up now.
            if not self.sbc.is_powered:
                self.sbc.power_on()
            if self.sbc.state is PowerState.BOOT:
                start = self.env.now
                yield from self._boot()
                boot_s = self.env.now - start
                if job.trace_id is not None:
                    self._trace_boot(job, start, obs.BOOT, "cold")
            elif self.policy.reboot_between_jobs and not self.sbc.clean:
                # Clean-state reboot before touching the next tenant's
                # job.  A pre-booted (warm, still-clean) board skips
                # this — that's the warm pool's cold-start win.
                self.sbc.begin_reboot()
                start = self.env.now
                yield from self._boot()
                boot_s = self.env.now - start
                if job.trace_id is not None:
                    self._trace_boot(job, start, obs.BOOT, "clean-reboot")
            elif self.policy.reboot_between_jobs:
                # Warm hit: pre-booted and still clean, reboot skipped.
                self.boots_avoided += 1
            record = yield from self._execute(job, boot_s)
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
            if job.trace_id is not None and job.trace_attempt is not None:
                # Post-job housekeeping (reboot/grace/shutdown) belongs
                # to this attempt's window; close the span — and, once
                # no attempt is open, the trace — only now.
                self.orchestrator.tracer.end_attempt(
                    job.trace_id, job.trace_attempt, self.env.now,
                    attrs={"outcome": "completed"},
                )
                job.trace_attempt = None

    def _execute(self, job: Job, boot_s: float):
        env = self.env
        profile = self.profiles[job.function]
        traced = job.trace_id is not None
        inbound_start = env.now
        # Receive the invocation input (overhead, I/O bound).  With a
        # control-plane model, the OP must first find CPU to dispatch us.
        self.sbc.start_io_wait()
        if self.control_plane is not None:
            yield from self.control_plane.dispatch()
        inbound = self.transfers.transfer(
            self.orchestrator_endpoint, self.endpoint, job.input_bytes
        )
        # Transfer, then session overhead (TCP setup + payload codec on
        # the slow core): one wait, ending where the two chained
        # timeouts would.
        session_s = SESSION_OVERHEAD_S["arm-bare"]
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
        nominal_s = profile.work_arm_s * self._jitter()
        cpu_s = nominal_s * profile.cpu_fraction_arm * self._speed_factor
        dvfs = self.sbc.dvfs_step
        if dvfs is not None:
            # Down-clocked board: CPU phase stretches, I/O doesn't.
            cpu_s /= dvfs.perf_scale
        io_s = nominal_s * (1 - profile.cpu_fraction_arm)
        working_start = env.now
        if cpu_s > 0:
            self.sbc.start_compute()
            yield env.timeout(cpu_s)
        # The I/O end gets its own wake-up only if something observes
        # it: a traced job's execute span closes there, chaos accounting
        # prices the outbound transfer at the instant it starts, and a
        # contended backend decides when the I/O phase ends.
        contended = self.backend is not None and profile.service_op is not None
        fuse_io = io_s > 0 and not (
            traced or contended or self.transfers.chaos_enabled
        )
        outbound_start = env.now
        if fuse_io:
            self.sbc.start_io_wait()
            outbound_start += io_s
            # Book the outbound start's same-state start_io_wait.
            self.sbc.psm.reenter_at(outbound_start)
        elif io_s > 0:
            self.sbc.start_io_wait()
            if contended:
                # Contended backends queue the service share of the wait.
                yield from self.backend.serve(profile.service_op, io_s)
            else:
                yield env.timeout(io_s)
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
        # Return the result (overhead); the OP must ingest it.
        if not fuse_io:
            self.sbc.start_io_wait()
        outbound = self.transfers.transfer(
            self.endpoint, self.orchestrator_endpoint, job.output_bytes
        )
        yield env.timeout_at(outbound_start + outbound.total_s)
        if self.control_plane is not None:
            yield from self.control_plane.collect()
        self.sbc.finish_job()
        overhead_s = inbound_overhead_s + (env.now - outbound_start)
        if traced:
            self.orchestrator.tracer.span(
                job.trace_id, obs.RESULT_TRANSFER, outbound_start,
                env.now, parent_id=job.trace_attempt,
                worker_id=self.sbc.node_id,
                attrs={"bytes": job.output_bytes, **outbound.as_attrs()},
            )
        return InvocationRecord(
            job_id=job.job_id,
            function=job.function,
            worker_id=self.sbc.node_id,
            platform=ARM,
            t_queued=job.t_queued,
            t_started=job.t_started,
            t_completed=env.now,
            boot_s=boot_s,
            working_s=working_s,
            overhead_s=overhead_s,
        )


__all__ = ["SbcWorker"]
