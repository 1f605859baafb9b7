"""MicroVM worker process: the conventional cluster's execution loop.

Mirrors :class:`~repro.cluster.worker.SbcWorker` on the virtualization
substrate: the same worker OS (its 0.96 s x86 build), the same
reboot-per-job clean-state discipline, but CPU phases go through the
hypervisor — where contention appears once vCPUs outnumber physical
cores — and the host is never powered off (conventional platforms keep
their rack servers hot).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.job import Job, JobStatus
from repro.core.platform import X86
from repro.core.lifecycle import RunToCompletionPolicy
from repro.obs import trace as obs
from repro.core.orchestrator import Orchestrator
from repro.core.queue import WorkerQueue
from repro.core.telemetry import InvocationRecord
from repro.net.transfer import SESSION_OVERHEAD_S, TransferModel
from repro.services.latency import ServiceLatencyModel
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.virt.microvm import MicroVm
from repro.workloads.profiles import PROFILES, profile_for


class VmWorker:
    """One microVM worker bound to its queue and the OP."""

    def __init__(
        self,
        env: Environment,
        vm: MicroVm,
        queue: WorkerQueue,
        orchestrator: Orchestrator,
        transfers: TransferModel,
        orchestrator_endpoint: str,
        endpoint: str,
        policy: RunToCompletionPolicy = RunToCompletionPolicy(
            reboot_between_jobs=True,
            power_off_when_idle=False,  # the host stays hot regardless
        ),
        streams: Optional[RandomStreams] = None,
        jitter_sigma: float = 0.06,
        service_latency: ServiceLatencyModel = ServiceLatencyModel(),
        profiles=None,
    ):
        self.env = env
        self.vm = vm
        self.queue = queue
        self.orchestrator = orchestrator
        self.transfers = transfers
        self.orchestrator_endpoint = orchestrator_endpoint
        self.endpoint = endpoint
        self.policy = policy
        self.streams = (
            streams if streams is not None else RandomStreams(0)
        ).spawn(f"vm-{vm.vm_id}")
        self.jitter_sigma = jitter_sigma
        self.service_latency = service_latency
        self.profiles = PROFILES if profiles is None else profiles
        self.process = env.process(self._run(), name=f"vm-worker-{vm.vm_id}")

    @property
    def min_service_s(self) -> float:
        """Lower bound on claim-to-completion: every job pays the inbound
        session overhead after its transfer, whatever else it skips."""
        return SESSION_OVERHEAD_S["x86-virtio"]

    def _jitter(self) -> float:
        if self.jitter_sigma == 0:
            return 1.0
        raw = self.streams.lognormal_factor("jitter", self.jitter_sigma)
        return raw * math.exp(-self.jitter_sigma**2 / 2)

    def _run(self):
        # Initial guest boot before serving the first job.
        yield from self.vm.boot()
        first_job = True
        while True:
            job: Job = yield self.queue.pop()
            job.transition(JobStatus.RUNNING, self.env.now)
            on_claim = self.orchestrator.on_claim
            if on_claim is not None:
                # Hypervisor contention keeps a VM job's end open.
                on_claim(job.job_id, self.vm.vm_id, None, self.env.now)
            if job.trace_id is not None:
                tracer = self.orchestrator.tracer
                job.trace_attempt = tracer.begin_attempt(
                    job.trace_id, self.env.now, self.vm.vm_id,
                    attrs={"attempt": job.attempts + 1, "platform": X86},
                )
                tracer.span(
                    job.trace_id, obs.QUEUE_WAIT, job.t_queued,
                    self.env.now, worker_id=self.vm.vm_id,
                    attrs={"attempt_span": job.trace_attempt},
                )
            boot_s = 0.0
            if not first_job and self.policy.reboot_between_jobs:
                start = self.env.now
                yield from self.vm.boot()
                boot_s = self.env.now - start
                if job.trace_id is not None:
                    self.orchestrator.tracer.span(
                        job.trace_id, obs.BOOT, start, self.env.now,
                        parent_id=job.trace_attempt,
                        worker_id=self.vm.vm_id,
                        attrs={"kind": "guest-reboot"},
                    )
            elif first_job:
                # The initial guest boot ran before this claim, so it
                # cannot be a child interval of the attempt; record it
                # as a zero-duration marker carrying the charged cost.
                boot_s = self.vm.boot_real_s
                if job.trace_id is not None:
                    self.orchestrator.tracer.span(
                        job.trace_id, obs.BOOT, self.env.now,
                        self.env.now, parent_id=job.trace_attempt,
                        worker_id=self.vm.vm_id,
                        attrs={"kind": "initial", "charged_s": boot_s},
                    )
            first_job = False
            record = yield from self._execute(job, boot_s)
            self.orchestrator.complete(job, record)
            if job.trace_id is not None and job.trace_attempt is not None:
                self.orchestrator.tracer.end_attempt(
                    job.trace_id, job.trace_attempt, self.env.now,
                    attrs={"outcome": "completed"},
                )
                job.trace_attempt = None

    def _execute(self, job: Job, boot_s: float):
        profile = self.profiles[job.function]
        inbound_start = self.env.now
        inbound = self.transfers.transfer(
            self.orchestrator_endpoint, self.endpoint, job.input_bytes
        )
        yield self.env.timeout(inbound.total_s)
        session_s = SESSION_OVERHEAD_S["x86-virtio"]
        yield self.env.timeout(session_s)
        if job.trace_id is not None:
            self.orchestrator.tracer.span(
                job.trace_id, obs.INPUT_TRANSFER, inbound_start,
                self.env.now, parent_id=job.trace_attempt,
                worker_id=self.vm.vm_id,
                attrs={"bytes": job.input_bytes, **inbound.as_attrs(),
                       "session_s": session_s},
            )
        work_s = profile.work_x86_s * self._jitter()
        cpu_s = work_s * profile.cpu_fraction_x86
        io_s = work_s - cpu_s
        dvfs = getattr(self.vm.hypervisor.server, "dvfs_step", None)
        if dvfs is not None:
            # Down-clocked host: the vCPU phase stretches, I/O doesn't.
            cpu_s /= dvfs.perf_scale
        working_start = self.env.now
        yield from self.vm.execute(cpu_s=cpu_s, io_s=io_s)
        working_s = self.env.now - working_start
        if job.trace_id is not None:
            self.orchestrator.tracer.span(
                job.trace_id, obs.EXECUTE, working_start, self.env.now,
                parent_id=job.trace_attempt, worker_id=self.vm.vm_id,
                attrs={"cpu_s": cpu_s, "io_s": io_s},
            )
        outbound_start = self.env.now
        outbound = self.transfers.transfer(
            self.endpoint, self.orchestrator_endpoint, job.output_bytes
        )
        yield self.env.timeout(outbound.total_s)
        if job.trace_id is not None:
            self.orchestrator.tracer.span(
                job.trace_id, obs.RESULT_TRANSFER, outbound_start,
                self.env.now, parent_id=job.trace_attempt,
                worker_id=self.vm.vm_id,
                attrs={"bytes": job.output_bytes, **outbound.as_attrs()},
            )
        overhead_s = inbound.total_s + session_s + outbound.total_s
        return InvocationRecord(
            job_id=job.job_id,
            function=job.function,
            worker_id=self.vm.vm_id,
            platform=X86,
            t_queued=job.t_queued,
            t_started=job.t_started,
            t_completed=self.env.now,
            boot_s=boot_s,
            working_s=working_s,
            overhead_s=overhead_s,
        )


__all__ = ["VmWorker"]
