"""MicroVM worker process: the conventional cluster's execution loop.

Mirrors :class:`~repro.cluster.worker.SbcWorker` on the virtualization
substrate: the same worker OS (its 0.96 s x86 build), the same
reboot-per-job clean-state discipline, but CPU phases go through the
hypervisor — where contention appears once vCPUs outnumber physical
cores — and the host is never powered off (conventional platforms keep
their rack servers hot).

On an uncontended host an untraced job without transfer fault
accounting books its whole cycle at the claim and waits once; every
other job waits once per phase, the differential oracle.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.worker import Worker
from repro.core.job import Job
from repro.core.platform import X86
from repro.core.lifecycle import RunToCompletionPolicy
from repro.obs import trace as obs
from repro.core.orchestrator import Orchestrator
from repro.core.queue import WorkerQueue
from repro.net.transfer import SESSION_OVERHEAD_S, TransferModel
from repro.services.latency import ServiceLatencyModel
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.virt.microvm import MicroVm

#: Inbound session overhead of a guest behind virtio.
_SESSION_S = SESSION_OVERHEAD_S["x86-virtio"]


class VmWorker(Worker):
    """One microVM worker bound to its queue and the OP."""

    kind = "vm"
    platform = X86

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
        super().__init__(
            env, vm.vm_id, queue, orchestrator, transfers,
            orchestrator_endpoint, endpoint, policy, streams, jitter_sigma,
            service_latency, profiles,
        )
        self.vm = vm
        self._start(self._run())

    @property
    def min_service_s(self) -> float:
        """Lower bound on claim-to-completion: every job pays the inbound
        session overhead after its transfer, whatever else it skips."""
        return _SESSION_S

    def _work(self, job: Job):
        """CPU and I/O seconds of one invocation, priced at the claim."""
        profile = self.profiles[job.function]
        work_s = profile.work_x86_s * self._jitter()
        cpu_s = work_s * profile.cpu_fraction_x86
        io_s = work_s - cpu_s
        dvfs = getattr(self.vm.hypervisor.server, "dvfs_step", None)
        if dvfs is not None:
            # Down-clocked host: the vCPU phase stretches, I/O doesn't.
            cpu_s /= dvfs.perf_scale
        return cpu_s, io_s

    def _run(self):
        # Initial guest boot before serving the first job.
        yield from self.vm.boot()
        first_job = True
        while True:
            job: Job = yield self.queue.pop()
            if not self._claim(job):
                continue
            reboot = not first_job and self.policy.reboot_between_jobs
            # The initial guest boot ran before the first claim; that
            # job is charged its cost.
            boot_s = self.vm.boot_real_s if first_job else 0.0
            first_job = False
            cpu_s, io_s = self._work(job)
            if (
                job.trace_id is None
                and not self.transfers.chaos_enabled
                and self.vm.hypervisor.uncontended
            ):
                serve = self._serve_booked
            else:
                serve = self._serve_phases
            record = yield from serve(job, reboot, boot_s, cpu_s, io_s)
            self.orchestrator.complete(job, record)
            self._end_attempt(job)

    def _serve_booked(self, job: Job, reboot: bool, boot_s: float,
                      cpu_s: float, io_s: float):
        """Book the job's whole cycle on the uncontended host at the
        claim — the guest reboot, inbound transfer + session overhead,
        the CPU burst, the I/O phase, the result transfer — at the floats
        :meth:`_serve_phases`'s waits reach, and wait once."""
        claim = self.env.now
        inbound = self.transfers.transfer(
            self.orchestrator_endpoint, self.endpoint, job.input_bytes
        )
        outbound = self.transfers.transfer(
            self.endpoint, self.orchestrator_endpoint, job.output_bytes
        )
        t = claim
        if reboot:
            t = self.vm.book_boot(claim)
            boot_s = t - claim
        working_start = (t + inbound.total_s) + _SESSION_S
        outbound_start = self.vm.book_execute(working_start, cpu_s, io_s)
        t_done = outbound_start + outbound.total_s
        self._report_claim(job, t_done)
        yield self.env.timeout_at(t_done)
        return self._record(
            job, boot_s, outbound_start - working_start,
            inbound.total_s + _SESSION_S + outbound.total_s,
        )

    def _serve_phases(self, job: Job, reboot: bool, boot_s: float,
                      cpu_s: float, io_s: float):
        """Serve a claimed job one phase wait at a time; a host that can
        contend keeps its end open."""
        self._report_claim(job, None)
        env = self.env
        traced = job.trace_id is not None
        tracer = self.orchestrator.tracer
        if reboot:
            start = env.now
            yield from self.vm.boot()
            boot_s = env.now - start
            if traced:
                tracer.span(
                    job.trace_id, obs.BOOT, start, env.now,
                    parent_id=job.trace_attempt, worker_id=self.vm.vm_id,
                    attrs={"kind": "guest-reboot"},
                )
        elif boot_s and traced:
            # The initial guest boot ran before this claim, so it cannot
            # be a child interval of the attempt; record it as a
            # zero-duration marker carrying the charged cost.
            tracer.span(
                job.trace_id, obs.BOOT, env.now, env.now,
                parent_id=job.trace_attempt, worker_id=self.vm.vm_id,
                attrs={"kind": "initial", "charged_s": boot_s},
            )
        inbound_start = env.now
        inbound = self.transfers.transfer(
            self.orchestrator_endpoint, self.endpoint, job.input_bytes
        )
        # Transfer, then session overhead: one wait, ending where the
        # two chained timeouts would.
        yield env.timeout_at((inbound_start + inbound.total_s) + _SESSION_S)
        if traced:
            tracer.span(
                job.trace_id, obs.INPUT_TRANSFER, inbound_start, env.now,
                parent_id=job.trace_attempt, worker_id=self.vm.vm_id,
                attrs={"bytes": job.input_bytes, **inbound.as_attrs(),
                       "session_s": _SESSION_S},
            )
        working_start = env.now
        yield from self.vm.execute(cpu_s=cpu_s, io_s=io_s)
        working_s = env.now - working_start
        if traced:
            tracer.span(
                job.trace_id, obs.EXECUTE, working_start, env.now,
                parent_id=job.trace_attempt, worker_id=self.vm.vm_id,
                attrs={"cpu_s": cpu_s, "io_s": io_s},
            )
        outbound_start = env.now
        outbound = self.transfers.transfer(
            self.endpoint, self.orchestrator_endpoint, job.output_bytes
        )
        yield env.timeout(outbound.total_s)
        if traced:
            tracer.span(
                job.trace_id, obs.RESULT_TRANSFER, outbound_start, env.now,
                parent_id=job.trace_attempt, worker_id=self.vm.vm_id,
                attrs={"bytes": job.output_bytes, **outbound.as_attrs()},
            )
        return self._record(
            job, boot_s, working_s,
            inbound.total_s + _SESSION_S + outbound.total_s,
        )


__all__ = ["VmWorker"]
