"""One shard of a sharded simulation.

A :class:`ShardRuntime` owns a partially-built cluster: the **full**
topology, queue list, and id space (so endpoint names, worker ids, and
per-worker RNG stream names match the serial build exactly), but
hardware, GPIO lines, and worker processes only for its local worker
ids.  Between rendezvous boundaries it advances the simulation kernel
over a bounded window; at each boundary the coordinator injects the
assignments it decided (new submissions, chaos-salvaged pushes,
cross-shard migrations) and collects what happened inside the window
(completions, worker deaths/revivals, buffered salvage requests).

The runtime never makes a scheduling decision.  The shard cluster's
policy is a sentinel that raises if consulted, and the orchestrator's
``assign_override`` hook captures the one shard-side path that would
reach the policy — chaos recovery reassigning a dead board's jobs — and
buffers it for the coordinator instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.blueprint import (
    ClusterBlueprint,
    PoolDescriptor,
    compute_blueprint,
)
from repro.cluster.hybrid import HybridCluster
from repro.cluster.microfaas import MicroFaaSCluster
from repro.cluster.pool import SbcPool
from repro.core.controlplane import ControlPlaneModel
from repro.core.job import Job, JobStatus
from repro.core.scheduler import AssignmentPolicy
from repro.obs.trace import TraceConfig
from repro.reliability.chaos import ChaosEngine, ChaosPlan
from repro.shard.partition import PoolShape
from repro.shard.replay import SHARDABLE_POLICIES
from repro.sim.kernel import SimulationError
from repro.workloads.profiles import profile_for


class ShardRemotePolicy(AssignmentPolicy):
    """Sentinel installed on shard clusters: every assignment decision
    belongs to the coordinator, so consulting this policy is a protocol
    bug, not a fallback."""

    name = "shard-remote"

    def select(self, job, queues, is_powered) -> int:
        raise RuntimeError(
            "shard-side policy consulted; assignments must come from "
            "the shard coordinator"
        )


@dataclass(frozen=True)
class ClusterSpec:
    """Picklable description of the cluster a sharded run simulates.

    Carries exactly the knobs the sharded protocol supports; building
    with ``local_ids=None`` yields the serial twin the determinism
    tests compare against.
    """

    kind: str = "microfaas"  # "microfaas" | "hybrid"
    worker_count: int = 10  # microfaas
    sbc_count: int = 0  # hybrid
    vm_count: int = 0  # hybrid
    seed: int = 0
    #: Assignment policy name (None: the platform default —
    #: random-sampling for microfaas, energy-aware for hybrid).
    policy: Optional[str] = None
    spill_threshold: int = 2
    jitter_sigma: float = 0.06
    telemetry_exact: bool = True
    control_plane: Optional[ControlPlaneModel] = None
    trace: Optional[TraceConfig] = None
    chaos_plan: Optional[ChaosPlan] = None
    chaos_detection_delay_s: float = 1.0
    chaos_max_power_cycles: int = 3
    #: Per-worker power cap in watts (None: uncapped).  Applied to each
    #: pool at build time on shards and serial twins alike — DVFS state
    #: is per-board, so capping shards independently is exact.
    power_cap_watts: Optional[float] = None
    #: Carbon/price signals for the carbon-aware policy: platform tag ->
    #: :class:`~repro.energy.controlplane.CarbonSignal`.  Signals are
    #: pre-sampled (picklable) so shards and the coordinator read
    #: identical curves.
    carbon_signals: Optional[dict] = None
    #: Platform tag -> joules-per-function weight for the carbon cost.
    carbon_weights: Optional[dict] = None

    @property
    def policy_name(self) -> str:
        if self.policy is not None:
            return self.policy
        return "random-sampling" if self.kind == "microfaas" else "energy-aware"

    @property
    def total_workers(self) -> int:
        if self.kind == "microfaas":
            return self.worker_count
        return self.sbc_count + self.vm_count

    def validate(self) -> None:
        if self.kind not in ("microfaas", "hybrid"):
            raise ValueError(f"unknown cluster kind {self.kind!r}")
        if self.total_workers < 1:
            raise ValueError("need at least one worker")
        if self.policy_name not in SHARDABLE_POLICIES:
            raise ValueError(
                f"policy {self.policy_name!r} is not shardable; "
                f"supported: {SHARDABLE_POLICIES}"
            )
        if self.power_cap_watts is not None and self.power_cap_watts <= 0:
            raise ValueError("power cap must be positive watts")
        if self.trace is not None and self.trace.sample_rate not in (0.0, 1.0):
            raise ValueError(
                "sharded tracing needs sample_rate 0.0 or 1.0: fractional "
                "rates draw from a sequential sampler stream whose order "
                "depends on global submission interleaving"
            )
        if self.chaos_plan is not None:
            if self.chaos_plan.has_shared_fabric_events():
                raise ValueError(
                    "sharded chaos supports board/link faults only; "
                    "switch and backend outages touch cluster-shared state"
                )
            if self.trace is not None and self.trace.sample_rate > 0:
                raise ValueError(
                    "tracing with chaos is not shardable: a migrated "
                    "job's spans would split across shard recorders"
                )

    def pool_shapes(self) -> Tuple[PoolShape, ...]:
        """Pool sizes in build order, for the partitioner."""
        if self.kind == "microfaas":
            return (PoolShape(self.worker_count),)
        shapes = []
        if self.sbc_count:
            shapes.append(PoolShape(self.sbc_count))
        if self.vm_count:
            shapes.append(PoolShape(self.vm_count, divisible=False))
        return tuple(shapes)

    def platforms(self) -> Tuple[str, ...]:
        """Per-worker platform tags in global id order."""
        from repro.core.platform import ARM, X86

        if self.kind == "microfaas":
            return (ARM,) * self.worker_count
        return (ARM,) * self.sbc_count + (X86,) * self.vm_count

    def serial_policy(self) -> AssignmentPolicy:
        """The policy object a serial run of this spec uses — seeded the
        same way the coordinator's replayer assumes."""
        import random

        from repro.core.scheduler import EnergyAwarePolicy, make_policy

        name = self.policy_name
        if name == "random-sampling":
            return make_policy(name, random.Random(self.seed))
        if name == "energy-aware":
            return EnergyAwarePolicy(spill_threshold=self.spill_threshold)
        if name == "carbon-aware":
            from repro.core.scheduler import CarbonAwarePolicy

            return CarbonAwarePolicy(
                signals=self.carbon_signals,
                joules_weights=self.carbon_weights,
                spill_threshold=self.spill_threshold,
            )
        return make_policy(name)

    def blueprint(self) -> ClusterBlueprint:
        """Construction skeleton for this spec's cluster shape.

        The descriptors mirror the pools :meth:`build` composes (the
        facades use the default hardware specs, so the testbed switch
        model is the only ToR); ``ClusterBlueprint.bind`` re-validates
        the correspondence against the live pools at build time.
        """
        from repro.hardware.specs import TESTBED_SWITCH

        descriptors = []
        if self.kind == "microfaas":
            descriptors.append(
                PoolDescriptor(
                    kind="sbc",
                    worker_count=self.worker_count,
                    switch_ports=TESTBED_SWITCH.ports,
                )
            )
        else:
            if self.sbc_count:
                descriptors.append(
                    PoolDescriptor(
                        kind="sbc",
                        worker_count=self.sbc_count,
                        switch_ports=TESTBED_SWITCH.ports,
                    )
                )
            if self.vm_count:
                descriptors.append(
                    PoolDescriptor(kind="vm", worker_count=self.vm_count)
                )
        return compute_blueprint(descriptors)

    def build(
        self,
        local_ids=None,
        policy: Optional[AssignmentPolicy] = None,
        blueprint: Optional[ClusterBlueprint] = None,
    ):
        """Construct the cluster (serial twin when ``local_ids`` is None).

        Without an explicit ``policy``, the serial twin schedules with
        :meth:`serial_policy` — the named policy from the spec, not the
        platform default (a spec naming ``least-loaded`` must not fall
        back to random-sampling).
        """
        if policy is None:
            policy = self.serial_policy()
        if self.kind == "microfaas":
            cluster = MicroFaaSCluster(
                worker_count=self.worker_count,
                seed=self.seed,
                policy=policy,
                jitter_sigma=self.jitter_sigma,
                telemetry_exact=self.telemetry_exact,
                control_plane=self.control_plane,
                trace=self.trace,
                local_ids=local_ids,
                blueprint=blueprint,
            )
        else:
            cluster = HybridCluster(
                sbc_count=self.sbc_count,
                vm_count=self.vm_count,
                seed=self.seed,
                policy=policy,
                jitter_sigma=self.jitter_sigma,
                telemetry_exact=self.telemetry_exact,
                control_plane=self.control_plane,
                trace=self.trace,
                local_ids=local_ids,
                blueprint=blueprint,
            )
        if self.power_cap_watts is not None:
            cluster.set_power_cap(self.power_cap_watts)
        if hasattr(policy, "bind_clock"):
            policy.bind_clock(lambda: cluster.env.now)
        return cluster


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard process needs to build and run its slice."""

    shard_index: int
    shard_count: int
    cluster: ClusterSpec
    local_ids: Tuple[int, ...]
    #: Construction skeleton computed once by the coordinator and
    #: shipped (387 bytes of names and ints, not a topology) into every
    #: shard process; None falls back to the legacy full rebuild.
    blueprint: Optional[ClusterBlueprint] = None


def job_state(job: Job) -> tuple:
    """Picklable snapshot of a mid-flight job for cross-shard migration
    (taken after ``reset_for_retry``, so no attempt state remains)."""
    return (
        job.job_id,
        job.function,
        job.input_bytes,
        job.output_bytes,
        job.idempotency_key,
        job.attempts,
        job.t_submit,
        job.t_queued,
    )


def job_from_state(state: tuple) -> Job:
    job_id, function, input_bytes, output_bytes, key, attempts, t_submit, t_queued = state
    job = Job(
        job_id=job_id,
        function=function,
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        idempotency_key=key,
    )
    job.attempts = attempts
    job.t_submit = t_submit
    job.t_queued = t_queued
    return job


class ShardRuntime:
    """Builds and drives one shard's partial cluster."""

    def __init__(self, spec: ShardSpec):
        spec.cluster.validate()
        self.spec = spec
        self.local_ids = frozenset(spec.local_ids)
        self.cluster = spec.cluster.build(
            local_ids=spec.local_ids,
            policy=ShardRemotePolicy(),
            blueprint=spec.blueprint,
        )
        orch = self.cluster.orchestrator
        orch.assign_override = self._capture_salvage
        orch.on_complete = self._record_completion
        orch.on_worker_dead = self._record_dead
        orch.on_worker_alive = self._record_alive
        # Per-window report buffers.
        self._completions: List[Tuple[float, int, int]] = []
        self._salvages: List[tuple] = []
        self._liveness: List[Tuple[float, str, int]] = []
        #: Salvaged Job objects awaiting a coordinator decision,
        #: keyed by job id.
        self._held_jobs: Dict[int, Job] = {}
        self._salvage_seq = 0
        self.chaos: Optional[ChaosEngine] = None
        if spec.cluster.chaos_plan is not None:
            self.chaos = ChaosEngine(
                self.cluster,
                detection_delay_s=spec.cluster.chaos_detection_delay_s,
                max_power_cycles=spec.cluster.chaos_max_power_cycles,
            )
            self.chaos.apply(
                spec.cluster.chaos_plan.restrict_to_workers(self.local_ids)
            )

    # -- orchestrator hooks ---------------------------------------------------

    def _capture_salvage(self, job: Job, exclude) -> bool:
        """Intercept chaos recovery's reassignment: hold the job and ask
        the coordinator where it goes (it replays the policy on global
        queue state at this boundary)."""
        now = self.cluster.env.now
        self._held_jobs[job.job_id] = job
        self._salvages.append(
            (now, self._salvage_seq, job.job_id, job_state(job))
        )
        self._salvage_seq += 1
        return True

    def _record_completion(self, job: Job, record) -> None:
        self._completions.append(
            (record.t_completed, record.worker_id, job.job_id)
        )

    def _record_dead(self, worker_id: int) -> None:
        self._liveness.append((self.cluster.env.now, "dead", worker_id))

    def _record_alive(self, worker_id: int) -> None:
        self._liveness.append((self.cluster.env.now, "alive", worker_id))

    # -- protocol verbs -------------------------------------------------------

    def inject(self, directives: List[tuple]) -> None:
        """Apply coordinator decisions at the current boundary time."""
        orch = self.cluster.orchestrator
        env = self.cluster.env
        env.begin_bulk()
        try:
            self._inject(orch, directives)
        finally:
            env.end_bulk()

    def _inject(self, orch, directives: List[tuple]) -> None:
        for directive in directives:
            verb = directive[0]
            if verb == "new":
                _, job_id, function, worker_id = directive
                profile = profile_for(function)
                job = Job(
                    job_id=job_id,
                    function=function,
                    input_bytes=profile.input_bytes,
                    output_bytes=profile.output_bytes,
                )
                orch.submit_assigned(job, worker_id)
            elif verb == "salvage":
                _, job_id, worker_id = directive
                job = self._held_jobs.pop(job_id)
                orch.queues[worker_id].push(job)
            elif verb == "migrate_out":
                _, job_id = directive
                self._held_jobs.pop(job_id)
                orch.release_job(job_id)
            elif verb == "adopt":
                _, state, worker_id = directive
                orch.adopt_job(job_from_state(state), worker_id)
            else:
                raise ValueError(f"unknown directive {verb!r}")

    def advance(self, until: Optional[float]) -> dict:
        """Run the kernel to ``until`` (or drain local pending work when
        None), then report what happened inside the window."""
        env = self.cluster.env
        orch = self.cluster.orchestrator
        if until is not None:
            if until > env.now:
                env.run(until=until)
        else:
            # Per-event stepping with the pending check between events:
            # draining a whole timestamp after pending hits zero could pull
            # extra completions into this report window and perturb the
            # cross-shard merge order.  Hoisted locals keep the loop cheap.
            step = env.step
            queue = env._queue
            while orch._submitted > orch._completed:
                if not queue:
                    raise SimulationError(
                        f"shard {self.spec.shard_index} deadlocked with "
                        f"{orch.pending} pending jobs and no events"
                    )
                step()
        report = {
            "shard": self.spec.shard_index,
            "completions": self._completions,
            "salvages": self._salvages,
            "liveness": self._liveness,
        }
        self._completions = []
        self._salvages = []
        self._liveness = []
        return report

    def finish(self, t_global: float) -> dict:
        """Flush local events up to the global end time and collect this
        shard's contribution to the merged result."""
        env = self.cluster.env
        if t_global > env.now:
            env.run(until=t_global)
        board_energy = []
        for pool_index, pool in enumerate(self.cluster.pools):
            if isinstance(pool, SbcPool):
                board_energy.append(
                    (pool_index, pool.board_energy_joules(0.0, t_global))
                )
            elif getattr(pool, "vms", None):
                # An indivisible pool reports from its owning shard only.
                first_id = pool.worker_ids[0]
                board_energy.append(
                    (pool_index, [(first_id, pool.energy_joules(0.0, t_global))])
                )
        counters = {
            "resubmissions": self.cluster.orchestrator.resubmissions,
            "switch_count": len(self.cluster.switches),
        }
        cp = self.cluster.control_plane
        if cp is not None:
            counters["cp_dispatches"] = cp.dispatches
            counters["cp_collections"] = cp.collections
            counters["cp_busy_seconds"] = cp.busy_seconds
        chaos_stats = None
        if self.chaos is not None:
            chaos_stats = {
                "injected": self.chaos.injected,
                "skipped_last_worker": self.chaos.skipped_last_worker,
                "skipped_overlap": self.chaos.skipped_overlap,
                "skipped_unsupported": self.chaos.skipped_unsupported,
                "recovered_jobs": self.chaos.recovered_jobs,
                "boards_abandoned": self.chaos.boards_abandoned,
                "recovery_times": list(self.chaos.recovery_times),
            }
        return {
            "shard": self.spec.shard_index,
            "env_now": env.now,
            "telemetry": self.cluster.orchestrator.telemetry,
            "board_energy": board_energy,
            "counters": counters,
            "chaos": chaos_stats,
            "traces": list(self.cluster.finished_traces()),
            "peak_rss_mib": _peak_rss_mib(),
        }


def _peak_rss_mib() -> float:
    """This process's peak resident set size, in MiB."""
    import resource
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return peak / 1024.0 if sys.platform != "darwin" else peak / (1024.0**2)


__all__ = [
    "ClusterSpec",
    "ShardRemotePolicy",
    "ShardRuntime",
    "ShardSpec",
    "job_from_state",
    "job_state",
]
