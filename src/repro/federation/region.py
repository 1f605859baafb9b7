"""Regions: named clusters inside a federation.

A :class:`RegionSpec` is the picklable description of one region — its
name, home client geo, worker composition, and seed.  The federation
builds each spec into a full :class:`~repro.cluster.harness.ClusterHarness`
(an SBC cluster, or a hybrid SBC+VM cluster when ``vm_count`` is set)
sharing the federation's single simulation environment, then wraps it in
a :class:`Region` carrying the gateway-facing state: reachability,
brownout window, deferred-delivery buffer, and the per-region outage
log.

Every region keeps its own ``RandomStreams(seed)`` — the gateway never
draws from a region's streams — so a region's internal simulation is
bit-identical to the same cluster built standalone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cluster.harness import ClusterHarness
from repro.cluster.hybrid import HybridCluster
from repro.cluster.microfaas import MicroFaaSCluster
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import AssignmentPolicy
from repro.obs.trace import TraceConfig
from repro.sim.kernel import Environment


@dataclass(frozen=True)
class RegionSpec:
    """Picklable description of one region."""

    name: str
    #: Client geography the region serves natively (ingress-latency
    #: tables key on geo names).
    geo: str
    worker_count: int
    seed: int
    #: Optional microVM workers — a non-zero count builds the region as
    #: a hybrid SBC+VM cluster.
    vm_count: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region name cannot be empty")
        if self.worker_count < 1 and self.vm_count < 1:
            raise ValueError(f"region {self.name!r} needs at least one worker")


def build_region_cluster(
    spec: RegionSpec,
    env: Environment,
    policy_factory: Optional[Callable[[], AssignmentPolicy]] = None,
    recovery: Optional[RecoveryPolicy] = None,
    telemetry_exact: bool = True,
    trace: Optional[TraceConfig] = None,
) -> ClusterHarness:
    """Build one region's cluster on the shared environment.

    Constructor arguments mirror a standalone build exactly — same
    policy default (``None`` → the harness's seeded RandomSampling),
    same recovery default, same seed — so a one-region federation's
    cluster is indistinguishable from a bare one.
    """
    policy = policy_factory() if policy_factory is not None else None
    if spec.vm_count > 0:
        cluster: ClusterHarness = HybridCluster(
            sbc_count=spec.worker_count,
            vm_count=spec.vm_count,
            seed=spec.seed,
            policy=policy,
            recovery=recovery,
            telemetry_exact=telemetry_exact,
            trace=trace,
            env=env,
        )
    else:
        cluster = MicroFaaSCluster(
            worker_count=spec.worker_count,
            seed=spec.seed,
            policy=policy,
            recovery=recovery,
            telemetry_exact=telemetry_exact,
            trace=trace,
            env=env,
        )
    if cluster.tracer is not None:
        # Distinct labels keep merged federation traces unambiguous
        # (every region numbers its job ids from 0).
        cluster.tracer.label = spec.name
    return cluster


class Region:
    """One built region plus its gateway-facing state."""

    def __init__(self, index: int, spec: RegionSpec, cluster: ClusterHarness):
        self.index = index
        self.spec = spec
        self.cluster = cluster
        #: Gateway-visible reachability: a region blackout makes the
        #: region unreachable (its cluster keeps simulating — results
        #: are buffered and delivered on recovery).
        self.reachable = True
        #: Ingress brownout window: while ``env.now`` is inside it,
        #: ingress sends suffer elevated latency and deterministic loss
        #: at ``brownout_loss``.
        self.brownout_until = 0.0
        self.brownout_loss = 0.0
        #: Completions that arrived while unreachable, held for
        #: deferred delivery: ``(job, record)`` pairs.
        self.buffered: List[Tuple[object, object]] = []
        #: Consecutive missed heartbeats (gateway bookkeeping).
        self.heartbeat_misses = 0
        #: Whether the gateway has declared this region down.
        self.outage_declared = False
        #: Completed outages: ``(detect_time, recover_time)``.
        self.outage_log: List[Tuple[float, float]] = []
        self._outage_detect_time: Optional[float] = None
        #: Jobs this region delivered to the gateway / jobs submitted
        #: into it by the gateway.
        self.jobs_in = 0
        self.jobs_delivered = 0
        #: Cross-region traffic billed to this region: payload bytes of
        #: jobs served here whose home region was elsewhere.
        self.cross_region_bytes = 0
        self.cross_region_jobs = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def geo(self) -> str:
        return self.spec.geo

    @property
    def worker_count(self) -> int:
        return len(self.cluster.workers)

    def in_brownout(self, now: float) -> bool:
        return now < self.brownout_until

    def declare_outage(self, now: float) -> None:
        if not self.outage_declared:
            self.outage_declared = True
            self._outage_detect_time = now

    def clear_outage(self, now: float) -> None:
        if self.outage_declared:
            self.outage_declared = False
            self.outage_log.append((self._outage_detect_time, now))
            self._outage_detect_time = None
        self.heartbeat_misses = 0

    @property
    def mean_outage_recovery_s(self) -> Optional[float]:
        """Mean time from outage detection to recovery (per-region MTTR)."""
        if not self.outage_log:
            return None
        return sum(recover - detect for detect, recover in self.outage_log) / len(
            self.outage_log
        )


__all__ = ["Region", "RegionSpec", "build_region_cluster"]
