"""Request routing across regions.

The :class:`FederationRouter` is the gateway's placement brain: given a
client geo, it picks a region through a pluggable
:class:`RoutingPolicy`, consulting health state the gateway maintains —
per-region circuit breakers (a
:class:`~repro.core.policies.WorkerHealthTracker` keyed by region
index, reusing the worker-breaker semantics unchanged) and declared
outages from heartbeat monitoring.

Policies see only *candidate* regions (healthy, not excluded); like the
orchestrator's scheduler the router never starves: constraints fall
away one at a time (breaker quarantine first, then the exclusion
preference, then declared outages) until a candidate set survives.

The shipped policy, :class:`LatencyAwarePolicy`, picks the nearest
region by configured ingress latency (brownout degradation included,
so a browning-out region loses its edge).  It is deterministic and
draws no random numbers, so routing never perturbs any region's RNG
streams.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Set

from repro.core.policies import WorkerHealthTracker
from repro.federation.region import Region
from repro.net.wan import WanFabric


class RoutingPolicy(ABC):
    """Picks one region out of a healthy candidate list."""

    name: str = "abstract"

    @abstractmethod
    def select(
        self,
        geo: str,
        candidates: Sequence[Region],
        wan: WanFabric,
        now: float,
    ) -> int:
        """Index into ``candidates`` of the chosen region."""


def _ingress_cost_s(geo: str, region: Region, wan: WanFabric, now: float) -> float:
    """Deterministic routing cost: base latency + brownout degradation.

    Uses the configured base (not the jittered draw) so route decisions
    never consume RNG; the ingress link's ``extra_latency_s`` is
    included so degraded regions look as slow as they are.
    """
    try:
        base = wan.ingress_spec(geo, region.name).latency_s
    except KeyError:
        return float("inf")
    return base + wan.ingress_link(region.name).extra_latency_s


class LatencyAwarePolicy(RoutingPolicy):
    """Nearest region by ingress latency (ties break on region index)."""

    name = "latency-aware"

    def select(self, geo, candidates, wan, now):
        best = 0
        best_cost = _ingress_cost_s(geo, candidates[0], wan, now)
        for index in range(1, len(candidates)):
            cost = _ingress_cost_s(geo, candidates[index], wan, now)
            if cost < best_cost:
                best, best_cost = index, cost
        return best


class FederationRouter:
    """Health-checked routing over a federation's regions."""

    def __init__(
        self,
        regions: Sequence[Region],
        wan: WanFabric,
        policy: Optional[RoutingPolicy] = None,
        breaker: Optional[WorkerHealthTracker] = None,
    ):
        if not regions:
            raise ValueError("need at least one region")
        self.regions = list(regions)
        self.wan = wan
        self.policy = policy if policy is not None else LatencyAwarePolicy()
        #: Per-region circuit breaker, keyed by region index.  Heartbeat
        #: misses and ingress failures feed it; quarantined regions
        #: leave the candidate set until a half-open probe succeeds.
        self.breaker = (
            breaker
            if breaker is not None
            else WorkerHealthTracker(failure_threshold=2, quarantine_s=2.0)
        )

    def candidate_regions(
        self, now: float, exclude: Optional[Set[int]] = None
    ) -> List[Region]:
        """Routable regions, falling back one constraint at a time."""
        exclude = exclude if exclude is not None else set()
        up = [r for r in self.regions if not r.outage_declared]
        candidates = [
            r
            for r in up
            if r.index not in exclude
            and self.breaker.is_available(r.index, now)
        ]
        if candidates:
            return candidates
        candidates = [r for r in up if r.index not in exclude]
        if candidates:
            return candidates
        if up:
            return up
        # Every region is declared down: route anyway (the job will be
        # buffered and delivered on recovery) rather than dropping it.
        return [r for r in self.regions if r.index not in exclude] or list(
            self.regions
        )

    def route(
        self, geo: str, now: float, exclude: Optional[Set[int]] = None
    ) -> Region:
        """Pick the region one invocation from ``geo`` should run in."""
        candidates = self.candidate_regions(now, exclude)
        index = self.policy.select(geo, candidates, self.wan, now)
        if not 0 <= index < len(candidates):
            raise RuntimeError(
                f"routing policy {self.policy.name!r} chose invalid "
                f"candidate {index}"
            )
        return candidates[index]


__all__ = [
    "FederationRouter",
    "LatencyAwarePolicy",
    "RoutingPolicy",
]
