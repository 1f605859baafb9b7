"""Federation: many region clusters behind a fault-tolerant gateway.

The paper's MicroFaaS clusters are single-site; this package composes
them into named regions connected by a WAN fabric
(:mod:`repro.net.wan`) behind a gateway
(:class:`~repro.federation.gateway.FederatedCluster`) that routes,
retries, hedges, sheds, and fails over — delivering every accepted job
exactly once even under a full single-region outage.
"""

from repro.federation.chaos import RegionChaosInjector
from repro.federation.gateway import (
    FederatedCluster,
    FederationResult,
    FedJob,
    GatewayConfig,
    RegionReport,
)
from repro.federation.region import Region, RegionSpec, build_region_cluster
from repro.federation.router import (
    FederationRouter,
    LatencyAwarePolicy,
    RoutingPolicy,
)

__all__ = [
    "FedJob",
    "FederatedCluster",
    "FederationResult",
    "FederationRouter",
    "GatewayConfig",
    "LatencyAwarePolicy",
    "Region",
    "RegionChaosInjector",
    "RegionReport",
    "RegionSpec",
    "RoutingPolicy",
    "build_region_cluster",
]
