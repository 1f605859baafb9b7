"""Cluster construction blueprints.

Every cluster is built from a :class:`ClusterBlueprint`: the switch
chain and the run-length ``(switch, first_id, count)`` spans mapping
workers to switches, computed once by pure-integer arithmetic before
any object exists.  :func:`compute_blueprint` is the single home of the
fabric growth rule — ToR switch names and the keep-one-port-spare rule
that decides when the chain grows; the pools only create what the plan
names.

The blueprint is an immutable tree of strings and ints — cheap to
pickle into shard processes (:mod:`repro.shard`) — and a build that
adopts one can:

* bulk-attach each span's endpoints in one topology operation instead
  of per-endpoint growth checks;
* skip remote workers' endpoints and hardware entirely on a shard
  (their queue slots become :class:`~repro.core.queue.RemoteQueueStub`
  placeholders), because the spans already fix every switch's place.

The pools create switches one at a time at span boundaries, so
``harness.switches`` order, graph insertion order and worker creation
order follow global worker ids.  ``bind`` re-derives each pool's shape
and refuses a blueprint computed for a different cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class PoolDescriptor:
    """Shape of one worker pool, as the growth arithmetic sees it.

    ``kind`` is ``"sbc"`` (ToR chain grown on demand) or ``"vm"`` (all
    workers behind one host bridge).  ``switch_ports`` is the port count
    of the pool's ToR switch model (unused for VM pools).
    """

    kind: str
    worker_count: int
    switch_ports: int = 0


@dataclass(frozen=True)
class SbcFabricPlan:
    """Planned fabric for one SBC pool.

    ``chain`` is the pool's ToR switches in growth order (each trunked
    to its predecessor); ``spans`` is the run-length worker→switch map:
    ``(switch_name, first_worker_id, count)`` in global id order.
    """

    first_worker_id: int
    worker_count: int
    chain: Tuple[str, ...]
    spans: Tuple[Tuple[str, int, int], ...]


@dataclass(frozen=True)
class VmFabricPlan:
    """Planned fabric for one microVM pool (trivial: one bridge, a
    contiguous id range)."""

    first_worker_id: int
    worker_count: int


@dataclass(frozen=True)
class ClusterBlueprint:
    """Immutable, picklable construction skeleton for one cluster shape.

    ``descriptors`` records the pool shapes the blueprint was computed
    for (``bind`` validates against them); ``pool_plans`` holds one
    :class:`SbcFabricPlan` / :class:`VmFabricPlan` per pool in build
    order; ``switch_names`` is the full harness switch list in creation
    order (chain switches interleaved with the VM host bridge).
    """

    descriptors: Tuple[PoolDescriptor, ...]
    pool_plans: Tuple[object, ...]
    switch_names: Tuple[str, ...]
    total_workers: int

    def bind(self, pools: Sequence[object]) -> None:
        """Adopt this blueprint onto live pools (pre-build).

        Each pool re-derives its own :class:`PoolDescriptor`; a
        mismatch (different pool count, order, size, or switch model)
        raises rather than silently building the wrong fabric.
        """
        if len(pools) != len(self.descriptors):
            raise ValueError(
                f"blueprint covers {len(self.descriptors)} pools, "
                f"cluster has {len(pools)}"
            )
        for index, (pool, expected) in enumerate(
            zip(pools, self.descriptors)
        ):
            actual = pool.plan_descriptor()
            if actual != expected:
                raise ValueError(
                    f"pool {index} shape {actual} does not match "
                    f"blueprint descriptor {expected}"
                )
        for pool, plan in zip(pools, self.pool_plans):
            pool.plan = plan


def compute_blueprint(
    descriptors: Sequence[PoolDescriptor],
) -> ClusterBlueprint:
    """Run the construction arithmetic for a pool list.

    The one growth rule for every cluster: which switches exist, what
    they are named, and which switch each worker lands on, from names
    and port counters alone.  The pools' ``build_fabric`` /
    ``build_workers`` create exactly what the returned plans name.
    """
    descriptors = tuple(descriptors)
    if not descriptors:
        raise ValueError("need at least one pool")
    switch_names: List[str] = []
    ports_total: dict = {}
    ports_used: dict = {}
    chains: dict = {}

    # Phase 1 — build_fabric per pool, then the shared op/backend
    # endpoints on the core switch.
    for index, desc in enumerate(descriptors):
        if desc.kind == "sbc":
            name = (
                "switch" if not switch_names else f"switch-{len(switch_names)}"
            )
            switch_names.append(name)
            ports_total[name] = desc.switch_ports
            ports_used[name] = 0
            chains[index] = [name]
        elif desc.kind == "vm":
            if not switch_names:
                from repro.hardware.specs import TESTBED_SWITCH

                switch_names.append("switch")
                ports_total["switch"] = TESTBED_SWITCH.ports
                ports_used["switch"] = 0
            # The host bridge trunks onto the core switch, consuming one
            # core port; the bridge itself never grows, so its own port
            # budget is irrelevant to the arithmetic.
            ports_used[switch_names[0]] += 1
            switch_names.append("host-bridge")
        else:
            raise ValueError(f"unknown pool kind {desc.kind!r}")
    ports_used[switch_names[0]] += 2  # the op and backend endpoints

    # Phase 2 — build_workers per pool: global ids, growth, spans.
    plans: List[object] = []
    next_id = 0
    for index, desc in enumerate(descriptors):
        first_id = next_id
        if desc.kind == "vm":
            next_id += desc.worker_count
            plans.append(VmFabricPlan(first_id, desc.worker_count))
            continue
        chain = chains[index]
        spans: List[List] = []
        for _ in range(desc.worker_count):
            current = chain[-1]
            # Keep one port spare on the newest switch for the next
            # trunk.
            if ports_total[current] - ports_used[current] <= 1:
                grown = f"switch-{len(switch_names)}"
                switch_names.append(grown)
                ports_total[grown] = desc.switch_ports
                ports_used[grown] = 1  # trunk back to the previous switch
                ports_used[current] += 1  # trunk out to the new switch
                chain.append(grown)
                current = grown
            ports_used[current] += 1
            if spans and spans[-1][0] == current:
                spans[-1][2] += 1
            else:
                spans.append([current, next_id, 1])
            next_id += 1
        plans.append(
            SbcFabricPlan(
                first_worker_id=first_id,
                worker_count=desc.worker_count,
                chain=tuple(chain),
                spans=tuple(
                    (span[0], span[1], span[2]) for span in spans
                ),
            )
        )
    return ClusterBlueprint(
        descriptors=descriptors,
        pool_plans=tuple(plans),
        switch_names=tuple(switch_names),
        total_workers=next_id,
    )


def blueprint_for_pools(pools: Sequence[object]) -> ClusterBlueprint:
    """Compute the blueprint for already-constructed pools."""
    return compute_blueprint(
        tuple(pool.plan_descriptor() for pool in pools)
    )


__all__ = [
    "ClusterBlueprint",
    "PoolDescriptor",
    "SbcFabricPlan",
    "VmFabricPlan",
    "blueprint_for_pools",
    "compute_blueprint",
]
