"""Worker partitioning for sharded simulation.

A divisible pool's global worker ids are dealt out like cards, one run
of consecutive ids at a time (SBC boards are independent hardware, so
any slice works), while indivisible pools — a
:class:`~repro.cluster.pool.MicroVmPool` is one rack server, one
hypervisor, one wall meter — land whole on a single shard.  Dealing
balances the work, not just the boards: least-loaded placement breaks
ties toward the lowest id, so one contiguous slice per shard would hand
every job of a ramp-up to shard 0 (four in five on the 5,000-worker
benchmark replay) while the other shards idle.  An SBC pool's runs are
its switch spans, so a shard builds whole switches and registers each
remote span in bulk.  Ids are matched by set membership everywhere, so
any slice gives the same simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class PoolShape:
    """The partitioner's view of one pool: how many global worker ids
    it allocates (in build order) and whether it can be split."""

    worker_count: int
    divisible: bool = True
    #: Lengths of the consecutive id runs a divisible pool is dealt in,
    #: in id order.  Single ids are dealt instead when the runs are
    #: fewer than the shards (a one-switch pool still splits).
    runs: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ShardPlan:
    """Assignment of every global worker id to exactly one shard."""

    #: Per shard: sorted tuple of the global worker ids it simulates.
    shard_worker_ids: Tuple[Tuple[int, ...], ...]

    @property
    def shard_count(self) -> int:
        return len(self.shard_worker_ids)

    @property
    def worker_count(self) -> int:
        return sum(len(ids) for ids in self.shard_worker_ids)

    def shard_of(self, worker_id: int) -> int:
        """The shard simulating ``worker_id``."""
        return self._owner[worker_id]

    def __post_init__(self) -> None:
        owner = {}
        for shard, ids in enumerate(self.shard_worker_ids):
            for worker_id in ids:
                if worker_id in owner:
                    raise ValueError(
                        f"worker {worker_id} assigned to two shards"
                    )
                owner[worker_id] = shard
        if set(owner) != set(range(len(owner))):
            raise ValueError("worker ids must cover 0..N-1 exactly")
        object.__setattr__(self, "_owner", owner)


def plan_shards(pools: Sequence[PoolShape], shards: int) -> ShardPlan:
    """Balanced partition of the pools' global id space into ``shards``.

    Divisible pools are dealt out like cards: run ``j`` of a pool (or,
    with fewer runs than shards, worker ``j``) lands on shard
    ``j mod shards``.
    Indivisible pools go whole to the lightest shard at their turn.
    Pools are processed in build order, matching the harness's global
    id allocation.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    total = sum(pool.worker_count for pool in pools)
    if total < 1:
        raise ValueError("need at least one worker")
    if shards > total:
        raise ValueError(
            f"cannot split {total} workers into {shards} shards"
        )
    assigned: List[List[int]] = [[] for _ in range(shards)]
    next_id = 0
    for pool in pools:
        ids = list(range(next_id, next_id + pool.worker_count))
        next_id += pool.worker_count
        if not ids:
            continue
        if not pool.divisible:
            lightest = min(range(shards), key=lambda s: (len(assigned[s]), s))
            assigned[lightest].extend(ids)
            continue
        if pool.runs and (sum(pool.runs) != len(ids) or min(pool.runs) < 1):
            raise ValueError(
                f"runs {pool.runs} do not tile a {len(ids)}-worker pool"
            )
        if len(pool.runs) < shards:
            # Some slices are empty for pools smaller than the shard count.
            for shard in range(shards):
                assigned[shard].extend(ids[shard::shards])
            continue
        cursor = 0
        for index, size in enumerate(pool.runs):
            assigned[index % shards].extend(ids[cursor:cursor + size])
            cursor += size
    return ShardPlan(
        shard_worker_ids=tuple(
            tuple(sorted(ids)) for ids in assigned
        )
    )


__all__ = ["PoolShape", "ShardPlan", "plan_shards"]
