"""Partitioner invariants: coverage, balance, pool atomicity."""

import pytest

from repro.shard.partition import PoolShape, ShardPlan, plan_shards


def test_single_pool_splits_into_balanced_strided_slices():
    plan = plan_shards([PoolShape(10)], 4)
    assert plan.shard_count == 4
    assert plan.worker_count == 10
    sizes = [len(ids) for ids in plan.shard_worker_ids]
    assert max(sizes) - min(sizes) <= 1
    # Every 4th id, dealt in shard order: the lowest ids (which
    # least-loaded placement fills first) spread over every shard.
    assert plan.shard_worker_ids == ((0, 4, 8), (1, 5, 9), (2, 6), (3, 7))


def test_every_worker_is_owned_exactly_once():
    plan = plan_shards([PoolShape(7), PoolShape(5, divisible=False)], 3)
    owned = [plan.shard_of(wid) for wid in range(12)]
    assert len(owned) == 12
    flattened = sorted(
        wid for ids in plan.shard_worker_ids for wid in ids
    )
    assert flattened == list(range(12))


def test_indivisible_pool_lands_whole_on_one_shard():
    plan = plan_shards([PoolShape(8), PoolShape(4, divisible=False)], 2)
    vm_ids = set(range(8, 12))
    owners = {plan.shard_of(wid) for wid in vm_ids}
    assert len(owners) == 1
    # It went to the lightest shard, rebalancing total load.
    sizes = [len(ids) for ids in plan.shard_worker_ids]
    assert max(sizes) - min(sizes) <= 4


def test_indivisible_only_leaves_other_shards_empty():
    plan = plan_shards([PoolShape(6, divisible=False)], 2)
    sizes = sorted(len(ids) for ids in plan.shard_worker_ids)
    assert sizes == [0, 6]


def test_more_shards_than_workers_is_rejected():
    with pytest.raises(ValueError):
        plan_shards([PoolShape(3)], 4)


def test_double_assignment_is_rejected():
    with pytest.raises(ValueError):
        ShardPlan(shard_worker_ids=((0, 1), (1, 2)))


def test_gap_in_id_space_is_rejected():
    with pytest.raises(ValueError):
        ShardPlan(shard_worker_ids=((0,), (2,)))


def test_one_shard_owns_everything():
    plan = plan_shards([PoolShape(5), PoolShape(3, divisible=False)], 1)
    assert plan.shard_worker_ids == ((0, 1, 2, 3, 4, 5, 6, 7),)


def test_runs_are_dealt_whole_in_turn():
    plan = plan_shards([PoolShape(10, runs=(3, 3, 2, 2))], 2)
    assert plan.shard_worker_ids == ((0, 1, 2, 6, 7), (3, 4, 5, 8, 9))


def test_fewer_runs_than_shards_deal_single_ids():
    plan = plan_shards([PoolShape(6, runs=(4, 2))], 3)
    assert plan.shard_worker_ids == ((0, 3), (1, 4), (2, 5))


def test_runs_must_tile_the_pool():
    with pytest.raises(ValueError, match="tile"):
        plan_shards([PoolShape(10, runs=(3, 3))], 2)
    with pytest.raises(ValueError, match="tile"):
        plan_shards([PoolShape(2, runs=(2, 0))], 2)


def test_cluster_spec_deals_whole_switch_spans():
    from repro.shard import ClusterSpec

    spec = ClusterSpec(kind="hybrid", sbc_count=100, vm_count=6)
    sbc_plan = spec.blueprint().pool_plans[0]
    sbc, vm = spec.pool_shapes()
    assert len(sbc.runs) == len(sbc_plan.spans) > 1
    assert not vm.divisible
    plan = plan_shards(spec.pool_shapes(), 2)
    for _switch, first, count in sbc_plan.spans:
        assert len({plan.shard_of(wid) for wid in range(first, first + count)}) == 1
