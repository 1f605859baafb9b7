"""Blueprint construction: builds must reproduce recorded fabric
structure and simulation results, whether the blueprint is passed in or
computed by the harness, and shard builds must keep the full id space
while materializing only local state."""

import hashlib
import pickle

import pytest

from repro.cluster import (
    ConventionalCluster,
    HybridCluster,
    MicroFaaSCluster,
    compute_blueprint,
)
from repro.cluster.blueprint import (
    ClusterBlueprint,
    PoolDescriptor,
    SbcFabricPlan,
    VmFabricPlan,
    blueprint_for_pools,
)
from repro.core.queue import RemoteQueueStub, WorkerQueue
from repro.shard.runtime import ClusterSpec


def structure(cluster):
    """Everything the fabric build decides, in creation order."""
    topo = cluster.topology
    return {
        "switches": [s.name for s in cluster.switches],
        "ports": [(s.name, s.ports_used, sorted(s.trunks)) for s in cluster.switches],
        "links": {name: sorted(s.links) for name, s in topo.switches.items()},
        "nodes": list(topo.graph.nodes),
        "edges": list(topo.graph.edges),
        "skeleton_nodes": list(topo._switch_graph.nodes),
        "skeleton_edges": list(topo._switch_graph.edges),
        "endpoint_switch": dict(topo._endpoint_switch),
        "queue_ids": [q.worker_id for q in cluster.orchestrator.queues],
        "queue_platforms": [q.platform for q in cluster.orchestrator.queues],
        "worker_ids": [wid for p in cluster.pools for wid in p.worker_ids],
    }


CASES = [
    ("microfaas-10", lambda bp: MicroFaaSCluster(worker_count=10, blueprint=bp)),
    ("microfaas-21", lambda bp: MicroFaaSCluster(worker_count=21, blueprint=bp)),
    ("microfaas-22", lambda bp: MicroFaaSCluster(worker_count=22, blueprint=bp)),
    ("microfaas-150", lambda bp: MicroFaaSCluster(worker_count=150, blueprint=bp)),
    ("hybrid-30+6", lambda bp: HybridCluster(sbc_count=30, vm_count=6, blueprint=bp)),
    ("hybrid-1+1", lambda bp: HybridCluster(sbc_count=1, vm_count=1, blueprint=bp)),
    ("conventional-6", lambda bp: ConventionalCluster(vm_count=6, blueprint=bp)),
]


#: sha256 of ``repr(structure(cluster))`` per CASES label, recorded
#: before the blueprint became the only construction path.
RECORDED_STRUCTURE = {
    "microfaas-10": "5f36f173dcf409c4596b5c25ab76c1ad43e1464069d5ba9ca55a0c963ecdf6a1",
    "microfaas-21": "280bd57a9c450dfc4ad54d9fa0b840abeb756fd880020c8659913e5b46ef566e",
    "microfaas-22": "ff96d062275810fc88c609e338cb7da4898b280260fa3d87be37218cdec0c487",
    "microfaas-150": "99922ae0ddb58a8bf5f1261b803d0499966493ced740f7253eb389c796e71bdf",
    "hybrid-30+6": "c27ee30ca39a8bcdf707de6546cb9da799fb86c6229d46b859c66c608953d199",
    "hybrid-1+1": "8dcfa8cf6d7244bbd4aee52361e5f7a349b33ff6e3649af33be8cd64ad8beaf6",
    "conventional-6": "9ff239bfb6aacc7abde11e630963216787ad3843a8841d7700f1f26af847e4c7",
}


def structure_digest(cluster):
    return hashlib.sha256(repr(structure(cluster)).encode()).hexdigest()


@pytest.mark.parametrize("label,make", CASES, ids=[c[0] for c in CASES])
def test_planned_build_matches_legacy_structure(label, make):
    computed = make(None)
    passed = make(blueprint_for_pools(computed.pools))
    assert structure_digest(computed) == RECORDED_STRUCTURE[label]
    assert structure_digest(passed) == RECORDED_STRUCTURE[label]


#: ``run_saturated(invocations_per_function=4)`` results recorded
#: before the blueprint became the only construction path: (jobs,
#: duration, energy, pool energy, mean latency, final clock).
RECORDED_RUNS = {
    "microfaas": (
        68,
        21.293810476719866,
        442.5347463662449,
        (("arm", 442.5347463662449),),
        6.266754467905319,
        21.293810476719866,
    ),
    "hybrid": (
        68,
        11.435672643679917,
        1193.7298413830845,
        (("arm", 347.42686108601094), ("x86", 846.3029802970734)),
        5.0919360086311976,
        11.435672643679917,
    ),
}


@pytest.mark.parametrize(
    "label,make",
    [
        ("microfaas", lambda bp: MicroFaaSCluster(worker_count=30, blueprint=bp)),
        (
            "hybrid",
            lambda bp: HybridCluster(sbc_count=24, vm_count=4, blueprint=bp),
        ),
    ],
    ids=["microfaas", "hybrid"],
)
def test_planned_build_runs_bit_identically(label, make):
    blueprint = blueprint_for_pools(make(None).pools)

    def run(bp):
        cluster = make(bp)
        result = cluster.run_saturated(invocations_per_function=4)
        return (
            result.jobs_completed,
            result.duration_s,
            result.energy_joules,
            result.pool_energy,
            result.telemetry.mean_latency_s(),
            cluster.env.now,
        )

    assert run(blueprint) == RECORDED_RUNS[label]
    assert run(None) == RECORDED_RUNS[label]


def test_blueprint_is_small_and_picklable():
    spec = ClusterSpec(kind="microfaas", worker_count=5000)
    blueprint = spec.blueprint()
    payload = pickle.dumps(blueprint)
    assert pickle.loads(payload) == blueprint
    # The whole point: names and ints, not a topology.  5,000 workers
    # span ~230 switches; the pickle stays a few kilobytes.
    assert len(payload) < 32_768


def test_blueprint_arithmetic_matches_growth_rule():
    # 24-port testbed switch, op+backend on the core: 21 workers on the
    # first switch, 22 per grown switch (one port held for each trunk).
    blueprint = ClusterSpec(kind="microfaas", worker_count=100).blueprint()
    (plan,) = blueprint.pool_plans
    assert isinstance(plan, SbcFabricPlan)
    assert plan.spans[0] == ("switch", 0, 21)
    assert plan.spans[1] == ("switch-1", 21, 22)
    assert [count for _, _, count in plan.spans] == [21, 22, 22, 22, 13]
    assert blueprint.total_workers == 100
    # Hybrid: the host bridge takes a core port and the switch-name
    # counter, so the SBC chain resumes at "switch-2".
    hybrid = ClusterSpec(kind="hybrid", sbc_count=45, vm_count=6).blueprint()
    sbc_plan, vm_plan = hybrid.pool_plans
    assert isinstance(vm_plan, VmFabricPlan)
    assert sbc_plan.spans[0] == ("switch", 0, 20)
    assert sbc_plan.spans[1] == ("switch-2", 20, 22)
    assert vm_plan.first_worker_id == 45


def test_bind_rejects_mismatched_shape():
    blueprint = ClusterSpec(kind="microfaas", worker_count=50).blueprint()
    with pytest.raises(ValueError, match="does not match"):
        MicroFaaSCluster(worker_count=51, blueprint=blueprint)
    with pytest.raises(ValueError, match="pools"):
        HybridCluster(sbc_count=40, vm_count=10, blueprint=blueprint)


def test_shard_build_elides_remote_state():
    spec = ClusterSpec(kind="microfaas", worker_count=100)
    blueprint = spec.blueprint()
    local = tuple(range(22, 44))  # exactly the second switch's span + 1
    shard = MicroFaaSCluster(
        worker_count=100, local_ids=local, blueprint=blueprint
    )
    serial = MicroFaaSCluster(worker_count=100)
    # Full id space either way.
    assert len(shard.orchestrator.queues) == 100
    assert len(shard.workers) == 100
    # Same switch skeleton as the serial build (paths must agree).
    assert [s.name for s in shard.switches] == [s.name for s in serial.switches]
    assert list(shard.topology._switch_graph.edges) == list(
        serial.topology._switch_graph.edges
    )
    # Local ids: live queues, endpoints attached to the planned switch.
    for wid in local:
        assert isinstance(shard.orchestrator.queues[wid], WorkerQueue)
        assert shard.topology._endpoint_switch[f"sbc-{wid}"] == (
            serial.topology._endpoint_switch[f"sbc-{wid}"]
        )
    # Remote ids: stub queues, no endpoint in the graph at all.
    for wid in (0, 21, 44, 99):
        queue = shard.orchestrator.queues[wid]
        assert isinstance(queue, RemoteQueueStub)
        assert queue.depth == 0 and queue.outstanding == 0
        assert f"sbc-{wid}" not in shard.topology.graph
        # ...but the harness still knows the worker's pool and endpoint
        # name (chaos targeting and telemetry labels need them).
        assert shard.worker_endpoint(wid) == f"sbc-{wid}"
        assert shard.workers[wid] is None


def test_stub_queue_refuses_traffic():
    stub = RemoteQueueStub(worker_id=7)
    with pytest.raises(RuntimeError, match="remote"):
        stub.push(object())
    with pytest.raises(RuntimeError, match="remote"):
        stub.pop()
    with pytest.raises(AttributeError):
        stub.outstanding = 1  # class-level zero is read-only


def test_sharded_run_with_blueprint_matches_serial():
    from repro.shard import ShardedCluster

    spec = ClusterSpec(kind="microfaas", worker_count=30, seed=3)
    serial = spec.build().run_saturated(invocations_per_function=3)
    with ShardedCluster(spec, shards=3, executor="inline") as sharded:
        result = sharded.run_saturated(invocations_per_function=3)
    assert result.jobs_completed == serial.jobs_completed
    assert result.duration_s == serial.duration_s
    assert result.energy_joules == serial.energy_joules


def test_compute_blueprint_validates_descriptors():
    with pytest.raises(ValueError, match="at least one pool"):
        compute_blueprint(())
    with pytest.raises(ValueError, match="unknown pool kind"):
        compute_blueprint((PoolDescriptor(kind="gpu", worker_count=4),))


def test_blueprint_survives_equality_of_recompute():
    spec = ClusterSpec(kind="hybrid", sbc_count=50, vm_count=6)
    assert spec.blueprint() == spec.blueprint()
    assert isinstance(spec.blueprint(), ClusterBlueprint)
