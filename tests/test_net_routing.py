"""Route-table routing against a full-graph networkx reference.

``NetworkTopology`` answers ``path`` and ``path_properties`` from one
breadth-first route table per source switch.  On every tree fabric the
answers must equal what a full-graph ``nx.shortest_path`` plus a per-hop
bottleneck/latency walk gives, bit for bit, whichever direction of a
pair is requested first (the first-requested direction's float order
serves both).  On a cyclic skeleton the path must be *a* shortest path
whose properties match the walk along it.
"""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.specs import FAST_ETHERNET, GIGABIT_ETHERNET, SwitchSpec
from repro.net import Endpoint, NetworkTopology, Switch
from repro.shard.runtime import ClusterSpec


def reference_path(topo, src, dst):
    return nx.shortest_path(topo.graph, src, dst)


def reference_props(topo, nodes):
    """The per-hop walk: bottleneck over edges, latency over interior
    switches, summed in path order from 0.0."""
    bottleneck = float("inf")
    switch_latency = 0.0
    for u, v in zip(nodes, nodes[1:]):
        bottleneck = min(bottleneck, topo.graph.edges[u, v]["bandwidth_bps"])
    for node in nodes[1:-1]:
        if topo.graph.nodes[node]["kind"] == "switch":
            switch_latency += topo.switches[node].forwarding_latency_s
    return (bottleneck, switch_latency, len(nodes) - 1)


def bits(props):
    """Exact form of a props tuple (``==`` would equate 0.0 and -0.0)."""
    bottleneck, latency, hops = props
    return (float(bottleneck).hex(), float(latency).hex(), hops)


def assert_pair_matches_reference(topo, a, b, props_first):
    """Fresh caches, ``a -> b`` requested first, then the reverse."""
    topo._invalidate_paths()
    expected_path = reference_path(topo, a, b)
    expected_props = reference_props(topo, expected_path)
    if props_first:
        props = topo.path_properties(a, b)
        path = topo.path(a, b)
    else:
        path = topo.path(a, b)
        props = topo.path_properties(a, b)
    assert path == expected_path
    assert bits(props) == bits(expected_props)
    # The reverse direction is served from the first request's entries.
    assert topo.path(b, a) == expected_path[::-1]
    assert bits(topo.path_properties(b, a)) == bits(expected_props)


def check_pairs(topo, pairs, props_first):
    for a, b in pairs:
        assert_pair_matches_reference(topo, a, b, props_first)
        assert_pair_matches_reference(topo, b, a, props_first)


def terminal_pairs(topo):
    """A pair strategy over every node: endpoints and switch terminals."""
    names = sorted(topo.graph.nodes)
    return st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)),
        min_size=1,
        max_size=12,
    )


# -- blueprint-built ToR chains ----------------------------------------------


cluster_specs = st.one_of(
    st.builds(
        ClusterSpec,
        kind=st.just("microfaas"),
        worker_count=st.integers(1, 160),
    ),
    st.builds(
        ClusterSpec,
        kind=st.just("hybrid"),
        sbc_count=st.integers(1, 80),
        vm_count=st.integers(1, 8),
    ),
)


@settings(max_examples=12, deadline=None)
@given(spec=cluster_specs, data=st.data(), props_first=st.booleans())
def test_blueprint_fabrics_match_reference(spec, data, props_first):
    topo = spec.build(blueprint=spec.blueprint()).topology
    if spec.kind == "hybrid":
        assert "host-bridge" in topo.switches
    # The traffic the simulator generates: every worker with the OP.
    workers = [n for n in topo.endpoints if n not in ("op", "backend")]
    check_pairs(topo, [("op", name) for name in workers], props_first)
    check_pairs(topo, data.draw(terminal_pairs(topo)), props_first)


# -- random trees with mixed switch latencies --------------------------------


LATENCIES = st.floats(
    min_value=1e-7, max_value=1e-3, allow_nan=False, allow_infinity=False
)
BANDWIDTHS = st.sampled_from([0.1e9, 0.5e9, 1e9, 2.5e9, 10e9])


def make_switch(name, latency):
    spec = SwitchSpec(
        name="test switch",
        ports=64,
        watts=10.0,
        unit_cost_usd=100.0,
        forwarding_latency_s=latency,
    )
    return Switch(clock=lambda: 0.0, spec=spec, name=name)


def make_endpoint(name, fast):
    if fast:
        return Endpoint(name, GIGABIT_ETHERNET, "x86-bare")
    return Endpoint(name, FAST_ETHERNET, "arm-bare")


@st.composite
def random_trees(draw):
    """Switches joined by random parent pointers, endpoints sprinkled
    over them, built in a drawn insertion order."""
    count = draw(st.integers(1, 12))
    latencies = draw(st.lists(LATENCIES, min_size=count, max_size=count))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, count)]
    trunks = [draw(BANDWIDTHS) for _ in parents]
    homes = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=16))
    fast = [draw(st.booleans()) for _ in homes]
    topo = NetworkTopology()
    for i, latency in enumerate(latencies):
        topo.add_switch(make_switch(f"sw{i}", latency))
    edges = [
        (f"sw{child}", f"sw{parent}", bw)
        for child, (parent, bw) in enumerate(zip(parents, trunks), start=1)
    ]
    for a, b, bw in draw(st.permutations(edges)):
        topo.connect_switches(a, b, trunk_bandwidth_bps=bw)
    for i, (home, is_fast) in enumerate(zip(homes, fast)):
        topo.attach_endpoint(make_endpoint(f"ep{i}", is_fast), f"sw{home}")
    return topo


@settings(max_examples=60, deadline=None)
@given(topo=random_trees(), data=st.data(), props_first=st.booleans())
def test_random_trees_match_reference(topo, data, props_first):
    check_pairs(topo, data.draw(terminal_pairs(topo)), props_first)


# -- two-region cores ---------------------------------------------------------


@st.composite
def two_region_fabrics(draw):
    """Per-region core switches, each fanning out to a ToR chain, with
    the two cores joined by a slow inter-region trunk."""
    topo = NetworkTopology()
    for region in ("eu-west", "us-east"):
        core = f"{region}/core"
        topo.add_switch(make_switch(core, draw(LATENCIES)))
        tors = draw(st.integers(1, 5))
        upstream = core
        for t in range(tors):
            tor = f"{region}/tor-{t}"
            topo.add_switch(make_switch(tor, draw(LATENCIES)))
            topo.connect_switches(upstream, tor, draw(BANDWIDTHS))
            upstream = tor
            width = draw(st.integers(0, 4))
            topo.attach_endpoints(
                [
                    make_endpoint(f"{region}/sbc-{t}-{k}", fast=False)
                    for k in range(width)
                ],
                tor,
            )
        topo.attach_endpoint(make_endpoint(f"{region}/op", fast=True), core)
    topo.connect_switches(
        "eu-west/core", "us-east/core", trunk_bandwidth_bps=draw(BANDWIDTHS)
    )
    return topo


@settings(max_examples=30, deadline=None)
@given(topo=two_region_fabrics(), data=st.data(), props_first=st.booleans())
def test_two_region_cores_match_reference(topo, data, props_first):
    check_pairs(topo, [("eu-west/op", "us-east/op")], props_first)
    check_pairs(topo, data.draw(terminal_pairs(topo)), props_first)


# -- a cyclic skeleton --------------------------------------------------------


def test_cyclic_skeleton_returns_a_shortest_path_with_consistent_props():
    # A ring of six switches plus one chord: several equal-length routes.
    topo = NetworkTopology()
    for i in range(6):
        topo.add_switch(make_switch(f"sw{i}", 10e-6 * (i + 1) / 3.0))
    for i in range(6):
        topo.connect_switches(f"sw{i}", f"sw{(i + 1) % 6}", 1e9 / (i + 1))
    topo.connect_switches("sw0", "sw3", 0.7e9)
    for i in range(6):
        topo.attach_endpoint(make_endpoint(f"ep{i}", i % 2 == 0), f"sw{i}")
    names = sorted(topo.graph.nodes)
    for a in names:
        for b in names:
            topo._invalidate_paths()
            path = topo.path(a, b)
            assert path[0] == a and path[-1] == b
            assert len(path) - 1 == nx.shortest_path_length(topo.graph, a, b)
            hops = zip(path, path[1:])
            assert all(topo.graph.has_edge(u, v) for u, v in hops)
            assert bits(topo.path_properties(a, b)) == bits(
                reference_props(topo, path)
            )


# -- route-table accounting ---------------------------------------------------


def test_one_breadth_first_search_per_source_switch(monkeypatch):
    topo = ClusterSpec(kind="microfaas", worker_count=5000).build().topology
    builds = []
    original = NetworkTopology._build_route_table

    def counting(self, root, count_root):
        builds.append((root, count_root))
        return original(self, root, count_root)

    monkeypatch.setattr(NetworkTopology, "_build_route_table", counting)
    workers = [name for name in topo.endpoints if name.startswith("sbc-")]
    assert len(workers) == 5000
    for name in workers:
        topo.path_properties("op", name)
        topo.path("op", name)
    op_switch = topo._endpoint_switch["op"]
    assert builds == [(op_switch, True)]
    # Worker-sourced requests to the backend: one search per ToR.
    for name in workers:
        topo.path_properties(name, "backend")
    tors = {topo._endpoint_switch[name] for name in workers}
    assert len(builds) == 1 + len(tors - {op_switch})
    assert len(set(builds)) == len(builds)
    assert len(tors) > 100  # a real multi-switch chain, not one ToR


def test_cache_misses_do_not_search_with_networkx(monkeypatch):
    spec = ClusterSpec(kind="hybrid", sbc_count=60, vm_count=4)
    topo = spec.build().topology

    def forbidden(*args, **kwargs):
        raise AssertionError("networkx search on a routing cache miss")

    for name in ("shortest_path", "bidirectional_shortest_path", "has_path"):
        monkeypatch.setattr(nx, name, forbidden)
    for a in topo.endpoints:
        for b in ("op", "backend", "host-bridge"):
            topo.path(a, b)
            topo.path_properties(b, a)


# -- errors -------------------------------------------------------------------


def errors_from(call):
    try:
        call()
    except nx.NetworkXException as exc:
        return type(exc), str(exc)
    raise AssertionError("expected an error")


@pytest.mark.parametrize(
    "src,dst",
    [
        ("ghost", "a"),
        ("a", "ghost"),
        ("ghost", "ghost"),
        ("a", "b"),
        ("s0", "b"),
    ],
)
def test_unknown_and_unreachable_terminals_raise_like_networkx(src, dst):
    topo = NetworkTopology()
    topo.add_switch(make_switch("s0", 20e-6))
    topo.add_switch(make_switch("s1", 20e-6))
    topo.attach_endpoint(make_endpoint("a", fast=False), "s0")
    topo.attach_endpoint(make_endpoint("b", fast=False), "s1")
    # The full graph gives the same exception types; unreachable pairs
    # are reported between their switches, as the skeleton search did.
    expected = errors_from(lambda: nx.shortest_path(topo.graph, src, dst))
    for resolve in (topo.path, topo.path_properties):
        kind, message = errors_from(lambda: resolve(src, dst))
        assert kind is expected[0]
        if kind is nx.NodeNotFound:
            assert message == expected[1]
        assert (src, dst) not in topo._path_cache


def test_self_path_is_zero_hops():
    topo = NetworkTopology()
    topo.add_switch(make_switch("s0", 20e-6))
    topo.attach_endpoint(make_endpoint("a", fast=True), "s0")
    for name in ("a", "s0"):
        assert topo.path(name, name) == [name]
        bottleneck, latency, hops = topo.path_properties(name, name)
        assert math.isinf(bottleneck) and latency == 0.0 and hops == 0


def test_path_elements_gather_one_direction_and_drop_on_mutation():
    topo = NetworkTopology()
    topo.add_switch(make_switch("s0", 20e-6))
    topo.add_switch(make_switch("s1", 35e-6))
    topo.connect_switches("s0", "s1", trunk_bandwidth_bps=5e8)
    topo.attach_endpoint(make_endpoint("a", fast=True), "s0")
    topo.attach_endpoint(make_endpoint("b", fast=False), "s1")
    links, switches = topo.links, topo.switches
    expected = {
        ("a", "b"): ([links["a"], links["b"]],
                     [switches["s0"], switches["s1"]], ["a", "s0", "s1", "b"]),
        ("b", "a"): ([links["b"], links["a"]],
                     [switches["s1"], switches["s0"]], ["b", "s1", "s0", "a"]),
        ("a", "s1"): ([links["a"]], [switches["s0"]], ["a", "s0", "s1"]),
    }
    for (src, dst), (want_links, want_switches, want_path) in expected.items():
        bottleneck, latency, got_links, got_switches, path = (
            topo.path_elements(src, dst)
        )
        assert (bottleneck, latency) == topo.path_properties(src, dst)[:2]
        assert (got_links, got_switches, path) == (
            want_links, want_switches, want_path
        )
    before = topo.path_elements("a", "b")
    topo.add_switch(make_switch("s2", 20e-6))
    after = topo.path_elements("a", "b")
    assert after is not before and after == before
