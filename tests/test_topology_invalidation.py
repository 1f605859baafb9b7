"""Path-cache hygiene for NetworkTopology.

The memoized path/properties caches and the per-source-switch route
tables behind them are only sound if (a) every graph mutation —
including the bulk ``attach_endpoints`` fast path — flushes them, and
(b) time-gated chaos (``Switch.fail_until``, link ``drop_until``) stays
out of the graph entirely, so a fault window never poisons a cached
route."""

import pytest

from repro.hardware.specs import FAST_ETHERNET, GIGABIT_ETHERNET, TESTBED_SWITCH
from repro.net import Endpoint, NetworkTopology, Switch


def make_topology(*switch_names):
    topo = NetworkTopology()
    for name in switch_names:
        topo.add_switch(Switch(clock=lambda: 0.0, name=name))
    return topo


def endpoint(name, host_class="arm-bare"):
    nic = GIGABIT_ETHERNET if host_class.startswith("x86") else FAST_ETHERNET
    return Endpoint(name, nic, host_class)


def test_attach_endpoint_invalidates_cached_paths():
    topo = make_topology("s0")
    topo.attach_endpoint(endpoint("a"), "s0")
    topo.attach_endpoint(endpoint("b"), "s0")
    assert topo.path("a", "b") == ["a", "s0", "b"]
    assert ("a", "b") in topo._path_cache
    assert topo._route_tables
    topo.attach_endpoint(endpoint("c"), "s0")
    assert topo._path_cache == {}
    assert topo._props_cache == {}
    assert topo._route_tables == {}


def test_bulk_attach_invalidates_cached_paths():
    topo = make_topology("s0")
    topo.attach_endpoint(endpoint("a"), "s0")
    topo.attach_endpoint(endpoint("b"), "s0")
    topo.path_properties("a", "b")
    assert topo._props_cache
    topo.attach_endpoints([endpoint("c"), endpoint("d")], "s0")
    assert topo._path_cache == {}
    assert topo._props_cache == {}
    assert topo._route_tables == {}
    # The new endpoints resolve as if attached one at a time.
    assert topo.path("c", "d") == ["c", "s0", "d"]


def test_graph_mutation_mid_run_reroutes():
    # a — s0 ... s1 — b starts unroutable, then a trunk lands mid-run.
    topo = make_topology("s0", "s1")
    topo.attach_endpoint(endpoint("a"), "s0")
    topo.attach_endpoint(endpoint("b"), "s1")
    import networkx as nx

    with pytest.raises(nx.NetworkXNoPath):
        topo.path("a", "b")
    topo.connect_switches("s0", "s1", trunk_bandwidth_bps=1e9)
    assert topo.path("a", "b") == ["a", "s0", "s1", "b"]
    # Growing a third switch invalidates again; the old route survives
    # recomputation (shortest path is unchanged) but is freshly derived.
    topo.path_properties("a", "b")
    topo.add_switch(Switch(clock=lambda: 0.0, name="s2"))
    assert topo._path_cache == {}
    assert topo._route_tables == {}
    topo.connect_switches("s1", "s2")
    assert topo.path("a", "b") == ["a", "s0", "s1", "b"]


def test_path_properties_recomputed_after_mutation():
    topo = make_topology("s0", "s1")
    topo.attach_endpoint(endpoint("a"), "s0")
    topo.attach_endpoint(endpoint("b"), "s0")
    _, latency_one_hop, hops_one = topo.path_properties("a", "b")
    assert hops_one == 2
    # Re-home b's traffic through a second switch: attach a new endpoint
    # there and confirm its props reflect the longer spine.
    topo.connect_switches("s0", "s1")
    topo.attach_endpoint(endpoint("c"), "s1")
    _, latency_two_hop, hops_two = topo.path_properties("a", "c")
    assert hops_two == 3
    assert latency_two_hop > latency_one_hop


MUTATIONS = {
    "add_switch": lambda topo: topo.add_switch(
        Switch(clock=lambda: 0.0, name="s3")
    ),
    "attach_endpoint": lambda topo: topo.attach_endpoint(endpoint("c"), "s1"),
    "attach_endpoints": lambda topo: topo.attach_endpoints(
        [endpoint("c"), endpoint("d")], "s1"
    ),
    "connect_switches": lambda topo: topo.connect_switches("s1", "s2"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_mutation_flushes_route_tables(mutation):
    topo = make_topology("s0", "s1", "s2")
    topo.connect_switches("s0", "s1")
    topo.attach_endpoint(endpoint("a"), "s0")
    topo.attach_endpoint(endpoint("b"), "s1")
    topo.path_properties("a", "b")
    topo.path("s1", "a")
    assert set(topo._route_tables) == {("s0", True), ("s1", False)}
    MUTATIONS[mutation](topo)
    assert topo._path_cache == {}
    assert topo._props_cache == {}
    assert topo._route_tables == {}
    # Routing rebuilds from the mutated fabric.
    assert topo.path("a", "b") == ["a", "s0", "s1", "b"]
    assert set(topo._route_tables) == {("s0", True)}


def test_switch_fail_until_does_not_touch_graph_or_caches():
    topo = make_topology("s0")
    topo.attach_endpoint(endpoint("a"), "s0")
    topo.attach_endpoint(endpoint("b"), "s0")
    before = topo.path("a", "b")
    cache_snapshot = dict(topo._path_cache)
    tables = dict(topo._route_tables)
    switch = topo.switches["s0"]
    switch.fail_until(10.0)
    # Chaos is a time gate, not a topology change: the cached route is
    # still the route, and no flush happened.
    assert topo._path_cache == cache_snapshot
    assert topo._route_tables == tables
    assert topo.path("a", "b") is before
    assert switch.outage_remaining_s(4.0) == 6.0
    assert switch.outage_remaining_s(11.0) == 0.0
    # fail_until extends, never shrinks.
    switch.fail_until(5.0)
    assert switch.down_until == 10.0


def test_link_drop_until_does_not_touch_graph_or_caches():
    topo = make_topology("s0")
    topo.attach_endpoint(endpoint("a"), "s0")
    link = topo.attach_endpoint(endpoint("b"), "s0")
    topo.path_properties("a", "b")
    props_snapshot = dict(topo._props_cache)
    link.drop_until(3.0)
    link.degrade(extra_latency_s=0.002)
    assert topo._props_cache == props_snapshot
    # The fault shows up in the link's own delay model instead.
    assert link.fault_delay_s(1.0) == pytest.approx(2.0 + 0.002)
    assert link.fault_delay_s(5.0) == pytest.approx(0.002)
    link.restore()
    assert link.fault_delay_s(5.0) == 0.0


def test_region_prefixed_endpoints_across_switch_islands():
    """A federation-style fabric: per-region switch islands joined by a
    WAN trunk, endpoints namespaced by region prefix."""
    topo = make_topology("eu-west/tor", "us-east/tor")
    topo.attach_endpoints(
        [endpoint("eu-west/sbc-0"), endpoint("eu-west/sbc-1")], "eu-west/tor"
    )
    topo.attach_endpoints(
        [endpoint("us-east/sbc-0"), endpoint("us-east/op", "x86-bare")],
        "us-east/tor",
    )
    topo.connect_switches("eu-west/tor", "us-east/tor", trunk_bandwidth_bps=0.5e9)
    # Same-region traffic never crosses the trunk.
    assert topo.path("eu-west/sbc-0", "eu-west/sbc-1") == [
        "eu-west/sbc-0",
        "eu-west/tor",
        "eu-west/sbc-1",
    ]
    # Cross-region traffic rides the trunk and is bottlenecked by it.
    spine = topo.path("eu-west/sbc-0", "us-east/op")
    assert spine == ["eu-west/sbc-0", "eu-west/tor", "us-east/tor", "us-east/op"]
    bottleneck, latency, hops = topo.path_properties("eu-west/sbc-0", "us-east/op")
    assert bottleneck == 0.5e9 or bottleneck < 0.5e9  # trunk or NIC-bound
    assert hops == 3
    assert latency == pytest.approx(
        topo.switches["eu-west/tor"].forwarding_latency_s
        + topo.switches["us-east/tor"].forwarding_latency_s
    )
    # Identically-suffixed names in different regions stay distinct.
    assert topo._endpoint_switch["eu-west/sbc-0"] == "eu-west/tor"
    assert topo._endpoint_switch["us-east/sbc-0"] == "us-east/tor"
    # Mutating one island flushes the shared cache (single source of
    # truth — region prefixes don't imply per-region caches).
    topo.attach_endpoint(endpoint("us-east/sbc-1"), "us-east/tor")
    assert topo._path_cache == {}


def test_reverse_direction_served_from_same_cache_entry():
    topo = make_topology("s0", "s1")
    topo.connect_switches("s0", "s1")
    topo.attach_endpoint(endpoint("a"), "s0")
    topo.attach_endpoint(endpoint("b"), "s1")
    forward = topo.path("a", "b")
    assert topo._path_cache[("b", "a")] == forward[::-1]
    props = topo.path_properties("a", "b")
    assert topo._props_cache[("b", "a")] == props


def test_duplicate_names_rejected_in_bulk_attach():
    topo = make_topology("s0")
    topo.attach_endpoint(endpoint("a"), "s0")
    with pytest.raises(ValueError, match="duplicate endpoint"):
        topo.attach_endpoints([endpoint("b"), endpoint("a")], "s0")
    # Port accounting survives the failed call: 'b' got attached before
    # the dup check tripped on 'a' (mirrors serial attach semantics
    # where each endpoint is checked as it arrives).
    assert "b" in topo.switches["s0"].links


def test_bulk_attach_respects_port_limits():
    topo = make_topology("s0")
    too_many = [endpoint(f"e{i}") for i in range(TESTBED_SWITCH.ports + 1)]
    from repro.net.switch import PortExhaustedError

    with pytest.raises(PortExhaustedError):
        topo.attach_endpoints(too_many, "s0")
