"""Unit tests for the network substrate."""

import pytest

from repro.hardware.specs import (
    CATALYST_2960S,
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    TESTBED_SWITCH,
)
from repro.net import Endpoint, NetworkTopology, Switch, TransferModel
from repro.net.link import Link, STACK_LATENCY_S
from repro.net.switch import PortExhaustedError, switches_needed


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_testbed():
    """One switch, one orchestrator, one ARM worker, one VM, one backend."""
    topo = NetworkTopology()
    switch = Switch(FakeClock(), TESTBED_SWITCH)
    topo.add_switch(switch)
    topo.attach_endpoint(Endpoint("op", GIGABIT_ETHERNET, "x86-bare"), "switch")
    topo.attach_endpoint(Endpoint("sbc-0", FAST_ETHERNET, "arm-bare"), "switch")
    topo.attach_endpoint(Endpoint("vm-0", GIGABIT_ETHERNET, "x86-virtio"), "switch")
    topo.attach_endpoint(
        Endpoint("backend", FAST_ETHERNET, "x86-bare"), "switch"
    )
    return topo


# ---------------------------------------------------------------------------
# Endpoint / Link
# ---------------------------------------------------------------------------


def test_endpoint_rejects_unknown_host_class():
    with pytest.raises(ValueError):
        Endpoint("bad", FAST_ETHERNET, "sparc-bare")


def test_endpoint_stack_latency_by_class():
    arm = Endpoint("a", FAST_ETHERNET, "arm-bare")
    vm = Endpoint("v", GIGABIT_ETHERNET, "x86-virtio")
    bare = Endpoint("b", GIGABIT_ETHERNET, "x86-bare")
    # virtio + bridge costs more than bare metal; the slow ARM core sits
    # in between.
    assert vm.stack_latency_s > arm.stack_latency_s > bare.stack_latency_s


def test_link_effective_bandwidth_is_bottleneck():
    fast = Link(Endpoint("a", FAST_ETHERNET, "arm-bare"), 1e9)
    assert fast.effective_bandwidth_bps == pytest.approx(
        FAST_ETHERNET.goodput_bps
    )
    slow_port = Link(Endpoint("b", GIGABIT_ETHERNET, "x86-bare"), 10e6)
    assert slow_port.effective_bandwidth_bps == pytest.approx(10e6)


def test_link_serialization_time():
    link = Link(Endpoint("a", FAST_ETHERNET, "arm-bare"), 1e9)
    one_mb = 1_000_000
    expected = one_mb * 8 / FAST_ETHERNET.goodput_bps
    assert link.serialization_s(one_mb) == pytest.approx(expected)
    with pytest.raises(ValueError):
        link.serialization_s(-1)


def test_link_validation():
    with pytest.raises(ValueError):
        Link(Endpoint("a", FAST_ETHERNET, "arm-bare"), 0.0)


# ---------------------------------------------------------------------------
# Switch
# ---------------------------------------------------------------------------


def test_switch_port_accounting():
    switch = Switch(FakeClock(), TESTBED_SWITCH)
    assert switch.ports_free == 24
    switch.attach(Endpoint("a", FAST_ETHERNET, "arm-bare"))
    assert switch.ports_used == 1
    assert switch.ports_free == 23


def test_switch_duplicate_attach_rejected():
    switch = Switch(FakeClock(), TESTBED_SWITCH)
    switch.attach(Endpoint("a", FAST_ETHERNET, "arm-bare"))
    with pytest.raises(ValueError):
        switch.attach(Endpoint("a", FAST_ETHERNET, "arm-bare"))


def test_switch_port_exhaustion():
    switch = Switch(FakeClock(), TESTBED_SWITCH)
    for i in range(24):
        switch.attach(Endpoint(f"n{i}", FAST_ETHERNET, "arm-bare"))
    with pytest.raises(PortExhaustedError):
        switch.attach(Endpoint("extra", FAST_ETHERNET, "arm-bare"))


def test_switch_constant_power():
    clock = FakeClock()
    switch = Switch(clock, CATALYST_2960S)
    clock.t = 100.0
    assert switch.watts == pytest.approx(40.87)
    assert switch.trace.energy_joules(0, 100) == pytest.approx(4087.0)


def test_switches_needed_matches_appendix():
    """989 SBCs on 48-port switches => 21 ToR switches (Sec. V)."""
    assert switches_needed(989, CATALYST_2960S) == 21
    assert switches_needed(41, CATALYST_2960S) == 1
    assert switches_needed(48, CATALYST_2960S) == 1
    assert switches_needed(49, CATALYST_2960S) == 2
    assert switches_needed(0, CATALYST_2960S) == 0
    with pytest.raises(ValueError):
        switches_needed(-1)


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


def test_topology_path_through_switch():
    topo = make_testbed()
    assert topo.path("sbc-0", "backend") == ["sbc-0", "switch", "backend"]


def test_topology_duplicate_names_rejected():
    topo = make_testbed()
    with pytest.raises(ValueError):
        topo.attach_endpoint(Endpoint("op", FAST_ETHERNET, "arm-bare"), "switch")
    with pytest.raises(ValueError):
        topo.add_switch(Switch(FakeClock(), TESTBED_SWITCH))


def test_topology_path_properties_bottleneck():
    topo = make_testbed()
    bw, latency, hops = topo.path_properties("sbc-0", "op")
    assert bw == pytest.approx(FAST_ETHERNET.goodput_bps)
    assert latency == pytest.approx(TESTBED_SWITCH.forwarding_latency_s)
    assert hops == 2


def test_topology_multi_switch_path():
    topo = NetworkTopology()
    clock = FakeClock()
    topo.add_switch(Switch(clock, TESTBED_SWITCH, name="s1"))
    topo.add_switch(Switch(clock, TESTBED_SWITCH, name="s2"))
    topo.connect_switches("s1", "s2", trunk_bandwidth_bps=1e9)
    topo.attach_endpoint(Endpoint("a", GIGABIT_ETHERNET, "x86-bare"), "s1")
    topo.attach_endpoint(Endpoint("b", GIGABIT_ETHERNET, "x86-bare"), "s2")
    bw, latency, hops = topo.path_properties("a", "b")
    assert hops == 3
    assert latency == pytest.approx(2 * TESTBED_SWITCH.forwarding_latency_s)


def test_topology_connect_switches_requires_switches():
    topo = make_testbed()
    with pytest.raises(KeyError):
        topo.connect_switches("switch", "op")


def test_topology_contains():
    topo = make_testbed()
    assert "sbc-0" in topo
    assert "ghost" not in topo


# ---------------------------------------------------------------------------
# TransferModel
# ---------------------------------------------------------------------------


def test_rtt_includes_both_stacks_and_switch():
    topo = make_testbed()
    model = TransferModel(topo)
    expected_one_way = (
        STACK_LATENCY_S["arm-bare"]
        + STACK_LATENCY_S["x86-bare"]
        + TESTBED_SWITCH.forwarding_latency_s
    )
    assert model.rtt_s("sbc-0", "backend") == pytest.approx(2 * expected_one_way)


def test_vm_rtt_exceeds_bare_metal_rtt():
    """virtio + bridge makes the conventional cluster's small-message
    round trips slower than MicroFaaS's bare-metal ones."""
    topo = make_testbed()
    model = TransferModel(topo)
    assert model.rtt_s("vm-0", "backend") > model.rtt_s("sbc-0", "backend")


def test_transfer_scales_with_bytes():
    topo = make_testbed()
    model = TransferModel(topo)
    small = model.transfer("op", "sbc-0", 1_000).total_s
    large = model.transfer("op", "sbc-0", 10_000_000).total_s
    assert large > 100 * small


def test_transfer_bottlenecked_by_fast_ethernet():
    topo = make_testbed()
    model = TransferModel(topo)
    estimate = model.transfer("op", "sbc-0", 10_000_000)
    assert estimate.serialization_s == pytest.approx(
        10_000_000 * 8 / FAST_ETHERNET.goodput_bps
    )


def test_vm_bulk_transfer_is_faster_than_sbc():
    """GigE + virtio beats the SBC's Fast Ethernet for bulk payloads."""
    topo = make_testbed()
    model = TransferModel(topo)
    vm = model.transfer("op", "vm-0", 1_000_000)
    sbc = model.transfer("op", "sbc-0", 1_000_000)
    assert vm.total_s < sbc.total_s


def test_transfer_rejects_negative_bytes():
    model = TransferModel(make_testbed())
    with pytest.raises(ValueError):
        model.transfer("op", "sbc-0", -5)


def test_invocation_overhead_includes_session():
    topo = make_testbed()
    model = TransferModel(topo)
    overhead = model.invocation_overhead_s("op", "sbc-0", 2_000, 1_000)
    bare = (
        model.transfer("op", "sbc-0", 2_000).total_s
        + model.transfer("sbc-0", "op", 1_000).total_s
    )
    assert overhead > bare
    assert overhead - bare == pytest.approx(28e-3)  # ARM session overhead


def test_arm_session_overhead_exceeds_vm():
    topo = make_testbed()
    model = TransferModel(topo)
    arm = model.invocation_overhead_s("op", "sbc-0", 1_000, 1_000)
    vm = model.invocation_overhead_s("op", "vm-0", 1_000, 1_000)
    assert arm > vm
