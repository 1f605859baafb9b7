"""Network endpoints and links.

An :class:`Endpoint` is a NIC attached to a host, characterized by its
spec (bandwidth, efficiency) and its *stack latency* — the one-way time
the host's software spends per message (interrupt handling, TCP/IP
processing, and for microVMs the virtio + bridge detour).  A
:class:`Link` joins an endpoint to a switch port.

Stack latencies are calibrated to the three host classes in the paper's
testbed:

- ``arm-bare``   — MicroPython worker on the SBC (slow CPU, bare metal).
- ``x86-virtio`` — microVM guest behind virtio-net and a host bridge.
- ``x86-bare``   — bare-metal x86 host (orchestrator, hypervisor host).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import NicSpec

#: One-way per-message protocol-stack latency by host class, seconds.
STACK_LATENCY_S = {
    "arm-bare": 120e-6,
    "x86-virtio": 280e-6,
    "x86-bare": 60e-6,
}


@dataclass(frozen=True)
class Endpoint:
    """A NIC attached to a named host."""

    name: str
    nic: NicSpec
    host_class: str

    def __post_init__(self) -> None:
        if self.host_class not in STACK_LATENCY_S:
            raise ValueError(
                f"unknown host class {self.host_class!r}; "
                f"expected one of {sorted(STACK_LATENCY_S)}"
            )

    @property
    def stack_latency_s(self) -> float:
        """One-way per-message software latency at this endpoint."""
        return STACK_LATENCY_S[self.host_class]

    @property
    def goodput_bps(self) -> float:
        """Achievable application-level throughput of the NIC."""
        return self.nic.goodput_bps


class Link:
    """A full-duplex link between an endpoint and a switch port."""

    def __init__(self, endpoint: Endpoint, port_bandwidth_bps: float):
        if port_bandwidth_bps <= 0:
            raise ValueError("port bandwidth must be positive")
        self.endpoint = endpoint
        self.port_bandwidth_bps = port_bandwidth_bps
        #: Chaos state: the link is dropped until this simulated time
        #: (frames buffer at the endpoints and flow once it recovers)...
        self.down_until = 0.0
        #: ...and/or degraded with extra one-way latency per message.
        self.extra_latency_s = 0.0

    def drop_until(self, until_s: float) -> None:
        """Take the link down until ``until_s`` (idempotent, extends)."""
        self.down_until = max(self.down_until, until_s)

    def degrade(self, extra_latency_s: float) -> None:
        """Add per-message latency (a flapping PHY, a saturated port)."""
        if extra_latency_s < 0:
            raise ValueError("extra latency cannot be negative")
        self.extra_latency_s = extra_latency_s

    def restore(self) -> None:
        """Clear any degradation (outages expire on their own)."""
        self.extra_latency_s = 0.0

    def fault_delay_s(self, now: float) -> float:
        """Extra one-way delay a message entering at ``now`` suffers."""
        outage = max(0.0, self.down_until - now)
        return outage + self.extra_latency_s

    @property
    def effective_bandwidth_bps(self) -> float:
        """The link runs at the slower of NIC goodput and port rate."""
        return min(self.endpoint.goodput_bps, self.port_bandwidth_bps)

    def serialization_s(self, nbytes: int) -> float:
        """Time to push ``nbytes`` onto the wire at the effective rate."""
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        return nbytes * 8.0 / self.effective_bandwidth_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.endpoint.name} "
            f"{self.effective_bandwidth_bps / 1e6:.0f} Mbps>"
        )


__all__ = ["Endpoint", "Link", "STACK_LATENCY_S"]
