"""Store-and-forward Ethernet switch model.

The testbed uses a 24-port managed Gigabit switch; the TCO analysis uses
48-port Catalyst units.  A switch contributes a fixed forwarding latency
per hop, bounds how many devices can attach, and draws constant power
(recorded on a trace so cluster-level meters can include it).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.hardware.power import PowerTrace
from repro.hardware.specs import SwitchSpec, TESTBED_SWITCH
from repro.net.link import Endpoint, Link


class PortExhaustedError(RuntimeError):
    """Raised when attaching to a switch with no free ports."""


class Switch:
    """A top-of-rack switch with a fixed number of ports."""

    def __init__(
        self,
        clock: Callable[[], float],
        spec: SwitchSpec = TESTBED_SWITCH,
        name: str = "switch",
    ):
        self.spec = spec
        self.name = name
        self._clock = clock
        self.links: Dict[str, Link] = {}
        self.trunks: set = set()
        self.trace = PowerTrace(initial_time=clock(), initial_watts=spec.watts)
        #: Chaos state: the whole switch forwards nothing until this
        #: simulated time (power blip, firmware crash).
        self.down_until = 0.0

    def fail_until(self, until_s: float) -> None:
        """Take the switch down until ``until_s`` (idempotent, extends)."""
        self.down_until = max(self.down_until, until_s)

    def outage_remaining_s(self, now: float) -> float:
        """How much longer a frame arriving at ``now`` must wait."""
        return max(0.0, self.down_until - now)

    @property
    def ports_total(self) -> int:
        return self.spec.ports

    @property
    def ports_used(self) -> int:
        return len(self.links) + len(self.trunks)

    @property
    def ports_free(self) -> int:
        return self.spec.ports - self.ports_used

    @property
    def forwarding_latency_s(self) -> float:
        return self.spec.forwarding_latency_s

    @property
    def watts(self) -> float:
        """Switches in this model draw constant power."""
        return self.spec.watts

    def attach(self, endpoint: Endpoint) -> Link:
        """Attach ``endpoint`` to a free port, returning its link."""
        if endpoint.name in self.links:
            raise ValueError(f"endpoint {endpoint.name!r} already attached")
        if self.ports_free <= 0:
            raise PortExhaustedError(
                f"{self.name}: all {self.spec.ports} ports in use"
            )
        link = Link(endpoint, port_bandwidth_bps=self.spec.port_bandwidth_bps)
        self.links[endpoint.name] = link
        return link

    def reserve_trunk(self, peer_name: str) -> None:
        """Consume one port for an inter-switch trunk link."""
        if peer_name in self.trunks:
            raise ValueError(f"trunk to {peer_name!r} already reserved")
        if self.ports_free <= 0:
            raise PortExhaustedError(
                f"{self.name}: no port free for trunk to {peer_name!r}"
            )
        self.trunks.add(peer_name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Switch {self.name} {self.ports_used}/{self.ports_total} ports>"
        )


def switches_needed(node_count: int, spec: SwitchSpec = TESTBED_SWITCH) -> int:
    """ToR switches needed to attach ``node_count`` devices.

    This is the appendix's ``N_rack = ceil(N_server-IT / ports)`` term —
    e.g. 989 SBCs on 48-port Catalysts need 21 switches.
    """
    if node_count < 0:
        raise ValueError(f"negative node count: {node_count}")
    if node_count == 0:
        return 0
    return -(-node_count // spec.ports)  # ceiling division


__all__ = ["PortExhaustedError", "Switch", "switches_needed"]
