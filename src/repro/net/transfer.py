"""Transfer-time and round-trip calculators.

The cluster simulation and the workload profiles need two quantities:

- ``rtt(src, dst)`` — request/response round-trip time for a small
  message (dominates the network-bound workloads' per-operation cost);
- ``transfer(src, dst, nbytes)`` — time to move a payload end to end
  (dominates function input/result *overhead* and the object-store
  workloads).

Both derive from the topology: per-endpoint protocol-stack latency,
per-switch forwarding latency, and the bottleneck bandwidth along the
path.  A per-invocation *session overhead* models what a freshly booted
MicroPython worker pays to open its TCP connection to the orchestrator
and parse/serialize the JSON payloads — measurably larger on the slow
ARM core than on x86.

Under chaos a transfer's fault penalty depends on the instant it starts.
The chaos engine announces every network state change ahead of time
(:meth:`TransferModel.announce`), so a worker can price a transfer at a
later start (``transfer(..., at=t)``) and book its whole timeline at the
claim when no announced change touches the path in between
(:meth:`TransferModel.changes_within`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.net.topology import NetworkTopology

#: Per-invocation session overhead (TCP handshake + JSON codec), seconds.
SESSION_OVERHEAD_S = {
    "arm-bare": 28e-3,
    "x86-virtio": 16e-3,
    "x86-bare": 8e-3,
}


@dataclass(slots=True)
class TransferEstimate:
    """Breakdown of one end-to-end transfer (plain attributes: every
    invocation builds two, and a frozen dataclass's ``__init__`` pays an
    ``object.__setattr__`` per field)."""

    serialization_s: float
    latency_s: float
    session_s: float
    #: Extra time waiting out network faults (down links/switches,
    #: degraded latency); zero unless chaos injection is active.
    fault_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.serialization_s + self.latency_s + self.session_s + self.fault_s

    def as_attrs(self) -> dict:
        """Flat dict form, for tracing span attributes."""
        return {
            "serialization_s": self.serialization_s,
            "latency_s": self.latency_s,
            "session_s": self.session_s,
            "fault_s": self.fault_s,
        }


class TransferModel:
    """Timing calculator bound to a :class:`NetworkTopology`.

    With a ``clock`` (and after :meth:`enable_chaos`), transfers also pay
    for injected network faults: a message crossing a dropped link or a
    dead switch waits out the remaining outage (frames buffer and flow
    on recovery — the discrete-event simplification of TCP retransmit),
    and degraded links add their extra latency.  Fault accounting is
    gated on both so un-faulted simulations compute byte-identical
    estimates to the pre-chaos code.

    Between two announced changes the links' and switches' state holds
    still, so a penalty read at the claim for a later start ``at`` is
    the one the clock would read then.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.topology = topology
        self.clock = clock
        self._chaos = False
        #: Announced state-change instants, sorted, per link (keyed by
        #: its endpoint name) or switch name.
        self._changes: Dict[str, List[float]] = {}

    def enable_chaos(self) -> None:
        """Turn on fault accounting (requires a clock)."""
        if self.clock is None:
            raise RuntimeError("chaos accounting needs a clock")
        self._chaos = True

    @property
    def chaos_enabled(self) -> bool:
        """True once fault accounting is on: estimates then depend on
        the instant a transfer starts."""
        return self._chaos

    def announce(self, name: str, at: float) -> None:
        """The link of endpoint ``name``, or switch ``name``, changes
        state at ``at``."""
        insort(self._changes.setdefault(name, []), at)

    def is_announced(self, name: str, at: float) -> bool:
        """Whether :meth:`announce` named ``name`` changing at ``at``."""
        instants = self._changes.get(name, ())
        index = bisect_left(instants, at)
        return index < len(instants) and instants[index] == at

    def changes_within(self, src: str, dst: str, start: float,
                       end: float) -> bool:
        """Whether an announced change touches either endpoint's link or
        a switch on the path from ``src`` to ``dst`` within
        ``[start, end]``."""
        changes = self._changes
        if not changes:
            return False
        for name in self.topology.path_elements(src, dst)[4]:
            instants = changes.get(name)
            if instants:
                index = bisect_left(instants, start)
                if index < len(instants) and instants[index] <= end:
                    return True
        return False

    def _fault_s(self, links, switches, at: Optional[float]) -> float:
        """One-way fault penalty for a message crossing ``links`` and
        ``switches`` that enters the fabric at ``at`` (None: now)."""
        now = self.clock() if at is None else at
        outage = 0.0
        extra = 0.0
        for link in links:
            outage = max(outage, max(0.0, link.down_until - now))
            extra += link.extra_latency_s
        for switch in switches:
            outage = max(outage, switch.outage_remaining_s(now))
        return outage + extra

    def one_way_latency_s(self, src: str, dst: str) -> float:
        """Small-message one-way latency: stacks plus switch hops."""
        _bw, switch_latency, _hops = self.topology.path_properties(src, dst)
        return self._one_way_s(src, dst, switch_latency)

    def _one_way_s(self, src: str, dst: str, switch_latency: float) -> float:
        endpoints = self.topology.endpoints
        src_stack = endpoints[src].stack_latency_s
        dst_stack = endpoints[dst].stack_latency_s
        return src_stack + dst_stack + switch_latency

    def rtt_s(self, src: str, dst: str) -> float:
        """Request/response round trip for a small message."""
        return 2.0 * self.one_way_latency_s(src, dst)

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: int,
        include_session: bool = False,
        at: Optional[float] = None,
    ) -> TransferEstimate:
        """Estimate moving ``nbytes`` from ``src`` to ``dst``.

        ``include_session`` adds the source's per-invocation session
        overhead (connection setup and payload codec) — used once per
        function invocation, not per service operation.  ``at`` prices
        a transfer starting then instead of now (see the class
        docstring).
        """
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        topology = self.topology
        if self._chaos:
            bottleneck, switch_latency, links, switches, _path = (
                topology.path_elements(src, dst)
            )
            fault = self._fault_s(links, switches, at)
        else:
            bottleneck, switch_latency, _hops = topology.path_properties(
                src, dst
            )
            fault = 0.0
        endpoints = topology.endpoints
        session = (
            SESSION_OVERHEAD_S[endpoints[src].host_class]
            if include_session
            else 0.0
        )
        # ``_one_way_s``, inline.
        return TransferEstimate(
            nbytes * 8.0 / bottleneck,
            endpoints[src].stack_latency_s + endpoints[dst].stack_latency_s
            + switch_latency,
            session,
            fault,
        )

    def invocation_overhead_s(
        self,
        orchestrator: str,
        worker: str,
        input_bytes: int,
        output_bytes: int,
    ) -> float:
        """Fig. 3 'Overhead': receive input + return result + session.

        This is the time a worker spends on invocation plumbing rather
        than executing the function body.
        """
        inbound = self.transfer(orchestrator, worker, input_bytes)
        outbound = self.transfer(worker, orchestrator, output_bytes)
        session = SESSION_OVERHEAD_S[
            self.topology.endpoint(worker).host_class
        ]
        return inbound.total_s + outbound.total_s + session


__all__ = ["SESSION_OVERHEAD_S", "TransferEstimate", "TransferModel"]
