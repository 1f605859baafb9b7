"""Discrete-event simulation kernel.

A small, deterministic, SimPy-flavoured discrete-event engine built from
scratch for this reproduction.  Simulated entities are generator-based
processes that ``yield`` events (timeouts, other processes, resource
requests); the :class:`~repro.sim.kernel.Environment` advances simulated
time by popping events from a priority queue.

The kernel is intentionally minimal but complete enough to model clusters
of workers, network transfers, CPU contention, and power-state machines:

- :class:`Environment` — event loop and simulated clock.
- :class:`Event`, :class:`Timeout`, :class:`Process` — the event types.
- :class:`AnyOf` — event composition.
- :class:`Interrupt` — asynchronous process interruption.
- :class:`Resource`, :class:`Store` — queued resources.
- :class:`RandomStreams` — named, reproducible random-number streams.
"""

from repro.sim.kernel import (
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
