"""Network substrate: links, switches, topology, and transfer timing.

Models the testbed's Ethernet fabric (Sec. IV-B): worker nodes and the
orchestration server attached to a 24-port managed switch, with the
backend-service SBCs on the same segment.  Provides:

- :mod:`repro.net.link` — endpoint NICs and links with bandwidth,
  protocol-stack latency, and an optional simulated-contention resource.
- :mod:`repro.net.switch` — store-and-forward switch with port
  accounting and constant power draw.
- :mod:`repro.net.topology` — the cluster network graph and its router:
  per-source-switch route tables answer path and bottleneck/latency
  lookups without a per-request graph search.
- :mod:`repro.net.transfer` — round-trip and bulk-transfer time
  calculators used by the cluster simulation and workload profiles.
"""

from repro.net.link import Endpoint, Link
from repro.net.switch import Switch
from repro.net.topology import NetworkTopology
from repro.net.transfer import TransferModel

__all__ = [
    "Endpoint",
    "Link",
    "NetworkTopology",
    "Switch",
    "TransferModel",
]
