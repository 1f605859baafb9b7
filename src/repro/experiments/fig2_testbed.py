"""Fig. 2: the prototype test cluster (composition view).

The paper's Fig. 2 is a photograph of the physical testbed.  Its
reproducible content is the *composition*: ten BeagleBone Black workers,
the orchestration SBC, the backend-services SBC, and the 24-port managed
switch, all on one Ethernet segment with GPIO power wiring.  This
experiment builds the simulated cluster and renders exactly that
inventory, verified against the live topology objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cluster import MicroFaaSCluster
from repro.experiments.report import format_table


@dataclass(frozen=True)
class TestbedInventory:
    """What is racked up and how it is wired."""

    worker_count: int
    worker_model: str
    switch_name: str
    switch_ports_used: int
    switch_ports_total: int
    gpio_lines: int
    endpoints: Dict[str, str]  # name -> NIC description


def run(worker_count: int = 10) -> TestbedInventory:
    """Build the testbed and take inventory."""
    cluster = MicroFaaSCluster(worker_count=worker_count)
    endpoints = {
        name: endpoint.nic.name
        for name, endpoint in cluster.topology.endpoints.items()
    }
    return TestbedInventory(
        worker_count=len(cluster.sbcs),
        worker_model=cluster.sbcs[0].spec.name,
        switch_name=cluster.switch.spec.name,
        switch_ports_used=cluster.switch.ports_used,
        switch_ports_total=cluster.switch.ports_total,
        gpio_lines=cluster.gpio.worker_count,
        endpoints=endpoints,
    )


def render(inventory: TestbedInventory) -> str:
    rows = [
        (name, nic)
        for name, nic in sorted(inventory.endpoints.items())
    ]
    table = format_table(
        ["endpoint", "NIC"],
        rows,
        title="Fig. 2 - MicroFaaS prototype test cluster (composition)",
    )
    return table + (
        f"\n{inventory.worker_count}x {inventory.worker_model} workers, "
        f"{inventory.gpio_lines} GPIO PWR_BUT lines, "
        f"{inventory.switch_ports_used}/{inventory.switch_ports_total} "
        f"ports used on the {inventory.switch_name}"
    )
