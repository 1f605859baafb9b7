"""Hardware selection study: which SBC should a MicroFaaS fleet use?

Sec. III names two candidate worker boards — the BeagleBone Black the
prototype uses and the Raspberry Pi Compute Module.  This extension
runs the full workload on clusters of each and folds the results into
the TCO model, producing the numbers an operator would compare:
throughput per board, J/function, acquisition cost per unit of
throughput, and 5-year cost per million invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cluster import MicroFaaSCluster
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments.report import format_table
from repro.hardware.specs import BEAGLEBONE_BLACK, RASPBERRY_PI_CM, SbcSpec
from repro.net.switch import switches_needed
from repro.tco.assumptions import (
    CostAssumptions,
    DeploymentSpec,
    REALISTIC,
)
from repro.tco.model import TcoModel


@dataclass(frozen=True)
class CandidateResult:
    """One board's measured and costed profile."""

    spec_name: str
    unit_cost_usd: float
    throughput_per_board_per_min: float
    joules_per_function: float
    #: 5-year realistic-scenario cost of a rack-equivalent fleet sized
    #: to the conventional rack's throughput, per million invocations.
    usd_per_million_invocations: float
    fleet_size: int


@dataclass(frozen=True)
class HardwareSelectionResult:
    candidates: List[CandidateResult]

    def best_by_cost(self) -> CandidateResult:
        return min(
            self.candidates, key=lambda c: c.usd_per_million_invocations
        )

    def best_by_energy(self) -> CandidateResult:
        return min(self.candidates, key=lambda c: c.joules_per_function)


#: Throughput target: what Table II's MicroFaaS rack delivers — 989
#: BeagleBones at their nominal 20.06 func/min (the paper's sizing of a
#: fleet "with equivalent throughput" to 41 saturated rack servers).
RACK_TARGET_PER_MIN = 989 * (200.6 / 10)


def _evaluate(
    spec: SbcSpec,
    invocations_per_function: int,
    seed: int,
    assumptions: CostAssumptions,
) -> CandidateResult:
    cluster = MicroFaaSCluster(
        worker_count=10, seed=seed, policy=LeastLoadedPolicy(), sbc_spec=spec
    )
    result = cluster.run_saturated(
        invocations_per_function=invocations_per_function
    )
    per_board = result.throughput_per_min / 10
    fleet = max(1, round(RACK_TARGET_PER_MIN / per_board))
    deployment = DeploymentSpec(
        name=spec.name,
        node_count=fleet,
        node_cost_usd=spec.unit_cost_usd,
        node_loaded_watts=result.average_watts / 10,
        node_idle_watts=spec.power.off,
        switch_count=switches_needed(fleet),
    )
    total_usd = TcoModel(assumptions).evaluate(deployment, REALISTIC).total_usd
    # Invocations the fleet completes over the 5-year horizon at the
    # realistic 50 % utilization.
    invocations = (
        RACK_TARGET_PER_MIN * 60 * assumptions.lifetime_hours * 0.5
    )
    return CandidateResult(
        spec_name=spec.name,
        unit_cost_usd=spec.unit_cost_usd,
        throughput_per_board_per_min=per_board,
        joules_per_function=result.joules_per_function,
        usd_per_million_invocations=total_usd / (invocations / 1e6),
        fleet_size=fleet,
    )


def run(
    specs: Sequence[SbcSpec] = (BEAGLEBONE_BLACK, RASPBERRY_PI_CM),
    invocations_per_function: int = 20,
    seed: int = 1,
    assumptions: CostAssumptions = CostAssumptions(),
) -> HardwareSelectionResult:
    """Evaluate each candidate board on the full 17-function mix."""
    if not specs:
        raise ValueError("need at least one candidate spec")
    return HardwareSelectionResult(
        candidates=[
            _evaluate(spec, invocations_per_function, seed, assumptions)
            for spec in specs
        ]
    )


def render(result: HardwareSelectionResult) -> str:
    rows = [
        (
            c.spec_name,
            f"${c.unit_cost_usd:.2f}",
            f"{c.throughput_per_board_per_min:.1f}",
            f"{c.joules_per_function:.2f}",
            c.fleet_size,
            f"${c.usd_per_million_invocations:.2f}",
        )
        for c in result.candidates
    ]
    table = format_table(
        ["board", "unit cost", "func/min/board", "J/func",
         "fleet for 1 rack", "$ per M invocations"],
        rows,
        title="Hardware selection - candidate worker boards "
              "(rack-equivalent fleet, realistic scenario)",
    )
    return table + (
        f"\ncheapest per invocation: {result.best_by_cost().spec_name}; "
        f"most energy-efficient: {result.best_by_energy().spec_name}"
    )
