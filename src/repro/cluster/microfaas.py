"""The MicroFaaS test cluster (Sec. IV-B).

A single-pool facade over :class:`~repro.cluster.harness.ClusterHarness`:
one :class:`~repro.cluster.pool.SbcPool` of N BeagleBone workers (with
GPIO power wiring and per-board meters) plus the shared stack — the
backend-services SBC on a managed switch, the orchestration server, the
transfer model, and a wall-plug meter over the worker boards.  The
``run_saturated`` entry point reproduces the Sec. V measurement: issue a
fixed number of invocations per function and measure throughput and
energy until the last one completes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.harness import ClusterHarness
from repro.cluster.pool import SbcPool
from repro.core.lifecycle import RunToCompletionPolicy
from repro.core.platform import MICROFAAS
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import AssignmentPolicy
from repro.hardware.sbc import SingleBoardComputer
from repro.hardware.specs import BEAGLEBONE_BLACK, SbcSpec
from repro.net.switch import Switch
from repro.obs.trace import TraceConfig


class MicroFaaSCluster(ClusterHarness):
    """N SBC workers, one switch, one OP — the paper's prototype."""

    def __init__(
        self,
        worker_count: int = 10,
        sbc_spec: SbcSpec = BEAGLEBONE_BLACK,
        policy: Optional[AssignmentPolicy] = None,
        worker_policy: RunToCompletionPolicy = RunToCompletionPolicy.paper_default(),
        seed: int = 0,
        jitter_sigma: float = 0.06,
        include_switch_power: bool = False,
        profiles=None,
        control_plane=None,
        backend=None,
        recovery: Optional[RecoveryPolicy] = None,
        telemetry_exact: bool = True,
        trace: Optional[TraceConfig] = None,
        local_ids=None,
        env=None,
        blueprint=None,
    ):
        self.pool = SbcPool(
            worker_count=worker_count,
            sbc_spec=sbc_spec,
            worker_policy=worker_policy,
            jitter_sigma=jitter_sigma,
            profiles=profiles,
        )
        super().__init__(
            [self.pool],
            platform=MICROFAAS,
            seed=seed,
            policy=policy,
            recovery=recovery,
            telemetry_exact=telemetry_exact,
            trace=trace,
            include_switch_power=include_switch_power,
            control_plane=control_plane,
            backend=backend,
            local_ids=local_ids,
            env=env,
            blueprint=blueprint,
        )

    # -- pool attribute surface (pre-harness API) ----------------------------------------

    @property
    def sbcs(self) -> List[SingleBoardComputer]:
        """The worker boards, indexed by worker id."""
        return self.pool.sbcs

    @property
    def worker_policy(self) -> RunToCompletionPolicy:
        return self.pool.worker_policy

    @property
    def jitter_sigma(self) -> float:
        return self.pool.jitter_sigma

    @property
    def profiles(self):
        return self.pool.profiles

    @property
    def switch(self) -> Switch:
        """The first (testbed) switch — kept for single-switch callers."""
        return self.switches[0]


__all__ = ["MicroFaaSCluster"]
