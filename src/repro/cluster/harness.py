"""Cluster harness: one shared stack composed over pluggable pools.

Every cluster in this repo is the same machine wired to different
hardware: a simulation environment, deterministic RNG streams, an
optional tracer, a network topology, and the orchestrator with its
telemetry.  :class:`ClusterHarness` builds that shared stack exactly
once and delegates everything platform-specific to a list of
:class:`~repro.cluster.pool.WorkerPool` instances:

* ``build_fabric`` — each pool adds its switches (SBC ToR chain, VM
  host bridge) to the shared topology, then the harness attaches the
  orchestration-server and backend endpoints to the first pool's core
  switch;
* ``build_workers`` — each pool registers platform-tagged queues with
  the shared orchestrator (queue ids are global, so worker ids never
  collide across pools) and starts its worker processes.

The classic clusters are single-pool facades over this class, and a
heterogeneous SBC + microVM cluster is just a two-pool composition —
same orchestrator, same telemetry, per-pool energy metering.

Construction order (env → streams → tracer → service fleets → topology
→ pool fabrics → shared endpoints → transfers → GPIO → orchestrator →
pool workers) is bit-identical to the pre-harness clusters:
stream spawns are name-keyed, endpoint/switch names are unchanged, and
worker processes start in the same order.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.cluster.blueprint import blueprint_for_pools
from repro.cluster.pool import WorkerPool
from repro.cluster.result import ClusterResult
from repro.core.gpio import GpioBank
from repro.core.orchestrator import Orchestrator
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import AssignmentPolicy, RandomSamplingPolicy
from repro.core.telemetry import TelemetryCollector
from repro.hardware.sbc import SingleBoardComputer
from repro.hardware.specs import GIGABIT_ETHERNET
from repro.net.link import Endpoint
from repro.net.switch import Switch
from repro.net.topology import NetworkTopology
from repro.net.transfer import TransferModel
from repro.obs.trace import TraceConfig, TraceRecorder
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.workloads.base import ALL_FUNCTION_NAMES


class ClusterHarness:
    """Shared cluster stack composed over a list of worker pools."""

    def __init__(
        self,
        pools: Sequence[WorkerPool],
        platform: str,
        seed: int = 0,
        policy: Optional[AssignmentPolicy] = None,
        recovery: Optional[RecoveryPolicy] = None,
        telemetry_exact: bool = True,
        trace: Optional[TraceConfig] = None,
        include_switch_power: bool = False,
        control_plane=None,
        backend=None,
        local_ids: Optional[Sequence[int]] = None,
        env: Optional[Environment] = None,
        blueprint=None,
    ):
        if not pools:
            raise ValueError("need at least one worker pool")
        self.pools: List[WorkerPool] = list(pools)
        #: Construction skeleton (see :mod:`repro.cluster.blueprint`):
        #: switch names, trunks and worker→switch spans.  Computed from
        #: the pools unless the caller passes a precomputed one (shards
        #: receive the coordinator's); binding validates it against each
        #: pool's shape and hands every pool its plan.
        self.blueprint = blueprint or blueprint_for_pools(self.pools)
        self.blueprint.bind(self.pools)
        #: Sharded execution (see :mod:`repro.shard`): when set, only
        #: these global worker ids get real hardware, endpoints and
        #: worker processes — every other id still gets a stub queue
        #: and its blueprint span, so ids, stream names, and the switch
        #: fabric are identical to the serial build, but costs no
        #: simulation state.
        self.local_worker_ids = (
            frozenset(local_ids) if local_ids is not None else None
        )
        #: Cluster-level label stamped on results and traces
        #: (see :mod:`repro.core.platform`: microfaas/conventional/hybrid).
        self.platform = platform
        self.seed = seed
        # Federated compositions (see :mod:`repro.federation`) pass a
        # shared environment so many region clusters advance on one
        # event loop; a fresh environment at construction time keeps a
        # region's event sequence identical to a standalone build.
        self.env = env if env is not None else Environment()
        self.streams = RandomStreams(seed)
        # Tracing (opt-in): the recorder samples from its own spawned
        # stream family, so enabling it draws nothing from any stream
        # the simulation consumes — traced runs stay bit-identical.
        self.tracer = (
            TraceRecorder(
                config=trace,
                streams=self.streams.spawn("obs"),
                label=platform,
            )
            if trace is not None
            else None
        )
        self.include_switch_power = include_switch_power
        if control_plane is not None:
            from repro.core.controlplane import ControlPlane

            self.control_plane = ControlPlane(self.env, control_plane)
        else:
            self.control_plane = None
        if backend is not None:
            from repro.services.backend import BackendFleet

            self.backend = BackendFleet(self.env, backend)
        else:
            self.backend = None

        # Network fabric: every pool contributes its switches, then the
        # shared endpoints land on the first pool's core switch.
        self.topology = NetworkTopology()
        self.switches: List[Switch] = []
        for pool in self.pools:
            pool.build_fabric(self)
        core = self.switches[0]
        self.topology.attach_endpoint(
            Endpoint("op", GIGABIT_ETHERNET, "x86-bare"), core.name
        )
        self.topology.attach_endpoint(
            Endpoint("backend", self.pools[0].backend_nic, "x86-bare"),
            core.name,
        )
        # The clock only matters once chaos arms the transfer model, so
        # wiring it unconditionally is behavior-neutral for clean runs
        # and makes every pool (not just SBCs) fault-injectable.
        self.transfers = TransferModel(self.topology, clock=lambda: self.env.now)

        # Control plane.  The GPIO bank is shared; pools that do not do
        # per-worker power control simply never wire a line, and the
        # orchestrator treats unwired workers as self-powered.
        self.gpio = GpioBank()
        self.orchestrator = Orchestrator(
            self.env,
            policy=policy
            if policy is not None
            else RandomSamplingPolicy(random.Random(seed)),
            gpio=self.gpio,
            recovery=recovery,
            telemetry=TelemetryCollector(exact=telemetry_exact),
            tracer=self.tracer,
        )

        #: All workers across pools, indexed by global worker id.
        self.workers: List[object] = []
        self._pool_by_worker: Dict[int, WorkerPool] = {}
        self._endpoint_by_worker: Dict[int, str] = {}
        self._sbc_by_worker: Dict[int, SingleBoardComputer] = {}
        for pool in self.pools:
            pool.build_workers(self)

    def owns_worker(self, worker_id: int) -> bool:
        """Whether this harness simulates ``worker_id`` (always True
        outside sharded execution)."""
        return (
            self.local_worker_ids is None
            or worker_id in self.local_worker_ids
        )

    # -- pool registration ---------------------------------------------------------------

    def register_worker(
        self, pool: WorkerPool, worker_id: int, worker, endpoint: str
    ) -> None:
        """Record a pool's worker (None: remote) under its global id
        (pools call this from ``build_workers`` once per worker, in
        queue order)."""
        if worker_id != len(self.workers):
            raise ValueError(
                f"worker ids must be registered in order: got {worker_id}, "
                f"expected {len(self.workers)}"
            )
        self.workers.append(worker)
        self._pool_by_worker[worker_id] = pool
        self._endpoint_by_worker[worker_id] = endpoint
        sbc = getattr(worker, "sbc", None)
        if sbc is not None:
            self._sbc_by_worker[worker_id] = sbc

    def register_remote_workers(
        self,
        pool: WorkerPool,
        first_id: int,
        count: int,
        endpoint_prefix: str,
    ) -> None:
        """Record a contiguous run of remote (unsimulated) workers.

        Equivalent to ``count`` :meth:`register_worker` calls with
        ``worker=None`` and endpoints ``f"{endpoint_prefix}{id}"`` —
        the bulk path shards use for whole remote spans.
        """
        if first_id != len(self.workers):
            raise ValueError(
                f"worker ids must be registered in order: got {first_id}, "
                f"expected {len(self.workers)}"
            )
        self.workers.extend([None] * count)
        pool_by_worker = self._pool_by_worker
        endpoint_by_worker = self._endpoint_by_worker
        for worker_id in range(first_id, first_id + count):
            pool_by_worker[worker_id] = pool
            endpoint_by_worker[worker_id] = f"{endpoint_prefix}{worker_id}"

    # -- worker lookup -------------------------------------------------------------------

    def pool_for(self, worker_id: int) -> WorkerPool:
        """The pool that owns a global worker id."""
        try:
            return self._pool_by_worker[worker_id]
        except KeyError:
            raise KeyError(f"no worker {worker_id}") from None

    def worker_platform(self, worker_id: int) -> str:
        """Platform tag of one worker (chaos and policies key on this)."""
        return self.pool_for(worker_id).platform

    def worker_endpoint(self, worker_id: int) -> str:
        """Topology endpoint name of one worker (e.g. link faults)."""
        try:
            return self._endpoint_by_worker[worker_id]
        except KeyError:
            raise KeyError(f"no worker {worker_id}") from None

    def sbc_for(self, worker_id: int) -> SingleBoardComputer:
        """The board behind a worker id (KeyError for non-SBC workers)."""
        try:
            return self._sbc_by_worker[worker_id]
        except KeyError:
            raise KeyError(f"worker {worker_id} is not an SBC") from None

    def respawn_worker(self, worker_id: int):
        """Start a replacement worker process on a (repaired) node.

        The dead worker's process has exited; the hardware and queue are
        reused, so power wiring and topology stay valid.
        """
        if not 0 <= worker_id < len(self.workers):
            raise KeyError(f"no worker {worker_id}")
        if self.workers[worker_id].process.is_alive:
            raise RuntimeError(f"worker {worker_id} is still alive")
        return self._pool_by_worker[worker_id].respawn_worker(self, worker_id)

    # -- measurement ---------------------------------------------------------------------

    def metered_watts(self) -> float:
        """Instantaneous draw of the metered equipment: every pool's
        hardware, plus the switches if configured (the paper meters the
        compute, not the fabric).

        The wattage counterpart of :meth:`energy_joules`, which covers
        the same equipment: a reading at one instant, where that is an
        exact integral over a window.
        """
        watts = sum(pool.metered_watts() for pool in self.pools)
        if self.include_switch_power:
            watts += sum(switch.watts for switch in self.switches)
        return watts

    def set_power_cap(self, cap) -> None:
        """Clamp the whole cluster under a power-cap governor.

        ``cap`` is a :class:`~repro.hardware.power.PowerCap`, a bare
        per-worker wattage, or None to lift the cap.  Each pool resolves
        it against its platform's DVFS ladder; capped workers draw less
        in their active states and stretch execute-phase CPU time.
        """
        if cap is not None and not hasattr(cap, "resolve"):
            from repro.hardware.power import PowerCap

            cap = PowerCap(float(cap))
        for pool in self.pools:
            pool.set_power_cap(cap)

    def enable_energy_ledger(self):
        """Attach an online :class:`~repro.energy.controlplane.
        EnergyLedger` covering every per-board-metered worker and wire
        it into the orchestrator's billing hooks.  Returns the ledger.

        Opt-in: a run without a ledger is bit-identical to one before
        the control plane existed (the hooks cost one comparison).
        """
        from repro.energy.controlplane import EnergyLedger

        ledger = EnergyLedger(clock=lambda: self.env.now)
        ledger.register_cluster(self)
        self.orchestrator.ledger = ledger
        return ledger

    def enable_tenant_budgets(self, policy, downclock=None):
        """Gate submissions under a :class:`~repro.core.policies.
        BudgetPolicy`, metering tenants from the energy ledger (enabled
        on demand).  Returns the
        :class:`~repro.core.policies.TenantBudgetController`.
        """
        from repro.core.policies import TenantBudgetController

        ledger = self.orchestrator.ledger
        if ledger is None:
            ledger = self.enable_energy_ledger()
        controller = TenantBudgetController(
            policy, ledger, clock=lambda: self.env.now,
            downclock=downclock,
        )
        self.orchestrator.budgets = controller
        return controller

    def energy_joules(self, start: float, end: float) -> float:
        """Exact trace-integrated energy over a window."""
        total = sum(pool.energy_joules(start, end) for pool in self.pools)
        if self.include_switch_power:
            total += sum(
                switch.trace.energy_joules(start, end)
                for switch in self.switches
            )
        return total

    def pool_energy_joules(self, start: float, end: float):
        """Per-pool energy attribution: ``((platform, joules), ...)``.

        Covers each pool's own metered hardware (boards / host wall
        meter); fabric switches are cluster-shared and excluded.
        """
        return tuple(
            (pool.platform, pool.energy_joules(start, end))
            for pool in self.pools
        )

    def powered_worker_count(self) -> int:
        return sum(pool.powered_worker_count() for pool in self.pools)

    def bound_power_traces(self, max_points: int = 65536) -> int:
        """Enable autocompaction on every metered power trace.

        Caps each board/server/switch trace at ``max_points`` retained
        change points; older points fold into an exact running energy
        prefix (see :meth:`repro.hardware.power.PowerTrace.enable_autocompact`).
        Full-range energy accounting — which is all
        :meth:`result_snapshot` ever asks for — stays bit-identical, but
        sub-range energy queries on a compacted trace raise, so this is
        opt-in for bounded-memory runs (the 10⁸-invocation megatrace).
        Returns the number of traces now bounded.
        """
        traces = []
        for pool in self.pools:
            for sbc in getattr(pool, "sbcs", ()):
                traces.append(sbc.trace)
            server = getattr(pool, "server", None)
            if server is not None:
                traces.append(server.trace)
        for switch in self.switches:
            traces.append(switch.trace)
        for trace in traces:
            trace.enable_autocompact(max_points)
        return len(traces)

    def finished_traces(self):
        """Sealed traces (draining in-flight stragglers first)."""
        if self.tracer is None:
            return []
        self.tracer.drain()
        return self.tracer.traces()

    def result_snapshot(self, duration_s: float) -> ClusterResult:
        """Freeze the run into a :class:`ClusterResult` (shared by every
        driver: saturated, paper arrivals, and trace replay)."""
        return ClusterResult(
            platform=self.platform,
            worker_count=len(self.workers),
            jobs_completed=self.orchestrator.telemetry.count,
            duration_s=duration_s,
            energy_joules=self.energy_joules(0.0, duration_s),
            telemetry=self.orchestrator.telemetry,
            pool_energy=self.pool_energy_joules(0.0, duration_s),
        )

    # -- experiment entry points ---------------------------------------------------------

    def run_saturated(
        self,
        functions: Sequence[str] = tuple(ALL_FUNCTION_NAMES),
        invocations_per_function: int = 10,
    ) -> ClusterResult:
        """Issue all invocations at t=0 and run until the last completes.

        This measures the cluster at capacity — the operating point the
        paper's throughput and J/function numbers describe.
        """
        if invocations_per_function < 1:
            raise ValueError("invocations_per_function must be >= 1")
        batch = [
            function
            for _ in range(invocations_per_function)
            for function in functions
        ]
        self.orchestrator.submit_batch(batch)
        done = self.orchestrator.wait_all()
        self.env.run(until=done)
        return self.result_snapshot(self.env.now)

    def run_paper_arrivals(
        self,
        functions: Sequence[str] = tuple(ALL_FUNCTION_NAMES),
        jobs_per_second: int = 2,
        total_jobs: int = 170,
    ) -> ClusterResult:
        """Sec. IV-D arrivals: jobs land on random queues every second."""
        arrivals = self.env.process(
            self.orchestrator.paper_arrival_process(
                list(functions), jobs_per_second, total_jobs
            ),
            name="arrivals",
        )

        def runner():
            yield arrivals  # all jobs submitted
            yield self.orchestrator.wait_all()  # all jobs completed

        self.env.run(until=self.env.process(runner(), name="drain"))
        return self.result_snapshot(self.env.now)


__all__ = ["ClusterHarness"]
