"""Worker pools: the pluggable backend units of a cluster.

A :class:`WorkerPool` owns everything platform-specific about one fleet
of workers — the compute hardware and its metering (per-board SBC
traces vs. one rack server at the wall), the network fabric the workers
attach to (a ToR switch chain vs. a host software bridge), the power
control (GPIO lines vs. an always-hot host), and the worker lifecycle
(spawn/respawn).  The :class:`~repro.cluster.harness.ClusterHarness`
builds the shared stack once and composes any list of pools; the
classic single-platform clusters are single-pool compositions, and a
heterogeneous (SBC + microVM) cluster is simply ``[SbcPool(...),
MicroVmPool(...)]``.

The two hooks run in a fixed order for every pool:

1. ``build_fabric(harness)`` — add this pool's switches to the shared
   topology (before the orchestrator endpoints attach to the first
   pool's core switch);
2. ``build_workers(harness)`` — register one orchestrator queue per
   worker (the queue's global id is the worker id everywhere: records,
   GPIO lines, endpoint names) and start the worker processes.

Worker ids are allocated globally across pools in build order, so a
hybrid cluster's telemetry, traces, and chaos targeting never collide
between platforms.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.cluster.blueprint import (
    PoolDescriptor,
    SbcFabricPlan,
    VmFabricPlan,
)
from repro.cluster.vmworker import VmWorker
from repro.cluster.worker import SbcWorker
from repro.core.lifecycle import RunToCompletionPolicy
from repro.core.platform import ARM, ARM_BARE, X86, X86_VIRTIO
from repro.hardware.rackserver import RackServer
from repro.hardware.sbc import SingleBoardComputer
from repro.hardware.specs import (
    BEAGLEBONE_BLACK,
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    NicSpec,
    RackServerSpec,
    SbcSpec,
    SwitchSpec,
    TESTBED_SWITCH,
    THINKMATE_RAX,
    dvfs_curve_for,
)
from repro.net.link import Endpoint
from repro.net.switch import Switch
from repro.virt.hypervisor import Hypervisor
from repro.virt.microvm import MicroVm
from repro.virt.overhead import VirtualizationOverhead


class WorkerPool(abc.ABC):
    """One platform's worker fleet plus its hardware and lifecycle."""

    #: Worker platform tag (see :mod:`repro.core.platform`) stamped on
    #: this pool's queues, records, and spans.
    platform: str = ""

    #: This pool's :class:`~repro.cluster.blueprint.SbcFabricPlan` or
    #: :class:`~repro.cluster.blueprint.VmFabricPlan`, set by
    #: ``ClusterBlueprint.bind`` before the harness builds.
    plan: object

    def __init__(self):
        #: Global orchestrator worker ids owned by this pool, in
        #: registration order.
        self.worker_ids: List[int] = []

    @abc.abstractmethod
    def plan_descriptor(self) -> PoolDescriptor:
        """This pool's shape, as blueprint arithmetic needs it."""

    @property
    @abc.abstractmethod
    def backend_nic(self) -> NicSpec:
        """NIC class of the backend-services box when this pool leads.

        The harness attaches the shared ``backend`` endpoint with the
        *first* pool's backend NIC — the testbed pairs Fast-Ethernet
        backend SBCs with the SBC fleet and a GigE box with the rack
        server.
        """

    @abc.abstractmethod
    def build_fabric(self, harness) -> None:
        """Add this pool's switches to the harness topology."""

    @abc.abstractmethod
    def build_workers(self, harness) -> None:
        """Register queues and start this pool's worker processes."""

    @abc.abstractmethod
    def watts(self) -> float:
        """Instantaneous draw of this pool's metered hardware."""

    @abc.abstractmethod
    def energy_joules(self, start: float, end: float) -> float:
        """Trace-integrated energy of this pool's metered hardware."""

    @abc.abstractmethod
    def powered_worker_count(self) -> int:
        """Workers currently able to take work without a power-on."""

    def metered_watts(self) -> float:
        """What a wall meter on this pool reads right now.

        The single shared summation point: the harness cluster meter and
        the federation's per-region meters both read through this, so a
        pool that meters extra equipment overrides one method and every
        meter wiring agrees.
        """
        return self.watts()

    def set_power_cap(self, cap) -> None:
        """Clamp this pool's hardware under a power-cap governor.

        ``cap`` is a :class:`~repro.hardware.power.PowerCap` (or None to
        lift the cap).  Pools resolve the cap against their platform's
        DVFS ladder and apply the chosen step to every device.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support power capping"
        )

    def respawn_worker(self, harness, worker_id: int):
        """Start a replacement worker process on a repaired node."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support worker respawn"
        )


class SbcPool(WorkerPool):
    """N single-board computers: per-board meters, GPIO power control,
    and a ToR switch chain grown on demand."""

    platform = ARM

    def __init__(
        self,
        worker_count: int = 10,
        sbc_spec: SbcSpec = BEAGLEBONE_BLACK,
        worker_policy: RunToCompletionPolicy = RunToCompletionPolicy.paper_default(),
        jitter_sigma: float = 0.06,
        profiles=None,
    ):
        if worker_count < 1:
            raise ValueError("need at least one worker")
        super().__init__()
        self.worker_count = worker_count
        self.sbc_spec = sbc_spec
        self.worker_policy = worker_policy
        self.jitter_sigma = jitter_sigma
        self.profiles = profiles
        self.sbcs: List[SingleBoardComputer] = []
        #: This pool's ToR chain (a subset of the harness switch list).
        self.switches: List[Switch] = []

    @property
    def backend_nic(self) -> NicSpec:
        return FAST_ETHERNET

    def plan_descriptor(self) -> PoolDescriptor:
        return PoolDescriptor(
            kind="sbc",
            worker_count=self.worker_count,
            switch_ports=TESTBED_SWITCH.ports,
        )

    def _add_switch(self, harness, name: str) -> None:
        """Add one ToR switch to the chain, trunked to the previous one."""
        switch = Switch(lambda: harness.env.now, TESTBED_SWITCH, name=name)
        harness.topology.add_switch(switch)
        if self.switches:
            harness.topology.connect_switches(
                self.switches[-1].name, switch.name, 1e9
            )
        self.switches.append(switch)
        harness.switches.append(switch)

    def build_fabric(self, harness) -> None:
        self._add_switch(harness, self.plan.chain[0])

    def build_workers(self, harness) -> None:
        """Spans drive attachment: each span's local endpoints attach in
        one topology operation, remote ids get stub queues and no
        endpoint at all.

        Chain switches are created one at a time, at span boundaries,
        under the names the plan gives, so the harness switch list,
        trunk order and graph insertion order follow worker order.
        """
        plan: SbcFabricPlan = self.plan
        orchestrator = harness.orchestrator
        if plan.first_worker_id != orchestrator.worker_count:
            raise ValueError(
                f"blueprint drift: pool expects first worker id "
                f"{plan.first_worker_id}, orchestrator is at "
                f"{orchestrator.worker_count}"
            )
        owns = harness.owns_worker
        nic = self.sbc_spec.nic
        for switch_name, first_id, count in plan.spans:
            if self.switches[-1].name != switch_name:
                self._add_switch(harness, switch_name)
            span_ids = range(first_id, first_id + count)
            local_ids = [node_id for node_id in span_ids if owns(node_id)]
            if not local_ids:
                # Contiguous shard partitions make most spans wholly
                # remote: bulk stub registration, no endpoints at all.
                orchestrator.add_worker_stubs(count, platform=ARM)
                self.worker_ids.extend(span_ids)
                harness.register_remote_workers(
                    self, first_id, count, endpoint_prefix="sbc-"
                )
                continue
            harness.topology.attach_endpoints(
                [
                    Endpoint(f"sbc-{node_id}", nic, ARM_BARE)
                    for node_id in local_ids
                ],
                switch_name,
            )
            for node_id in span_ids:
                endpoint_name = f"sbc-{node_id}"
                owned = owns(node_id)
                queue = orchestrator.add_worker(platform=ARM, stub=not owned)
                if not owned:
                    self.worker_ids.append(node_id)
                    harness.register_worker(
                        self, node_id, None, endpoint_name
                    )
                    continue
                self._spawn_worker(harness, node_id, endpoint_name, queue)

    def _spawn_worker(self, harness, node_id, endpoint_name, queue) -> None:
        """Create one board plus its worker process and register it."""
        sbc = SingleBoardComputer(
            lambda: harness.env.now, spec=self.sbc_spec, node_id=node_id
        )
        harness.gpio.connect(
            node_id, sbc.power_on, sbc.power_off, lambda s=sbc: s.is_powered
        )
        worker = SbcWorker(
            harness.env,
            sbc,
            queue,
            harness.orchestrator,
            harness.transfers,
            orchestrator_endpoint="op",
            endpoint=endpoint_name,
            policy=self.worker_policy,
            streams=harness.streams,
            jitter_sigma=self.jitter_sigma,
            profiles=self.profiles,
            control_plane=harness.control_plane,
            backend=harness.backend,
        )
        self.sbcs.append(sbc)
        self.worker_ids.append(node_id)
        harness.register_worker(self, node_id, worker, endpoint_name, sbc=sbc)

    def respawn_worker(self, harness, worker_id: int) -> SbcWorker:
        sbc = harness.sbc_for(worker_id)
        worker = SbcWorker(
            harness.env,
            sbc,
            harness.orchestrator.queues[worker_id],
            harness.orchestrator,
            harness.transfers,
            orchestrator_endpoint="op",
            endpoint=f"sbc-{worker_id}",
            policy=self.worker_policy,
            streams=harness.streams,
            jitter_sigma=self.jitter_sigma,
            profiles=self.profiles,
            control_plane=harness.control_plane,
            backend=harness.backend,
        )
        harness.workers[worker_id] = worker
        return worker

    def watts(self) -> float:
        return sum(sbc.watts for sbc in self.sbcs)

    def energy_joules(self, start: float, end: float) -> float:
        return sum(sbc.trace.energy_joules(start, end) for sbc in self.sbcs)

    def board_energy_joules(self, start: float, end: float):
        """Per-board energies as ``[(node_id, joules), ...]``.

        Shard merging needs the unsummed terms: float addition is not
        associative, so the coordinator re-sums all shards' boards in
        global ``node_id`` order to reproduce the serial pool subtotal
        bit-for-bit.
        """
        return [
            (sbc.node_id, sbc.trace.energy_joules(start, end))
            for sbc in self.sbcs
        ]

    def powered_worker_count(self) -> int:
        return sum(1 for sbc in self.sbcs if sbc.is_powered)

    def set_power_cap(self, cap) -> None:
        if cap is None:
            for sbc in self.sbcs:
                sbc.clear_dvfs()
            return
        curve = dvfs_curve_for(self.sbc_spec)
        step = cap.resolve(
            curve, self.sbc_spec.power.cpu_busy, len(self.sbcs)
        )
        for sbc in self.sbcs:
            sbc.apply_dvfs(step)


class MicroVmPool(WorkerPool):
    """M microVMs on one rack server: wall-metered host, a hypervisor
    scheduler, and a software bridge trunked onto the core switch."""

    platform = X86

    def __init__(
        self,
        vm_count: int = 6,
        server_spec: RackServerSpec = THINKMATE_RAX,
        worker_policy: Optional[RunToCompletionPolicy] = None,
        overhead: VirtualizationOverhead = VirtualizationOverhead(),
        quantum_s: float = 0.1,
        jitter_sigma: float = 0.06,
    ):
        if vm_count < 1:
            raise ValueError("need at least one VM")
        super().__init__()
        self.vm_count = vm_count
        self.server_spec = server_spec
        self.worker_policy = worker_policy
        self.overhead = overhead
        self.quantum_s = quantum_s
        self.jitter_sigma = jitter_sigma
        self.server: Optional[RackServer] = None
        self.hypervisor: Optional[Hypervisor] = None
        self.bridge: Optional[Switch] = None
        self.vms: List[MicroVm] = []

    @property
    def backend_nic(self) -> NicSpec:
        return GIGABIT_ETHERNET

    def plan_descriptor(self) -> PoolDescriptor:
        return PoolDescriptor(kind="vm", worker_count=self.vm_count)

    def build_fabric(self, harness) -> None:
        self.server = RackServer(lambda: harness.env.now, self.server_spec)
        self.hypervisor = Hypervisor(
            harness.env,
            self.server,
            overhead=self.overhead,
            quantum_s=self.quantum_s,
        )
        if self.vm_count > self.hypervisor.max_vms():
            raise ValueError(
                f"host RAM holds at most {self.hypervisor.max_vms()} VMs, "
                f"requested {self.vm_count}"
            )
        if not harness.switches:
            switch = Switch(
                lambda: harness.env.now,
                TESTBED_SWITCH,
                name=harness.blueprint.switch_names[0],
            )
            harness.topology.add_switch(switch)
            harness.switches.append(switch)
        # All VMs share the host's one physical NIC: a software bridge
        # inside the host trunks their virtio NICs onto the core switch.
        bridge_spec = SwitchSpec(
            name="host software bridge",
            ports=self.hypervisor.max_vms() + 2,
            watts=0.0,  # accounted in the host's own power curve
            unit_cost_usd=0.0,
            forwarding_latency_s=5e-6,
        )
        self.bridge = Switch(
            lambda: harness.env.now, bridge_spec, name="host-bridge"
        )
        harness.topology.add_switch(self.bridge)
        harness.topology.connect_switches(
            "host-bridge", harness.switches[0].name, 1e9
        )
        harness.switches.append(self.bridge)

    def build_workers(self, harness) -> None:
        """Bulk-attach the local guests' endpoints to the bridge and
        register stub queues for remote ids (no endpoint: a VM pool is
        atomic to one shard, so a remote VM's traffic can never be
        simulated here)."""
        plan: VmFabricPlan = self.plan
        orchestrator = harness.orchestrator
        if plan.first_worker_id != orchestrator.worker_count:
            raise ValueError(
                f"blueprint drift: pool expects first worker id "
                f"{plan.first_worker_id}, orchestrator is at "
                f"{orchestrator.worker_count}"
            )
        vm_ids = range(
            plan.first_worker_id, plan.first_worker_id + self.vm_count
        )
        owns = harness.owns_worker
        local_ids = [vm_id for vm_id in vm_ids if owns(vm_id)]
        if not local_ids:
            orchestrator.add_worker_stubs(self.vm_count, platform=X86)
            self.worker_ids.extend(vm_ids)
            harness.register_remote_workers(
                self, plan.first_worker_id, self.vm_count,
                endpoint_prefix="vm-",
            )
            return
        harness.topology.attach_endpoints(
            [
                Endpoint(f"vm-{vm_id}", GIGABIT_ETHERNET, X86_VIRTIO)
                for vm_id in local_ids
            ],
            self.bridge.name,
        )
        default_policy = RunToCompletionPolicy(
            reboot_between_jobs=True, power_off_when_idle=False
        )
        for vm_id in vm_ids:
            endpoint_name = f"vm-{vm_id}"
            owned = owns(vm_id)
            queue = orchestrator.add_worker(platform=X86, stub=not owned)
            if not owned:
                self.worker_ids.append(vm_id)
                harness.register_worker(self, vm_id, None, endpoint_name)
                continue
            self._spawn_worker(
                harness, vm_id, endpoint_name, queue, default_policy
            )

    def _spawn_worker(
        self, harness, vm_id, endpoint_name, queue, default_policy
    ) -> None:
        """Boot one guest plus its worker process and register it."""
        vm = MicroVm(harness.env, self.hypervisor, vm_id=vm_id)
        worker = VmWorker(
            harness.env,
            vm,
            queue,
            harness.orchestrator,
            harness.transfers,
            orchestrator_endpoint="op",
            endpoint=endpoint_name,
            policy=self.worker_policy or default_policy,
            streams=harness.streams,
            jitter_sigma=self.jitter_sigma,
        )
        self.vms.append(vm)
        self.worker_ids.append(vm_id)
        harness.register_worker(self, vm_id, worker, endpoint_name)

    def watts(self) -> float:
        return self.server.watts

    def energy_joules(self, start: float, end: float) -> float:
        return self.server.trace.energy_joules(start, end)

    def powered_worker_count(self) -> int:
        # The host stays hot; every booted guest can take work without
        # a power transition.
        return len(self.vms)

    def set_power_cap(self, cap) -> None:
        if cap is None:
            self.server.clear_dvfs()
            return
        # One wall-metered host: a cluster-scoped cap applies whole.
        step = cap.resolve(
            dvfs_curve_for(self.server_spec), self.server_spec.loaded_watts
        )
        self.server.apply_dvfs(step)


__all__ = ["MicroVmPool", "SbcPool", "WorkerPool"]
