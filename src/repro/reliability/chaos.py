"""The cluster-wide chaos engine.

The one fault engine of the simulator: every crash, scripted or
sampled, runs through it.  It injects everything that actually goes
wrong in a fleet of power-cycled SBCs (and that the orchestrator's
recovery policies must absorb):

- ``WORKER_CRASH``  — the board loses power mid-job and rejoins after
  the event's ``duration_s`` (the repair delay);
- ``BOOT_FAILURE``  — the board crashes and then fails to come back up;
  the OP power-cycles it a bounded number of times before declaring the
  board dead.  A ``magnitude`` above the engine's ``max_power_cycles``
  is a board that never returns: it is pulled from the rack and counted
  in ``boards_abandoned``;
- ``GPIO_STUCK``    — the PWR_BUT line stops actuating, stranding the
  board powered-off with work queued;
- ``LINK_DOWN`` / ``LINK_DEGRADE`` — a worker's network link drops for
  a window, or gains extra per-message latency;
- ``SWITCH_OUTAGE`` — a whole ToR switch stops forwarding;
- ``BACKEND_FAULT`` — one backend service box (Redis/PostgreSQL/MinIO/
  Kafka) stops answering for a window.

A :class:`ChaosProfile` holds per-kind rates (events per simulated hour,
all scaled by one knob) and outage durations; :class:`ChaosPlan.sample`
draws a deterministic renewal process per (kind, target) from named RNG
streams; :class:`ChaosEngine` executes the plan against a running
:class:`~repro.cluster.microfaas.MicroFaaSCluster` and records recovery
times for MTTR reporting.

Network and backend outages use the discrete-event simplification of
"wait out the outage": a transfer or service request arriving during a
window is delayed by the remaining outage instead of erroring — the
timing consequence of TCP retransmit / client reconnect loops, without
modelling the loops themselves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.obs import trace as obs
from repro.services.backend import SERVICE_OF_OP
from repro.sim.kernel import NORMAL as NORMAL_PRIORITY, URGENT, SimulationError
from repro.sim.rng import RandomStreams

#: Same-instant order of board liveness changes.  In the kernel queue
#: they sit after process resumption (``URGENT``) and before ordinary
#: events (``NORMAL``): at one instant, every revival lands first, then
#: every detection (each draining its board and placing the salvaged
#: jobs before the next detection starts), then completions and
#: arrivals.  The shard coordinator applies its shards' reports in the
#: same order (see :mod:`repro.shard.coordinator`).
REVIVE_PRIORITY = URGENT + 0.25
DETECT_PRIORITY = URGENT + 0.5


class ChaosKind(enum.Enum):
    """Every fault class the engine can inject."""

    WORKER_CRASH = "worker-crash"
    BOOT_FAILURE = "boot-failure"
    GPIO_STUCK = "gpio-stuck"
    LINK_DOWN = "link-down"
    LINK_DEGRADE = "link-degrade"
    SWITCH_OUTAGE = "switch-outage"
    BACKEND_FAULT = "backend-fault"
    #: Region-scoped faults (see :mod:`repro.federation.chaos`): a
    #: whole region unreachable, a WAN pair partitioned, or a region's
    #: ingress browning out with elevated latency and loss.  The
    #: cluster-level :class:`ChaosEngine` cannot execute these — they
    #: need the federation's gateway/WAN state.
    REGION_BLACKOUT = "region-blackout"
    WAN_PARTITION = "wan-partition"
    INGRESS_BROWNOUT = "ingress-brownout"


def resolve_endpoint(
    links: Mapping[str, object], *candidates: str
) -> Optional[str]:
    """Find a fault target's link name in a topology's link table.

    Tries each candidate name verbatim, then falls back to a
    region-prefixed match (federated topologies namespace endpoint
    names as ``<region>/<endpoint>``).  Shared by the cluster engine's
    worker-link targeting and the federation's WAN fault targeting, so
    both resolve names the same way.
    """
    for name in candidates:
        if name in links:
            return name
    suffixes = tuple("/" + name for name in candidates)
    for name in links:
        if name.endswith(suffixes):
            return name
    return None


def resolve_worker_endpoint(cluster, worker_id: int) -> Optional[str]:
    """Topology endpoint name of a worker's access link.

    Prefers the cluster's own ``worker_endpoint`` registry
    (harness-built clusters know each worker's endpoint exactly); for
    duck-typed clusters without one, probes the topology for the
    conventional per-platform names (``sbc-<id>`` / ``vm-<id>``),
    including region-prefixed variants.  Returns ``None`` when the
    worker has no resolvable link (the fault is skipped).
    """
    getter = getattr(cluster, "worker_endpoint", None)
    if getter is not None:
        try:
            return getter(worker_id)
        except KeyError:
            return None
    topology = getattr(cluster, "topology", None)
    links = getattr(topology, "links", None)
    if links is None:
        return None
    return resolve_endpoint(links, f"sbc-{worker_id}", f"vm-{worker_id}")


@dataclass(frozen=True)
class ChaosEvent:
    """One planned fault.

    ``target`` is a worker id for board/link faults, a switch index for
    switch outages, and a service name for backend faults.
    ``duration_s`` is the outage/degradation window (or the repair delay
    for board faults); ``magnitude`` carries the kind-specific extra
    (added latency for ``LINK_DEGRADE``, power-cycle attempts needed for
    ``BOOT_FAILURE``).
    """

    kind: ChaosKind
    time_s: float
    target: object
    duration_s: float
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("fault time cannot be negative")
        if self.duration_s < 0:
            raise ValueError("duration cannot be negative")


@dataclass(frozen=True)
class ChaosProfile:
    """Per-kind fault rates (events per simulated hour) and durations.

    The default mix is calibrated for accelerated chaos studies on
    90-second saturated runs: at ``scale=1.0`` a 8-worker cluster sees a
    handful of faults per run; ``scale=0`` disables everything.
    """

    scale: float = 1.0
    crash_per_hour: float = 60.0
    crash_repair_s: float = 6.0
    boot_failure_per_hour: float = 25.0
    boot_retry_s: float = 4.0
    gpio_stuck_per_hour: float = 20.0
    gpio_repair_s: float = 5.0
    link_down_per_hour: float = 30.0
    link_down_s: float = 2.0
    link_degrade_per_hour: float = 30.0
    link_degrade_s: float = 5.0
    link_extra_latency_s: float = 0.05
    switch_outage_per_hour: float = 6.0
    switch_outage_s: float = 1.5
    backend_fault_per_hour: float = 15.0
    backend_outage_s: float = 2.0

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ValueError("scale cannot be negative")
        for name in (
            "crash_per_hour",
            "boot_failure_per_hour",
            "gpio_stuck_per_hour",
            "link_down_per_hour",
            "link_degrade_per_hour",
            "switch_outage_per_hour",
            "backend_fault_per_hour",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")


@dataclass(frozen=True)
class RegionChaosProfile:
    """Per-kind region-fault rates (events per simulated hour).

    The federation analogue of :class:`ChaosProfile`: one ``scale``
    knob over blackout/partition/brownout rates.  Defaults are
    calibrated for accelerated federation studies on minute-scale
    runs — at ``scale=1.0`` a 3-region federation sees roughly one
    region-level incident per run.
    """

    scale: float = 1.0
    blackout_per_hour: float = 20.0
    blackout_s: float = 8.0
    partition_per_hour: float = 15.0
    partition_s: float = 5.0
    brownout_per_hour: float = 25.0
    brownout_s: float = 6.0
    brownout_extra_latency_s: float = 0.12
    brownout_loss: float = 0.3

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ValueError("scale cannot be negative")
        for name in (
            "blackout_per_hour",
            "partition_per_hour",
            "brownout_per_hour",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if not 0.0 <= self.brownout_loss < 1.0:
            raise ValueError("brownout loss must be in [0, 1)")


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic schedule of chaos events, sorted by time."""

    events: Tuple[ChaosEvent, ...]

    #: Board-level kinds whose detection reassigns salvaged jobs (the
    #: policy decisions a shard coordinator must make globally).
    BOARD_KINDS = frozenset(
        {"worker-crash", "boot-failure", "gpio-stuck"}
    )
    #: Kinds touching cluster-shared fabric/services — unsupported in
    #: sharded runs, where each shard owns only its workers' links.
    SHARED_KINDS = frozenset({"switch-outage", "backend-fault"})
    #: Kinds that delay transfers: only these need the transfer model's
    #: fault accounting, which keeps every job on per-phase waits.
    NETWORK_KINDS = frozenset({"link-down", "link-degrade", "switch-outage"})
    #: Region-scoped kinds, executed by the federation injector
    #: (:mod:`repro.federation.chaos`) — not by the cluster engine, and
    #: never worker-targeted.
    REGION_KINDS = frozenset(
        {"region-blackout", "wan-partition", "ingress-brownout"}
    )

    def count(self, kind: ChaosKind) -> int:
        return sum(1 for event in self.events if event.kind is kind)

    def has_shared_fabric_events(self) -> bool:
        """Whether any event hits a switch or backend service (those
        targets are cluster-shared, so such plans cannot be sharded)."""
        return any(
            event.kind.value in self.SHARED_KINDS
            or event.kind.value in self.REGION_KINDS
            for event in self.events
        )

    def restrict_to_workers(self, worker_ids) -> "ChaosPlan":
        """The sub-plan of worker-targeted events landing on ``worker_ids``.

        Used by shard runtimes: each shard executes only the events
        whose target board/link it simulates.  Event order within the
        sub-plan matches the full plan, so a shard's fault sequence is
        exactly the serial engine's sequence filtered to its workers.
        """
        owned = frozenset(worker_ids)
        return ChaosPlan(
            events=tuple(
                event
                for event in self.events
                if event.kind.value not in self.SHARED_KINDS
                and event.kind.value not in self.REGION_KINDS
                and int(event.target) in owned
            )
        )

    def board_detect_times(self, detection_delay_s: float):
        """Sorted unique detection times of all board-level events.

        These are the instants where the serial engine drains a dead
        worker's queue and reassigns jobs through the policy — the
        rendezvous boundaries a shard coordinator must stop at.  A
        conservative superset (events later skipped for overlap or
        last-worker protection reach no salvage) is harmless: the
        boundary simply exchanges empty reports.
        """
        if detection_delay_s < 0:
            raise ValueError("detection delay cannot be negative")
        return tuple(
            sorted(
                {
                    event.time_s + detection_delay_s
                    for event in self.events
                    if event.kind.value in self.BOARD_KINDS
                }
            )
        )

    @classmethod
    def sample(
        cls,
        profile: ChaosProfile,
        worker_count: int,
        horizon_s: float,
        streams: Optional[RandomStreams] = None,
        switch_count: int = 1,
    ) -> "ChaosPlan":
        """Draw a plan: one renewal process per (kind, target).

        Every inter-arrival comes from a dedicated named stream
        (``chaos-<kind>-<target>-<i>``), so the plan is identical for a
        given seed no matter what else the simulation draws.
        """
        if worker_count < 1:
            raise ValueError("need at least one worker")
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        streams = streams if streams is not None else RandomStreams(0)
        events: List[ChaosEvent] = []

        def renewal(kind: ChaosKind, target, per_hour: float, duration_s: float, magnitude: float = 0.0):
            _sample_renewal(
                events, streams, horizon_s, profile.scale,
                kind, target, per_hour, duration_s, magnitude,
            )

        for worker_id in range(worker_count):
            renewal(
                ChaosKind.WORKER_CRASH,
                worker_id,
                profile.crash_per_hour,
                profile.crash_repair_s,
            )
            renewal(
                ChaosKind.BOOT_FAILURE,
                worker_id,
                profile.boot_failure_per_hour,
                profile.crash_repair_s,
                # Power cycles needed before the board comes up: 1-4
                # (4 exceeds the OP's default retry budget of 3, so some
                # boards are abandoned).
                magnitude=streams.integers(
                    f"chaos-boot-attempts-{worker_id}", 1, 4
                ),
            )
            renewal(
                ChaosKind.GPIO_STUCK,
                worker_id,
                profile.gpio_stuck_per_hour,
                profile.gpio_repair_s,
            )
            renewal(
                ChaosKind.LINK_DOWN,
                worker_id,
                profile.link_down_per_hour,
                profile.link_down_s,
            )
            renewal(
                ChaosKind.LINK_DEGRADE,
                worker_id,
                profile.link_degrade_per_hour,
                profile.link_degrade_s,
                magnitude=profile.link_extra_latency_s,
            )
        for switch_index in range(switch_count):
            renewal(
                ChaosKind.SWITCH_OUTAGE,
                switch_index,
                profile.switch_outage_per_hour,
                profile.switch_outage_s,
            )
        for service in sorted(set(SERVICE_OF_OP.values())):
            renewal(
                ChaosKind.BACKEND_FAULT,
                service,
                profile.backend_fault_per_hour,
                profile.backend_outage_s,
            )
        events.sort(key=lambda e: (e.time_s, e.kind.value, str(e.target)))
        return cls(events=tuple(events))

    @classmethod
    def sample_regions(
        cls,
        profile: RegionChaosProfile,
        region_names: Sequence[str],
        horizon_s: float,
        streams: Optional[RandomStreams] = None,
    ) -> "ChaosPlan":
        """Draw a region-fault plan: one renewal process per (kind, target).

        Region-scoped analogue of :meth:`sample`, on the same stream
        naming scheme (``chaos-<kind>-<target>-<i>``): blackout and
        brownout renewals per region, partition renewals per connected
        region pair (targets are canonical ``a--b`` pair keys).  A
        one-region federation draws no partition events.
        """
        if not region_names:
            raise ValueError("need at least one region")
        if len(set(region_names)) != len(region_names):
            raise ValueError("region names must be unique")
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        streams = streams if streams is not None else RandomStreams(0)
        events: List[ChaosEvent] = []
        for name in region_names:
            _sample_renewal(
                events, streams, horizon_s, profile.scale,
                ChaosKind.REGION_BLACKOUT, name,
                profile.blackout_per_hour, profile.blackout_s,
            )
            _sample_renewal(
                events, streams, horizon_s, profile.scale,
                ChaosKind.INGRESS_BROWNOUT, name,
                profile.brownout_per_hour, profile.brownout_s,
                magnitude=profile.brownout_extra_latency_s,
            )
        for i, first in enumerate(region_names):
            for second in region_names[i + 1:]:
                _sample_renewal(
                    events, streams, horizon_s, profile.scale,
                    ChaosKind.WAN_PARTITION, f"{min(first, second)}--{max(first, second)}",
                    profile.partition_per_hour, profile.partition_s,
                )
        events.sort(key=lambda e: (e.time_s, e.kind.value, str(e.target)))
        return cls(events=tuple(events))


def _sample_renewal(
    events: List[ChaosEvent],
    streams: RandomStreams,
    horizon_s: float,
    scale: float,
    kind: ChaosKind,
    target,
    per_hour: float,
    duration_s: float,
    magnitude: float = 0.0,
) -> None:
    """Append one (kind, target) renewal process's events to ``events``.

    Every inter-arrival comes from a dedicated named stream
    (``chaos-<kind>-<target>-<i>``), so a plan is identical for a given
    seed no matter what else the simulation draws — and adding new
    kinds or targets never shifts the draws of existing ones.
    """
    rate = per_hour * scale / 3600.0
    if rate <= 0:
        return
    clock_s = 0.0
    index = 0
    while True:
        gap = streams.expovariate(
            f"chaos-{kind.value}-{target}-{index}", rate
        )
        clock_s += gap
        if clock_s >= horizon_s:
            return
        events.append(
            ChaosEvent(kind, clock_s, target, duration_s, magnitude)
        )
        clock_s += duration_s  # quiet while the fault is active
        index += 1


class ChaosEngine:
    """Executes a :class:`ChaosPlan` against a cluster.

    Board-level faults run one crash → detect → drain →
    ``recover_job`` → respawn cycle (plus bounded power-cycle retries
    for boot failures); fabric and backend faults set the outage state
    the transfer/backend models consult.  The engine records a recovery
    time per board fault for MTTR reporting and never kills the
    cluster's last alive worker.

    Works against any harness-built cluster, including hybrid mixes:
    link and switch faults hit either platform's fabric, while
    board-level faults (crash / boot failure / stuck GPIO) only apply
    to SBC workers — a microVM has no board to power-cycle, so events
    that land on a VM worker are counted in ``skipped_unsupported``
    rather than injected.
    """

    def __init__(
        self,
        cluster,
        detection_delay_s: float = 1.0,
        max_power_cycles: int = 3,
    ):
        if detection_delay_s < 0:
            raise ValueError("detection delay cannot be negative")
        if max_power_cycles < 1:
            raise ValueError("need at least one power cycle")
        self.cluster = cluster
        self.detection_delay_s = detection_delay_s
        self.max_power_cycles = max_power_cycles
        self.injected = 0
        self.skipped_last_worker = 0
        self.skipped_overlap = 0
        #: Board-level events targeting workers without a board (VMs).
        self.skipped_unsupported = 0
        self.recovered_jobs = 0
        self.boards_abandoned = 0
        #: (kind, detect_time, recover_time) per completed board repair.
        self.recovery_times: List[Tuple[ChaosKind, float, float]] = []
        #: Boards with a fault cycle in flight: overlapping board-level
        #: events are skipped, not queued — a crashed board crashing
        #: again mid-repair adds nothing to the model but interleaving
        #: hazards (e.g. power-cycling a board another fault's repair
        #: just revived).
        self._board_busy: set = set()

    def apply(self, plan: ChaosPlan) -> None:
        """Schedule every event (call before running the simulation).

        Transfer fault accounting is switched on only for a plan that
        holds a network event: board and backend faults leave transfer
        times alone.  Each network event's state-change instants (a
        link-down or switch-outage start, a degrade's start and
        restore) are announced to the transfer model, so a worker books
        a job whose window none of them touches.  A job claimed before
        the announcement may have booked blind, so a plan holding a
        network event raises once any job has left its queue.
        """
        env = self.cluster.env
        transfers = self.cluster.transfers
        network = [
            event for event in plan.events
            if event.kind.value in ChaosPlan.NETWORK_KINDS
        ]
        if network:
            if any(getattr(queue, "jobs_dequeued", 0)
                   for queue in self.cluster.orchestrator.queues):
                raise RuntimeError(
                    "a plan with network events must be applied before "
                    "any job is claimed"
                )
            if not transfers.chaos_enabled:
                transfers.enable_chaos()
            for event in network:
                self._announce(transfers, event, env.now + event.time_s)
        for index, event in enumerate(plan.events):
            env.process(
                self._dispatch(event),
                name=f"chaos-{index}-{event.kind.value}",
            )

    def _announce(self, transfers, event: ChaosEvent, start: float) -> None:
        """Tell ``transfers`` when a network event changes link or switch
        state: the instants :meth:`_link_fault` and
        :meth:`_switch_fault` act at, as the kernel sums them."""
        if event.kind is ChaosKind.SWITCH_OUTAGE:
            name = self._switch_name(event)
            if name is not None:
                transfers.announce(name, start)
            return
        endpoint = self._link_endpoint(event)
        if endpoint is None:
            return
        transfers.announce(endpoint, start)
        if event.kind is ChaosKind.LINK_DEGRADE:
            transfers.announce(endpoint, start + event.duration_s)

    @property
    def mean_recovery_s(self) -> Optional[float]:
        """Mean time from fault detection to the board rejoining."""
        if not self.recovery_times:
            return None
        return sum(
            recover - detect for _, detect, recover in self.recovery_times
        ) / len(self.recovery_times)

    # -- event execution -------------------------------------------------------

    def _dispatch(self, event: ChaosEvent):
        yield self.cluster.env.timeout(event.time_s)
        if event.kind.value in ChaosPlan.REGION_KINDS:
            # Region-scoped faults need gateway/WAN state a single
            # cluster does not have (see repro.federation.chaos).
            self.skipped_unsupported += 1
            return
        handler = {
            ChaosKind.WORKER_CRASH: self._board_fault,
            ChaosKind.BOOT_FAILURE: self._board_fault,
            ChaosKind.GPIO_STUCK: self._gpio_fault,
            ChaosKind.LINK_DOWN: self._link_fault,
            ChaosKind.LINK_DEGRADE: self._link_fault,
            ChaosKind.SWITCH_OUTAGE: self._switch_fault,
            ChaosKind.BACKEND_FAULT: self._backend_fault,
        }[event.kind]
        yield from handler(event)

    def _wait(self, delay_s: float, priority: float):
        """``timeout(delay_s)`` with an explicit same-instant priority
        (the end instant is the same float)."""
        env = self.cluster.env
        return env.timeout_at(env.now + delay_s, priority=priority)

    def _sbc(self, worker_id: int):
        """The board behind a worker id, or ``None`` for VM workers."""
        getter = getattr(self.cluster, "sbc_for", None)
        if getter is not None:
            try:
                return getter(worker_id)
            except KeyError:
                return None
        boards = self.cluster.sbcs
        return boards[worker_id] if 0 <= worker_id < len(boards) else None

    def _worker_endpoint(self, worker_id: int) -> Optional[str]:
        """Topology endpoint of a worker's access link.

        Delegates to :func:`resolve_worker_endpoint` — duck-typed
        clusters without a ``worker_endpoint`` registry get their
        topology probed for ``sbc-<id>`` / ``vm-<id>`` (including
        region-prefixed) names instead of a blind SBC guess.
        """
        return resolve_worker_endpoint(self.cluster, worker_id)

    def _alive_count(self) -> int:
        # A board with a fault in flight is down (or about to be) even
        # if the orchestrator hasn't detected it yet, so count it out —
        # otherwise two near-simultaneous crashes could take the last
        # two workers before either detection fires.
        orchestrator = self.cluster.orchestrator
        down = set(orchestrator.dead_workers) | self._board_busy
        return len(orchestrator.queues) - len(down)

    def _kill_board(self, worker_id: int, kind: str = "board-fault") -> None:
        """Cut power and the worker process (the crash itself)."""
        worker = self.cluster.workers[worker_id]
        sbc = self._sbc(worker_id)
        victim = worker.current_job
        if victim is not None and victim.trace_id is not None:
            # Stamp the fault on the in-flight invocation's trace; the
            # recovery path (recover_job) closes its attempt span.
            self.cluster.orchestrator.tracer.annotate(
                victim.trace_id, obs.CHAOS_EVENT, self.cluster.env.now,
                worker_id=worker_id, attrs={"kind": kind},
            )
        if worker.process.is_alive:
            worker.process.interrupt("chaos: board fault")
        if sbc.is_powered:
            sbc.power_off()

    def _detect_and_recover(self, worker_id: int) -> float:
        """Mark the board dead and reassign everything it owed.

        Returns the detection time (MTTR measurement starts here).
        """
        orchestrator = self.cluster.orchestrator
        detect_time = self.cluster.env.now
        if worker_id not in orchestrator.dead_workers:
            orchestrator.mark_worker_dead(worker_id)
        orchestrator.note_worker_failure(worker_id)
        # An enqueue-time wake pulse may have raced the crash during the
        # detection window, leaving the board powered with a dead worker
        # process; the OP cuts power to the failed board.
        sbc = self._sbc(worker_id)
        if sbc.is_powered:
            sbc.power_off()
        worker = self.cluster.workers[worker_id]
        lost = []
        if worker.current_job is not None and not worker.current_job.is_finished:
            lost.append(worker.current_job)
            worker.current_job = None
        lost.extend(orchestrator.queues[worker_id].drain())
        for job in lost:
            if orchestrator.recover_job(job):
                self.recovered_jobs += 1
        return detect_time

    def _revive_board(self, worker_id: int, kind: ChaosKind, detect_time: float) -> None:
        """Bring a repaired board back into the assignment pool."""
        orchestrator = self.cluster.orchestrator
        if not self.cluster.workers[worker_id].process.is_alive:
            self.cluster.respawn_worker(worker_id)
        orchestrator.mark_worker_alive(worker_id)
        orchestrator.note_worker_recovered(worker_id)
        self.recovery_times.append((kind, detect_time, self.cluster.env.now))

    def _board_fault(self, event: ChaosEvent):
        """WORKER_CRASH and BOOT_FAILURE: crash, detect, maybe revive."""
        worker_id = int(event.target)
        orchestrator = self.cluster.orchestrator
        if self._sbc(worker_id) is None:
            # No board behind this worker (a microVM): nothing to crash
            # or power-cycle at the hardware level.
            self.skipped_unsupported += 1
            return
        if worker_id in self._board_busy:
            self.skipped_overlap += 1
            return
        if (
            self._alive_count() <= 1
            and worker_id not in orchestrator.dead_workers
        ):
            # Chaos must degrade the cluster, not lose it: injecting
            # into the last alive worker would strand every queued job.
            self.skipped_last_worker += 1
            return
        self.injected += 1
        self._board_busy.add(worker_id)
        try:
            self._kill_board(worker_id, kind=event.kind.value)
            yield self._wait(self.detection_delay_s, DETECT_PRIORITY)
            detect_time = self._detect_and_recover(worker_id)
            # A BOOT_FAILURE board answers the first power cycles with
            # silence; the OP retries up to its budget, each cycle
            # burning a boot's worth of time and power.
            attempts_needed = 1
            if event.kind is ChaosKind.BOOT_FAILURE:
                attempts_needed = max(1, int(event.magnitude))
            failed_cycles = min(attempts_needed - 1, self.max_power_cycles)
            revives = attempts_needed <= self.max_power_cycles
            # The wait that ends at the revival instant carries the
            # revival's same-instant priority.
            last = REVIVE_PRIORITY if revives else NORMAL_PRIORITY
            yield self._wait(
                event.duration_s, NORMAL_PRIORITY if failed_cycles else last
            )
            if failed_cycles:
                sbc = self._sbc(worker_id)
                worker = self.cluster.workers[worker_id]
                for cycle in range(failed_cycles, 0, -1):
                    sbc.power_on()
                    yield self._wait(
                        worker.boot_real_s,
                        last if cycle == 1 else NORMAL_PRIORITY,
                    )
                    sbc.power_off()
            if not revives:
                # Budget exhausted: the board is pulled from the rack.
                self.boards_abandoned += 1
                return
            self._revive_board(worker_id, event.kind, detect_time)
        finally:
            self._board_busy.discard(worker_id)

    def _gpio_fault(self, event: ChaosEvent):
        """GPIO_STUCK: the PWR_BUT line stops actuating for a window.

        A powered-off board with a stuck line cannot be woken, so its
        worker process is taken down too (the self-power fallback in
        the worker loop models unwired boards, not broken lines).  A
        powered-on board keeps running — the stuck line only matters at
        the next wake — so the fault degrades silently.
        """
        env = self.cluster.env
        worker_id = int(event.target)
        gpio = self.cluster.gpio
        orchestrator = self.cluster.orchestrator
        sbc = self._sbc(worker_id)
        if sbc is None:
            # VM workers have no PWR_BUT line to get stuck.
            self.skipped_unsupported += 1
            return
        if worker_id in self._board_busy:
            self.skipped_overlap += 1
            return
        if not sbc.is_powered:
            if (
                self._alive_count() <= 1
                and worker_id not in orchestrator.dead_workers
            ):
                self.skipped_last_worker += 1
                return
            self.injected += 1
            self._board_busy.add(worker_id)
            try:
                gpio.break_line(worker_id)
                self._kill_board(worker_id, kind=event.kind.value)
                yield self._wait(self.detection_delay_s, DETECT_PRIORITY)
                detect_time = self._detect_and_recover(worker_id)
                yield self._wait(event.duration_s, REVIVE_PRIORITY)
                gpio.repair_line(worker_id)
                self._revive_board(worker_id, event.kind, detect_time)
            finally:
                self._board_busy.discard(worker_id)
        else:
            self.injected += 1
            gpio.break_line(worker_id)
            yield env.timeout(event.duration_s)
            gpio.repair_line(worker_id)

    def _link_endpoint(self, event: ChaosEvent) -> Optional[str]:
        """The endpoint whose access link a link event hits, or None
        when the target has no link in the topology."""
        endpoint = self._worker_endpoint(int(event.target))
        if endpoint is None or endpoint not in self.cluster.topology.links:
            return None
        return endpoint

    def _switch_name(self, event: ChaosEvent) -> Optional[str]:
        """The switch a switch outage hits, or None when out of range."""
        index = int(event.target)
        if not 0 <= index < len(self.cluster.switches):
            return None
        return self.cluster.switches[index].name

    def _check_announced(self, name: str) -> None:
        """An unannounced change could land inside a booked window."""
        now = self.cluster.env.now
        if not self.cluster.transfers.is_announced(name, now):
            raise SimulationError(
                f"network change on {name!r} at {now!r} was not announced"
            )

    def _link_fault(self, event: ChaosEvent):
        """LINK_DOWN / LINK_DEGRADE on one worker's access link."""
        env = self.cluster.env
        endpoint = self._link_endpoint(event)
        if endpoint is None:
            return
        link = self.cluster.topology.links[endpoint]
        self._check_announced(endpoint)
        self.injected += 1
        if event.kind is ChaosKind.LINK_DOWN:
            link.drop_until(env.now + event.duration_s)
            # The outage horizon clears itself; nothing to restore.
        else:
            link.degrade(event.magnitude)
            yield env.timeout(event.duration_s)
            self._check_announced(endpoint)
            link.restore()

    def _switch_fault(self, event: ChaosEvent):
        """SWITCH_OUTAGE: one ToR switch stops forwarding for a window."""
        env = self.cluster.env
        name = self._switch_name(event)
        if name is None:
            return
        self._check_announced(name)
        self.injected += 1
        self.cluster.switches[int(event.target)].fail_until(
            env.now + event.duration_s
        )
        return
        yield  # pragma: no cover - generator marker

    def _backend_fault(self, event: ChaosEvent):
        """BACKEND_FAULT: one service box stops answering for a window."""
        env = self.cluster.env
        backend = self.cluster.backend
        if backend is None:
            return
        self.injected += 1
        backend.fail_service(str(event.target), env.now + event.duration_s)
        return
        yield  # pragma: no cover - generator marker


__all__ = [
    "ChaosEngine",
    "ChaosEvent",
    "ChaosKind",
    "ChaosPlan",
    "ChaosProfile",
    "RegionChaosProfile",
    "resolve_endpoint",
    "resolve_worker_endpoint",
]
