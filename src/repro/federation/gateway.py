"""The federation gateway: many clusters behind one front door.

A :class:`FederatedCluster` composes region clusters (each a full
:class:`~repro.cluster.harness.ClusterHarness`) on **one** shared
simulation environment, behind a fault-tolerant gateway.  Clients
submit *federated jobs* tagged with a client geo and priority; the
gateway routes each one through a
:class:`~repro.federation.router.FederationRouter`, pays the WAN
ingress latency from :class:`~repro.net.wan.WanFabric`, and delivers
exactly the first result per federated job back to the client.

Fault tolerance, layer by layer:

- **Heartbeats + circuit breakers.**  A per-region heartbeat process
  detects unreachable regions; after ``heartbeat_misses`` consecutive
  misses the gateway declares an outage (the failover-MTTR clock starts
  here) and the per-region breaker — a
  :class:`~repro.core.policies.WorkerHealthTracker` keyed by region
  index — opens.  Recovery closes the breaker and stops the MTTR clock.
- **Re-routing.**  Declaring an outage re-routes every undelivered
  federated job stranded in the dead region to a healthy one.  The
  original attempt keeps running inside the unreachable region; its
  result is buffered and suppressed as a duplicate on recovery — the
  cross-region analogue of the orchestrator's at-least-once +
  duplicate-suppression contract.  Zero jobs are lost under any
  single-region outage.
- **Retry with backoff.**  Ingress sends during a brownout suffer
  deterministic loss; dropped sends retry with exponential backoff and
  hash-derived jitter (:func:`~repro.sim.rng.derive_seed`, never a
  shared RNG), escaping to another region when the budget runs out.
- **Hedged re-routing.**  A federated job undelivered past
  ``hedge_after_s`` gets one duplicate in a secondary region.
- **Graceful degradation.**  With shedding enabled, lowest-priority
  jobs are shed (counted, never silently dropped) while federation-wide
  backlog exceeds the configured threshold.

Determinism: the gateway draws no random numbers (routing, shedding,
and retry jitter are all deterministic; WAN jitter draws only happen on
fabrics configured with ``jitter > 0``), and region clusters keep their
own seeded streams — so a zero-fault federation over one zero-latency
region is bit-identical to the bare cluster run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.replay import _batches
from repro.core.backoff import backoff_delay_s
from repro.core.policies import RecoveryPolicy, WorkerHealthTracker
from repro.core.telemetry import QuantileSketch, RunningStat, TelemetryCollector
from repro.federation.region import Region, RegionSpec, build_region_cluster
from repro.federation.router import FederationRouter, RoutingPolicy
from repro.net.wan import WanFabric
from repro.obs import trace as obs
from repro.obs.trace import TraceConfig, merge_traces
from repro.sim.kernel import Environment, Event
from repro.sim.rng import derive_seed
from repro.workloads.base import ALL_FUNCTION_NAMES
from repro.workloads.profiles import profile_for


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway fault-tolerance knobs (all times in simulated seconds)."""

    heartbeat_interval_s: float = 0.5
    #: Consecutive missed heartbeats before an outage is declared.
    heartbeat_misses: int = 2
    #: Hedge a federated job undelivered this long to a second region
    #: (``None`` disables federation-level hedging).
    hedge_after_s: Optional[float] = 12.0
    supervisor_tick_s: float = 0.5
    #: Ingress retry budget during brownouts, with exponential backoff.
    ingress_max_attempts: int = 4
    ingress_backoff_s: float = 0.2
    ingress_backoff_factor: float = 2.0
    ingress_backoff_jitter: float = 0.2
    #: Per-region circuit breaker (WorkerHealthTracker semantics).
    breaker_threshold: int = 2
    breaker_quarantine_s: float = 2.0
    #: Shed jobs of priority <= ``shed_max_priority`` while outstanding
    #: jobs per worker (across up regions) exceed this threshold
    #: (``None`` disables shedding).
    shed_load_threshold: Optional[float] = None
    shed_max_priority: int = 0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.heartbeat_misses < 1:
            raise ValueError("need at least one heartbeat miss")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError("hedge threshold must be positive")
        if self.supervisor_tick_s <= 0:
            raise ValueError("supervisor tick must be positive")
        if self.ingress_max_attempts < 1:
            raise ValueError("need at least one ingress attempt")
        if self.ingress_backoff_s < 0:
            raise ValueError("backoff cannot be negative")
        if self.ingress_backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.shed_load_threshold is not None and self.shed_load_threshold <= 0:
            raise ValueError("shed threshold must be positive")


class FedJob:
    """One federated invocation, across every regional attempt."""

    __slots__ = (
        "fed_id", "function", "geo", "priority", "t_submit",
        "delivered", "shed", "t_delivered", "latency_s",
        "attempts", "hedged", "served_by", "ingress_attempts",
    )

    def __init__(self, fed_id: int, function: str, geo: str, priority: int,
                 t_submit: float):
        self.fed_id = fed_id
        self.function = function
        self.geo = geo
        self.priority = priority
        self.t_submit = t_submit
        self.delivered = False
        self.shed = False
        self.t_delivered: Optional[float] = None
        self.latency_s: Optional[float] = None
        #: Regional attempts: ``(region index, region-local job id)``.
        self.attempts: List[Tuple[int, int]] = []
        self.hedged = False
        self.served_by: Optional[int] = None
        #: Ingress sends tried so far (brownout drops burn attempts).
        self.ingress_attempts = 0

    @property
    def resolved(self) -> bool:
        return self.delivered or self.shed


class FederatedCluster:
    """Named regions behind one fault-tolerant gateway."""

    def __init__(
        self,
        specs: Sequence[RegionSpec],
        wan: Optional[WanFabric] = None,
        routing_policy: Optional[RoutingPolicy] = None,
        config: GatewayConfig = GatewayConfig(),
        recovery: Optional[RecoveryPolicy] = None,
        policy_factory=None,
        telemetry_exact: bool = True,
        trace: Optional[TraceConfig] = None,
    ):
        if not specs:
            raise ValueError("need at least one region")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("region names must be unique")
        self.config = config
        self.telemetry_exact = telemetry_exact
        self.env = Environment()
        if wan is None:
            wan = WanFabric.mesh(tuple(names))
            for spec in specs:
                if spec.geo != spec.name:
                    for region_name in names:
                        wan.set_ingress(
                            spec.geo,
                            region_name,
                            wan.ingress_spec(spec.name, region_name),
                        )
        self.wan = wan
        self.regions: List[Region] = []
        for index, spec in enumerate(specs):
            cluster = build_region_cluster(
                spec,
                self.env,
                policy_factory=policy_factory,
                recovery=recovery,
                telemetry_exact=telemetry_exact,
                trace=trace,
            )
            region = Region(index, spec, cluster)
            cluster.orchestrator.on_complete = (
                lambda job, record, _region=region: self._on_region_complete(
                    _region, job, record
                )
            )
            self.regions.append(region)
        self._region_by_geo: Dict[str, Region] = {}
        for region in self.regions:
            self._region_by_geo.setdefault(region.geo, region)
        self.router = FederationRouter(
            self.regions,
            wan,
            policy=routing_policy,
            breaker=WorkerHealthTracker(
                failure_threshold=config.breaker_threshold,
                quarantine_s=config.breaker_quarantine_s,
            ),
        )

        #: Federated-job bookkeeping.
        self.fed_jobs: Dict[int, FedJob] = {}
        self._undelivered: Dict[int, FedJob] = {}
        self._job_map: Dict[Tuple[int, int], int] = {}
        self._next_fed_id = 0
        self._submitted = 0
        self._outstanding = 0
        self._drain_events: List[Event] = []
        #: Gateway counters.
        self.delivered = 0
        self.shed_jobs = 0
        self.reroutes = 0
        self.hedges = 0
        self.duplicates_suppressed = 0
        self.ingress_drops = 0
        self.ingress_retries = 0
        #: Client-perceived latency per geo: (RunningStat, sketch).
        self._geo_stats: Dict[str, Tuple[RunningStat, QuantileSketch]] = {}
        self._heartbeats_started = False
        self._supervision_started = False
        #: Federated-job resolution subscribers (see :meth:`on_job_done`).
        self._job_done_callbacks: List = []

    # -- region/geo helpers --------------------------------------------------------------

    def region(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"unknown region {name!r}")

    def home_region(self, geo: str) -> Optional[Region]:
        """The region natively serving ``geo`` (data lives there)."""
        return self._region_by_geo.get(geo)

    def _geo_stat(self, geo: str) -> Tuple[RunningStat, QuantileSketch]:
        stats = self._geo_stats.get(geo)
        if stats is None:
            stats = (RunningStat(), QuantileSketch())
            self._geo_stats[geo] = stats
        return stats

    def _ensure_supervision(self) -> None:
        """Start heartbeats (forever) and the hedge supervisor (until
        drained) on first submission — not at construction, so building
        a federation schedules nothing."""
        if not self._heartbeats_started:
            self._heartbeats_started = True
            for region in self.regions:
                self.env.process(
                    self._heartbeat(region),
                    name=f"fed-heartbeat-{region.name}",
                )
        if not self._supervision_started:
            self._supervision_started = True
            self.env.process(self._supervise(), name="fed-supervisor")

    # -- submission ----------------------------------------------------------------------

    def _federation_load(self) -> float:
        """Accepted-but-undelivered jobs per worker across up regions.

        Measured at the gateway (not from region queue depths) so jobs
        still riding the WAN ingress count as demand too.
        """
        workers = sum(
            region.worker_count
            for region in self.regions
            if not region.outage_declared
        )
        return len(self._undelivered) / max(1, workers)

    def submit(self, function: str, geo: str, priority: int = 1) -> FedJob:
        """Accept one federated invocation from a client in ``geo``."""
        now = self.env.now
        fed = FedJob(self._next_fed_id, function, geo, priority, now)
        self._next_fed_id += 1
        self.fed_jobs[fed.fed_id] = fed
        self._undelivered[fed.fed_id] = fed
        self._submitted += 1
        self._outstanding += 1
        self._ensure_supervision()
        threshold = self.config.shed_load_threshold
        if (
            threshold is not None
            and priority <= self.config.shed_max_priority
            and self._federation_load() >= threshold
        ):
            # Graceful degradation: capacity is below demand; the
            # lowest-priority traffic is turned away at the front door
            # (counted as shed, never as lost).
            fed.shed = True
            self.shed_jobs += 1
            self._resolve(fed)
            return fed
        region = self.router.route(geo, now)
        self._dispatch(fed, region)
        return fed

    def _dispatch(
        self,
        fed: FedJob,
        region: Region,
        rerouted_from: Optional[Region] = None,
    ) -> None:
        """Send one attempt of ``fed`` toward ``region``'s front door."""
        now = self.env.now
        fed.ingress_attempts += 1
        attempt = fed.ingress_attempts
        if region.in_brownout(now):
            fraction = (
                derive_seed(fed.fed_id, f"ingress-{region.name}-{attempt}")
                % 2**20
            ) / 2**20
            if fraction < region.brownout_loss:
                # The send is lost in the brownout: back off and retry,
                # attributing the failure to the region's breaker.
                self.ingress_drops += 1
                self.router.breaker.record_failure(region.index, now)
                self.env.process(
                    self._retry_ingress(fed, region),
                    name=f"fed-retry-{fed.fed_id}",
                )
                return
        delay = self.wan.ingress_latency_s(fed.geo, region.name, now)
        home = self.home_region(fed.geo)
        fetch_bytes = 0
        if home is not None and home is not region and self.wan.connected(
            home.name, region.name
        ):
            # Data affinity: serving away from home pays a WAN fetch of
            # the input payload from the home region.
            fetch_bytes = profile_for(fed.function).input_bytes
            delay += self.wan.pair_delay_s(
                home.name, region.name, fetch_bytes, now
            )
        if delay <= 0.0:
            self._submit_to_region(fed, region, fetch_bytes, rerouted_from)
        else:
            self.env.process(
                self._delayed_submit(fed, region, delay, fetch_bytes,
                                     rerouted_from),
                name=f"fed-ingress-{fed.fed_id}",
            )

    def _retry_ingress(self, fed: FedJob, region: Region):
        """Back off after a brownout drop, then retry (or escape)."""
        config = self.config
        yield self.env.timeout(
            backoff_delay_s(
                fed.ingress_attempts,
                base_s=config.ingress_backoff_s,
                factor=config.ingress_backoff_factor,
                max_s=8.0,
                jitter=config.ingress_backoff_jitter,
                key=fed.fed_id,
                salt="ingress-backoff",
            )
        )
        if fed.resolved:
            return
        self.ingress_retries += 1
        now = self.env.now
        if fed.ingress_attempts >= config.ingress_max_attempts:
            # Budget exhausted against this region: route elsewhere.
            self.reroutes += 1
            target = self.router.route(fed.geo, now, exclude={region.index})
            self._dispatch(fed, target, rerouted_from=region)
        else:
            self._dispatch(fed, region)

    def _delayed_submit(
        self,
        fed: FedJob,
        region: Region,
        delay: float,
        fetch_bytes: int,
        rerouted_from: Optional[Region],
    ):
        yield self.env.timeout(delay)
        if fed.resolved:
            return
        if region.outage_declared or not region.reachable:
            # Arrived at a dead front door: route around it.
            self.reroutes += 1
            target = self.router.route(
                fed.geo, self.env.now, exclude={region.index}
            )
            if target is region:
                # Nowhere else to go (every region down): queue into the
                # region anyway; delivery defers to its recovery.
                self._submit_to_region(fed, region, fetch_bytes, rerouted_from)
            else:
                self._dispatch(fed, target, rerouted_from=region)
            return
        self._submit_to_region(fed, region, fetch_bytes, rerouted_from)

    def _submit_to_region(
        self,
        fed: FedJob,
        region: Region,
        fetch_bytes: int,
        rerouted_from: Optional[Region] = None,
    ) -> None:
        job = region.cluster.orchestrator.submit_function(fed.function)
        self._job_map[(region.index, job.job_id)] = fed.fed_id
        fed.attempts.append((region.index, job.job_id))
        region.jobs_in += 1
        if fetch_bytes > 0:
            region.cross_region_jobs += 1
            region.cross_region_bytes += fetch_bytes
        if job.trace_id is not None and rerouted_from is not None:
            region.cluster.orchestrator.tracer.annotate(
                job.trace_id, obs.REROUTE, self.env.now,
                attrs={
                    "fed_id": fed.fed_id,
                    "from_region": rerouted_from.name,
                    "to_region": region.name,
                },
            )

    # -- delivery ------------------------------------------------------------------------

    def _on_region_complete(self, region: Region, job, record) -> None:
        fed_id = self._job_map.get((region.index, job.job_id))
        if fed_id is None:
            return
        if not region.reachable:
            # The region finished the work but the WAN back to the
            # gateway is down: hold the result for deferred delivery.
            region.buffered.append((fed_id, record))
            return
        self._deliver(self.fed_jobs[fed_id], region)

    def _deliver(self, fed: FedJob, region: Region) -> None:
        if fed.resolved:
            # A duplicate attempt (hedge, re-route, or a recovered
            # region's buffered result) lost the race.
            self.duplicates_suppressed += 1
            return
        now = self.env.now
        fed.delivered = True
        fed.served_by = region.index
        fed.t_delivered = now
        egress = self.wan.ingress_latency_s(fed.geo, region.name, now)
        fed.latency_s = (now - fed.t_submit) + egress
        stat, sketch = self._geo_stat(fed.geo)
        stat.add(fed.latency_s)
        sketch.add(fed.latency_s)
        region.jobs_delivered += 1
        self.delivered += 1
        self._resolve(fed)

    def on_job_done(self, callback) -> None:
        """Subscribe to federated-job resolution (push, not poll).

        ``callback(fed)`` fires exactly once per federated job, at the
        simulated instant it resolves — delivery (``fed.delivered``)
        or shedding (``fed.shed``).  Suppressed duplicate regional
        results never fire.  The federation analogue of
        :meth:`repro.core.orchestrator.Orchestrator.on_job_done`; any
        number of subscribers may register, and registration draws no
        RNG so it never perturbs the simulation.
        """
        self._job_done_callbacks.append(callback)

    def _resolve(self, fed: FedJob) -> None:
        self._undelivered.pop(fed.fed_id, None)
        self._outstanding -= 1
        for callback in self._job_done_callbacks:
            callback(fed)
        if self._outstanding == 0:
            for event in self._drain_events:
                if not event.triggered:
                    event.succeed(self.delivered)
            self._drain_events.clear()

    def _flush_buffer(self, region: Region) -> None:
        """Deliver results held while the region was unreachable."""
        buffered, region.buffered = region.buffered, []
        for fed_id, _record in buffered:
            self._deliver(self.fed_jobs[fed_id], region)

    # -- health monitoring ---------------------------------------------------------------

    def _heartbeat(self, region: Region):
        """Probe one region forever; detect outages and recoveries."""
        config = self.config
        while True:
            yield self.env.timeout(config.heartbeat_interval_s)
            now = self.env.now
            if region.reachable:
                if region.outage_declared:
                    # Recovery: the half-open probe succeeded.  Close
                    # the breaker, stop the MTTR clock, and release the
                    # buffered results.
                    region.clear_outage(now)
                    self.router.breaker.record_success(region.index, now)
                else:
                    region.heartbeat_misses = 0
                if region.buffered:
                    self._flush_buffer(region)
            else:
                region.heartbeat_misses += 1
                self.router.breaker.record_failure(region.index, now)
                if (
                    region.heartbeat_misses >= config.heartbeat_misses
                    and not region.outage_declared
                ):
                    region.declare_outage(now)
                    self._failover(region)

    def _failover(self, dead: Region) -> None:
        """Re-route every federated job stranded in a dead region."""
        now = self.env.now
        declared = {r.index for r in self.regions if r.outage_declared}
        for fed in list(self._undelivered.values()):
            if not fed.attempts:
                continue  # still in ingress flight; handled on arrival
            if not all(index in declared for index, _ in fed.attempts):
                continue  # a healthy region is already working on it
            target = self.router.route(fed.geo, now, exclude=declared)
            if target.index in declared:
                continue  # no healthy region exists right now
            self.reroutes += 1
            last_index, last_job_id = fed.attempts[-1]
            last_region = self.regions[last_index]
            last_job = last_region.cluster.orchestrator.jobs.get(last_job_id)
            if last_job is not None and last_job.trace_id is not None:
                last_region.cluster.orchestrator.tracer.annotate(
                    last_job.trace_id, obs.REGION_OUTAGE, now,
                    attrs={"region": dead.name},
                )
            self._dispatch(fed, target, rerouted_from=dead)

    def _supervise(self):
        """Hedge stragglers to a secondary region until drained."""
        config = self.config
        try:
            while self._outstanding > 0:
                yield self.env.timeout(config.supervisor_tick_s)
                if config.hedge_after_s is None:
                    continue
                now = self.env.now
                for fed in list(self._undelivered.values()):
                    if fed.hedged or fed.shed or not fed.attempts:
                        continue
                    if now - fed.t_submit < config.hedge_after_s:
                        continue
                    attempted = {index for index, _ in fed.attempts}
                    target = self.router.route(fed.geo, now, exclude=attempted)
                    if target.index in attempted:
                        continue  # nowhere new to hedge to
                    fed.hedged = True
                    self.hedges += 1
                    self._dispatch(fed, target)
        finally:
            self._supervision_started = False

    # -- drain + entry points ------------------------------------------------------------

    def wait_all(self) -> Event:
        """Event firing when every federated job is delivered or shed."""
        event = Event(self.env)
        if self._outstanding == 0 and self._submitted > 0:
            event.succeed(self.delivered)
        else:
            self._drain_events.append(event)
        return event

    def _drain(self):
        """Runner: all fed jobs resolved, then all regions idle (late
        duplicate attempts finish so energy/trace windows seal)."""
        yield self.wait_all()
        for region in self.regions:
            orchestrator = region.cluster.orchestrator
            if orchestrator.pending > 0:
                yield orchestrator.wait_all()

    def run_saturated(
        self,
        functions: Sequence[str] = tuple(ALL_FUNCTION_NAMES),
        invocations_per_function: int = 10,
        geos: Optional[Sequence[str]] = None,
    ) -> "FederationResult":
        """Issue the full batch at t=0 and run until drained.

        Without explicit ``geos``, clients round-robin over the
        regions' geos.  With a single zero-latency region this is
        *exactly* the bare cluster's ``run_saturated``: same batch,
        same submission order, all at t=0.
        """
        if invocations_per_function < 1:
            raise ValueError("invocations_per_function must be >= 1")
        batch = [
            function
            for _ in range(invocations_per_function)
            for function in functions
        ]
        region_geos = [region.geo for region in self.regions]
        for index, function in enumerate(batch):
            geo = (
                geos[index % len(geos)]
                if geos
                else region_geos[index % len(region_geos)]
            )
            self.submit(function, geo)
        self.env.run(until=self.env.process(self._drain(), name="fed-drain"))
        return self.result(self.env.now)

    def run_arrivals(
        self,
        trace,
        geos: Sequence[str],
        priorities: Optional[Sequence[int]] = None,
    ) -> "FederationResult":
        """Replay an arrival trace through the gateway.

        ``trace`` is a sized trace with ``iter_pairs()``/``duration_s``
        (a :class:`~repro.workloads.traces.ColumnarTrace`); ``geos[i]``
        is the i-th arrival's client geo and ``priorities[i]`` its
        priority (default 1).  Arrivals sharing a timestamp submit in
        one burst, grouped as :func:`repro.cluster.replay.replay_trace`
        groups them.
        """
        if len(trace) == 0:
            raise ValueError("empty trace")
        if len(geos) < len(trace):
            raise ValueError("need one geo per arrival")
        env = self.env

        def submitter():
            index = 0
            for time_s, batch in _batches(trace.iter_pairs()):
                delay = time_s - env.now
                if delay > 0:
                    yield env.timeout(delay)
                for function in batch:
                    self.submit(
                        function, geos[index],
                        priorities[index] if priorities is not None else 1,
                    )
                    index += 1

        def runner():
            yield env.process(submitter(), name="fed-submitter")
            yield from self._drain()

        env.run(until=env.process(runner(), name="fed-runner"))
        duration = max(env.now, trace.duration_s)
        if env.now < duration:
            env.run(until=duration)
        return self.result(duration)

    # -- results -------------------------------------------------------------------------

    def finished_traces(self):
        """Merged sealed traces of every region (labels are region
        names, so ids never collide)."""
        recorders = [
            region.cluster.tracer
            for region in self.regions
            if region.cluster.tracer is not None
        ]
        for recorder in recorders:
            recorder.drain()
        return merge_traces(recorders)

    def result(self, duration_s: float) -> "FederationResult":
        """Freeze the run into a :class:`FederationResult`.

        Flushes any results still buffered behind a healed WAN first,
        so the exactly-once accounting reconciles: every regional
        delivery is either the federated delivery or a counted
        duplicate.
        """
        for region in self.regions:
            if region.buffered and region.reachable:
                self._flush_buffer(region)
        return FederationResult(self, duration_s)


class FederationResult:
    """Reconciled per-region and aggregate outcome of a federated run."""

    def __init__(self, fed: FederatedCluster, duration_s: float):
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        self.duration_s = duration_s
        self.jobs_submitted = fed._submitted
        self.jobs_delivered = fed.delivered
        self.jobs_shed = fed.shed_jobs
        #: The headline invariant: jobs neither delivered nor shed.
        self.jobs_lost = fed._submitted - fed.delivered - fed.shed_jobs
        self.reroutes = fed.reroutes
        self.hedges = fed.hedges
        self.duplicates_suppressed = fed.duplicates_suppressed
        self.ingress_drops = fed.ingress_drops
        self.ingress_retries = fed.ingress_retries
        #: Per-geo client-perceived latency: geo -> (count, mean, p50, p99).
        self.geo_latency: Dict[str, Tuple[int, float, float, float]] = {}
        for geo in sorted(fed._geo_stats):
            stat, sketch = fed._geo_stats[geo]
            self.geo_latency[geo] = (
                stat.count, stat.mean, sketch.quantile(50.0),
                sketch.quantile(99.0),
            )
        #: Per-region reports, in region order.
        self.region_reports: List[RegionReport] = [
            RegionReport(
                name=region.name,
                geo=region.geo,
                worker_count=region.worker_count,
                jobs_in=region.jobs_in,
                jobs_delivered=region.jobs_delivered,
                telemetry_count=region.cluster.orchestrator.telemetry.count,
                energy_joules=region.cluster.energy_joules(0.0, duration_s),
                outages=len(region.outage_log),
                mean_recovery_s=region.mean_outage_recovery_s,
                cross_region_jobs=region.cross_region_jobs,
                cross_region_bytes=region.cross_region_bytes,
            )
            for region in fed.regions
        ]
        self.energy_joules = sum(
            report.energy_joules for report in self.region_reports
        )
        #: Aggregate telemetry: every region's collector merged.
        self.telemetry = TelemetryCollector(exact=fed.telemetry_exact)
        for region in fed.regions:
            self.telemetry.merge(region.cluster.orchestrator.telemetry)

    @property
    def goodput_per_min(self) -> float:
        return self.jobs_delivered * 60.0 / self.duration_s

    @property
    def joules_per_function(self) -> float:
        if self.jobs_delivered == 0:
            raise ValueError("no delivered jobs")
        return self.energy_joules / self.jobs_delivered

    @property
    def mean_recovery_s(self) -> Optional[float]:
        """Failover MTTR over every completed region outage."""
        spans: List[float] = []
        for report in self.region_reports:
            if report.mean_recovery_s is not None:
                spans.extend([report.mean_recovery_s] * report.outages)
        if not spans:
            return None
        return sum(spans) / len(spans)

    @property
    def cross_region_jobs(self) -> int:
        return sum(r.cross_region_jobs for r in self.region_reports)

    @property
    def cross_region_bytes(self) -> int:
        return sum(r.cross_region_bytes for r in self.region_reports)

    def reconciles(self) -> bool:
        """Exactly-once accounting across the whole federation.

        Every regional delivery is either *the* federated delivery or a
        counted duplicate, and nothing was lost.
        """
        regional = sum(r.telemetry_count for r in self.region_reports)
        return (
            self.jobs_lost == 0
            and regional == self.jobs_delivered + self.duplicates_suppressed
            and self.telemetry.count == regional
        )


@dataclass(frozen=True)
class RegionReport:
    """One region's share of a federated run."""

    name: str
    geo: str
    worker_count: int
    jobs_in: int
    jobs_delivered: int
    telemetry_count: int
    energy_joules: float
    outages: int
    mean_recovery_s: Optional[float]
    cross_region_jobs: int
    cross_region_bytes: int

    @property
    def joules_per_function(self) -> float:
        if self.telemetry_count == 0:
            return float("nan")
        return self.energy_joules / self.telemetry_count


__all__ = [
    "FedJob",
    "FederatedCluster",
    "FederationResult",
    "GatewayConfig",
    "RegionReport",
]
