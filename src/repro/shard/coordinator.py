"""The shard coordinator: lockstep-exact conservative-lookahead runs.

One simulation, N shards, bit-identical results.  The protocol exploits
a structural property of the MicroFaaS model: workers never interact
except through the orchestrator's assignment policy — transfer
latencies are stateless functions of the (identical, fully replicated)
topology, and per-worker RNG streams are name-derived and disjoint.  So
the coordinator runs the assignment policy — the same object a serial
run uses — on the integer scheduling state, and the shards simulate
the workers.  A placement at time ``t`` must see every completion at or
before ``t``; the question is only how far ahead of the shards' clocks
the coordinator may place.

**The horizon.**  Every invocation starts with the worker boot (1.51 s
on ARM, PAPER.md Sec. IV-D), so nothing placed or claimed now can
complete sooner than one boot from now.  Each ``advance`` report
carries the window's observed completions, the completions predicted
in it, and ``horizon``: a lower bound on every completion the shard has
not reported yet (see ``ShardRuntime._horizon``).  An SBC worker fixes
its completion instant when it claims a job, if nothing later can move
it (no control-plane model, no contended backend, no transfer fault
accounting), and reports it then — long before it happens.  The
coordinator keeps every completion, predicted or observed, in one heap
keyed ``(t, rank, order, seq)``.  Before an arrival batch at ``t`` it
applies every entry at or before ``t``; it places the batch without a
rendezvous when ``t`` lies before ``H`` (the least shard horizon,
capped by the next chaos boundary) or at the shards' clock.  The next
``advance`` goes to the first arrival it could not place, so a window
is about one boot long and a run makes at most as many rounds as it
has distinct arrival instants.

**Timed directives.**  Placements ride on the next ``advance`` and
carry their arrival time: a shard injects those at its clock at once
(salvages first) and each later instant's batch from one
``timeout_at``, so every job enters its shard at the simulated instant
the serial submitter would submit it.

**Chaos.**  A crash can cut a claimed job short, so a shard with a
chaos engine predicts nothing and reports ``horizon = clock``.  Every
board-level detection time (``event time + detection delay``) is a
rendezvous boundary — the chaos plan is pre-sampled from named streams,
so all parties know it up front — and the coordinator places the
salvaged jobs at the detection instant, as the serial engine does.

**Same-instant order.**  Integer crash and repair times make chaos
events coincide, so ties have one explicit order, shared with the
serial engine (``repro.reliability.chaos.REVIVE_PRIORITY`` and
``DETECT_PRIORITY``): at one instant every revival, then every
detection, each followed by its salvages, then the completions, then
the arrivals.  Two detections at one instant are not exact: the serial
engine may salvage the first board's jobs onto the second board just
before draining it again, while the second board's shard has already
drained it.  Completion and arrival times are sums of continuous
draws, so their exact ties with each other have measure zero; the
regression tests pin exact equality on the configurations they run.  In streaming-telemetry mode, merged means carry
float-summation-order noise (see ``TelemetryCollector.merge``); counts,
throughput, energy and duration remain bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.result import ClusterResult
from repro.core.platform import ARM, HYBRID, MICROFAAS, X86
from repro.core.scheduler import SchedulingState
from repro.core.telemetry import TelemetryCollector
from repro.obs.trace import merge_traces
from repro.shard.executors import InlineExecutor, ProcessExecutor
from repro.shard.partition import ShardPlan, plan_shards
from repro.shard.runtime import ClusterSpec, ShardSpec
from repro.sim.kernel import SimulationError
from repro.workloads.base import ALL_FUNCTION_NAMES

#: Same-instant ranks of reported events (see "Same-instant order" in
#: the module docstring).  A detection and its salvages share a rank
#: and the shard's record sequence, which puts each detection before
#: the salvages it causes.
_RANK_ALIVE = 0
_RANK_DETECT = 1
_RANK_COMPLETION = 2

_INF = float("inf")


@dataclass
class ShardedRunStats:
    """Side-channel observability for a sharded run (the headline
    numbers live in the returned :class:`ClusterResult`)."""

    boundaries: int = 0
    rounds: int = 0
    migrations: int = 0
    salvage_assignments: int = 0
    peak_shard_rss_mib: float = 0.0
    switch_count: int = 0
    cp_busy_seconds: float = 0.0
    cp_dispatches: int = 0
    cp_collections: int = 0
    resubmissions: int = 0
    chaos: Optional[dict] = None


class ShardedCluster:
    """Drives one simulation split across N shard processes.

    ``executor`` selects the backend: ``"process"`` forks one child per
    shard (the wall-clock win); ``"inline"`` runs every shard in this
    process — same code path, same results, used by determinism tests.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        shards: int,
        executor: str = "process",
    ):
        spec.validate()
        self.spec = spec
        # One blueprint for the whole fleet, computed here once: it
        # shapes the partition and ships to every shard (see
        # repro.cluster.blueprint).
        blueprint = spec.blueprint()
        self.plan: ShardPlan = plan_shards(spec.pool_shapes(blueprint), shards)
        platforms = spec.platforms()
        #: Decision time: the arrival or detection instant whose
        #: placements are being made.
        self._now = 0.0
        self.state = SchedulingState(platforms, clock=lambda: self._now)
        self.policy = spec.assignment_policy()
        self.policy.bind(self.state)
        self._owner = [
            self.plan.shard_of(wid) for wid in range(len(platforms))
        ]
        self.stats = ShardedRunStats()
        self._next_job_id = 0
        self._submitted = 0
        self._completed = 0
        self._last_completion = 0.0
        boundaries = ()
        if spec.chaos_plan is not None:
            boundaries = spec.chaos_plan.board_detect_times(
                spec.chaos_detection_delay_s
            )
        self._chaos_boundaries = list(boundaries)
        self._chaos_cursor = 0
        #: Placements decided since the last rendezvous, per shard; they
        #: ride on the next ``advance`` (see :meth:`_round`).
        self._pending = self._empty_directives()
        #: Reported events not yet applied: (t, rank, order, seq, payload).
        self._events: List[tuple] = []
        self._event_seq = 0
        #: The shards' common clock (the last ``advance`` target) and
        #: the least horizon they reported there.
        self._clock = 0.0
        self._horizon = 0.0
        specs = [
            ShardSpec(
                shard_index=index,
                shard_count=self.plan.shard_count,
                cluster=spec,
                local_ids=self.plan.shard_worker_ids[index],
                blueprint=blueprint,
            )
            for index in range(self.plan.shard_count)
        ]
        if executor == "process":
            self.executor = ProcessExecutor(specs)
        elif executor == "inline":
            self.executor = InlineExecutor(specs)
        else:
            raise ValueError(f"unknown executor {executor!r}")

    # -- assignment ------------------------------------------------------------

    def _assign_new(self, function: str, t: float) -> None:
        """Mirror ``Orchestrator.submit_function`` at arrival time ``t``:
        allocate the id, let the policy pick the worker, route to the
        owning shard."""
        job_id = self._next_job_id
        self._next_job_id += 1
        worker_id = self.policy.select(None)
        self.state.add_load(worker_id, 1)
        self._pending[self._owner[worker_id]].append(
            ("new", job_id, function, worker_id, t)
        )
        self._submitted += 1

    def _empty_directives(self) -> List[list]:
        return [[] for _ in range(self.plan.shard_count)]

    # -- report processing -----------------------------------------------------

    def _push(self, t: float, rank: int, order, payload) -> None:
        self._event_seq += 1
        heappush(self._events, (t, rank, order, self._event_seq, payload))

    def _collect(self, reports: Sequence[dict]) -> None:
        """Queue one window's reports and take the least horizon.

        A completion at or before the latest placement would mean that
        placement ran on stale loads: the horizon was not a bound."""
        horizon = _INF
        decided = self._now
        for report in reports:
            shard = report["shard"]
            for key in ("completions", "predictions"):
                for t, wid, job_id in report[key]:
                    if t <= decided:
                        raise SimulationError(
                            f"shard {shard} reported job {job_id} done at "
                            f"{t!r}, not after the placement at {decided!r}"
                        )
                    self._push(t, _RANK_COMPLETION, shard, wid)
            for t, seq, kind, wid in report["liveness"]:
                if kind == "dead":
                    self._push(t, _RANK_DETECT, (shard, seq), (None, wid))
                else:
                    self._push(t, _RANK_ALIVE, shard, wid)
            for t, seq, job_id, state in report["salvages"]:
                self._push(
                    t, _RANK_DETECT, (shard, seq), (shard, (job_id, state))
                )
            horizon = min(horizon, report["horizon"])
        self._horizon = horizon

    def _apply_until(self, t: float) -> None:
        """Apply every queued event at or before ``t`` in same-instant
        order, placing salvaged jobs as their detections drain them."""
        events = self._events
        state = self.state
        while events and events[0][0] <= t:
            t_event, rank, _order, _seq, payload = heappop(events)
            if rank == _RANK_COMPLETION:
                state.add_load(payload, -1)
                self._completed += 1
                if t_event > self._last_completion:
                    self._last_completion = t_event
            elif rank == _RANK_ALIVE:
                state.mark_alive(payload)
            else:
                shard, detail = payload
                if shard is None:
                    # The serial engine drains the dead queue: every job
                    # it held is salvaged (reported right after this
                    # event), so its load zeroes here and re-adds
                    # elsewhere.
                    state.loads[detail] = 0
                    state.mark_dead(detail)
                else:
                    self._place_salvage(t_event, shard, *detail)

    def _place_salvage(self, t, shard: int, job_id: int, job_snapshot) -> None:
        # Salvage decisions happen at the detection instant;
        # time-varying policies read their signals there.
        self._now = t
        target = self.policy.select(None)
        self.state.add_load(target, 1)
        self.stats.salvage_assignments += 1
        pending = self._pending
        if self._owner[target] == shard:
            pending[shard].append(("salvage", job_id, target))
        else:
            self.stats.migrations += 1
            pending[shard].append(("migrate_out", job_id))
            pending[self._owner[target]].append(("adopt", job_snapshot, target))

    # -- the drive loop --------------------------------------------------------

    def _next_chaos_boundary(self) -> Optional[float]:
        if self._chaos_cursor < len(self._chaos_boundaries):
            return self._chaos_boundaries[self._chaos_cursor]
        return None

    def _round(self, until: Optional[float]) -> None:
        """One rendezvous, one message per shard: send the placements
        decided since the last one (each shard injects them at their
        arrival instants), advance every shard to ``until`` (None: until
        its local work drains), and queue the reports.  Events up to the
        new clock are applied at once; later predicted completions wait
        for the arrivals they precede."""
        directives, self._pending = self._pending, self._empty_directives()
        reports = self.executor.advance(until, directives)
        self.stats.rounds += 1
        self._collect(reports)
        self._clock = _INF if until is None else until
        boundary = self._next_chaos_boundary()
        if boundary is not None and boundary < self._horizon:
            self._horizon = boundary
        self._apply_until(self._clock)

    def _reach(self, t: float) -> None:
        """Rendezvous until an arrival at ``t`` can be placed: ``t`` is
        at the shards' clock, or before the horizon.  Chaos boundaries
        before ``t`` are rendezvous of their own."""
        while t > self._clock and t >= self._horizon:
            boundary = self._next_chaos_boundary()
            if boundary is not None and boundary < t:
                self._chaos_cursor += 1
                self._round(boundary)
            else:
                self._round(t)
            self.stats.boundaries += 1

    def _run(self, batches: Iterable[Tuple[float, Sequence[str]]]) -> None:
        """The one drive loop: place each arrival batch ``(t, functions)``
        (in time order) on the loads every completion up to ``t`` leaves,
        then drain."""
        for t, functions in batches:
            self._reach(t)
            self._apply_until(t)
            self._now = t
            # Appended after any salvages decided at ``t``: the shards
            # inject both, in that order.
            for function in functions:
                self._assign_new(function, t)
        self._apply_until(_INF)
        while self._completed < self._submitted:
            boundary = self._next_chaos_boundary()
            if boundary is not None:
                self._chaos_cursor += 1
                self.stats.boundaries += 1
            self._round(boundary)

    # -- experiment entry points -----------------------------------------------

    def run_saturated(
        self,
        functions: Sequence[str] = tuple(ALL_FUNCTION_NAMES),
        invocations_per_function: int = 10,
    ) -> ClusterResult:
        """Sharded twin of ``ClusterHarness.run_saturated``."""
        if invocations_per_function < 1:
            raise ValueError("invocations_per_function must be >= 1")
        self._run([(0.0, list(functions) * invocations_per_function)])
        return self._finish()

    def run_paper_arrivals(
        self,
        functions: Sequence[str] = tuple(ALL_FUNCTION_NAMES),
        jobs_per_second: int = 2,
        total_jobs: int = 170,
        interval_s: float = 1.0,
    ) -> ClusterResult:
        """Sharded twin of ``ClusterHarness.run_paper_arrivals``: the
        arrival schedule is pre-computed exactly like the serial
        ``paper_arrival_process``; one boot spans more than one 1 s
        mark, so a window places several marks."""
        if jobs_per_second < 1:
            raise ValueError("jobs_per_second must be >= 1")
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        count = len(functions)
        self._run(
            (
                index * interval_s,
                [
                    functions[issued % count]
                    for issued in range(
                        first, min(first + jobs_per_second, total_jobs)
                    )
                ],
            )
            for index, first in enumerate(range(0, total_jobs, jobs_per_second))
        )
        return self._finish()

    def replay_trace(self, trace) -> ClusterResult:
        """Sharded twin of :func:`repro.cluster.replay.replay_trace`.

        Same-timestamp arrivals form one batch, exactly as the serial
        replay submits them.  Every arrival before the shards' horizon
        is placed without a rendezvous, so a window spans about one
        boot of arrivals.  The measurement window runs to the later of
        the trace end and the last completion, matching the serial
        ``duration = max(env.now, trace.duration_s)``.
        """
        if hasattr(type(trace), "__len__") and len(trace) == 0:
            raise ValueError("empty trace")
        batches = _batches(trace.iter_pairs())
        self._run(batches)
        if self._next_job_id == 0:
            raise ValueError("empty trace")
        return self._finish(end_time=trace.duration_s)

    # -- result merging --------------------------------------------------------

    def _merge_telemetry(self, finishes: Sequence[dict]) -> TelemetryCollector:
        if self.spec.telemetry_exact:
            # Bit-identical path: the collector's running aggregates are
            # order-sensitive float sums, so replay every shard's records
            # through a fresh collector in global completion order —
            # exactly the sequence the serial collector saw.
            merged = TelemetryCollector(exact=True)
            records = [
                record
                for finish in finishes
                for record in finish["telemetry"].records
            ]
            records.sort(key=lambda r: (r.t_completed, r.job_id))
            for record in records:
                merged.record(record)
            return merged
        merged = TelemetryCollector(exact=False)
        for finish in finishes:
            merged.merge(finish["telemetry"])
        return merged

    def _pool_platforms(self) -> Tuple[str, ...]:
        if self.spec.kind == "microfaas":
            return (ARM,)
        tags = []
        if self.spec.sbc_count:
            tags.append(ARM)
        if self.spec.vm_count:
            tags.append(X86)
        return tuple(tags)

    def _merge_energy(self, finishes: Sequence[dict]):
        """Re-sum per-board energies in global board order, per pool —
        the exact addition sequence the serial harness performs."""
        boards_by_pool: Dict[int, List[Tuple[int, float]]] = {}
        for finish in finishes:
            for pool_index, boards in finish["board_energy"]:
                boards_by_pool.setdefault(pool_index, []).extend(boards)
        pool_platforms = self._pool_platforms()
        pool_energy = []
        for pool_index, platform in enumerate(pool_platforms):
            boards = sorted(boards_by_pool.get(pool_index, []))
            pool_energy.append(
                (platform, sum(joules for _wid, joules in boards))
            )
        total = sum(joules for _platform, joules in pool_energy)
        return total, tuple(pool_energy)

    def _finish(self, end_time: float = 0.0) -> ClusterResult:
        if any(self._pending):
            # Unreachable while the drain loop runs until every job has
            # completed: a placement is only decided for a live job.
            raise RuntimeError("placements still pending at finish")
        t_global = max(self._last_completion, end_time)
        finishes = self.executor.finish(t_global)
        telemetry = self._merge_telemetry(finishes)
        energy, pool_energy = self._merge_energy(finishes)
        self.traces = merge_traces([f["traces"] for f in finishes])
        stats = self.stats
        stats.peak_shard_rss_mib = max(
            f["peak_rss_mib"] for f in finishes
        )
        stats.switch_count = max(
            f["counters"]["switch_count"] for f in finishes
        )
        stats.resubmissions = sum(
            f["counters"]["resubmissions"] for f in finishes
        )
        stats.cp_busy_seconds = sum(
            f["counters"].get("cp_busy_seconds", 0.0) for f in finishes
        )
        stats.cp_dispatches = sum(
            f["counters"].get("cp_dispatches", 0) for f in finishes
        )
        stats.cp_collections = sum(
            f["counters"].get("cp_collections", 0) for f in finishes
        )
        if any(f["chaos"] for f in finishes):
            merged_chaos: Dict[str, object] = {
                "injected": 0,
                "skipped_last_worker": 0,
                "skipped_overlap": 0,
                "skipped_unsupported": 0,
                "recovered_jobs": 0,
                "boards_abandoned": 0,
                "recovery_times": [],
            }
            for finish in finishes:
                chaos = finish["chaos"]
                if not chaos:
                    continue
                for key, value in chaos.items():
                    if key == "recovery_times":
                        merged_chaos["recovery_times"].extend(value)
                    else:
                        merged_chaos[key] += value
            stats.chaos = merged_chaos
        return ClusterResult(
            platform=MICROFAAS if self.spec.kind == "microfaas" else HYBRID,
            worker_count=self.plan.worker_count,
            jobs_completed=telemetry.count,
            duration_s=t_global,
            energy_joules=energy,
            telemetry=telemetry,
            pool_energy=pool_energy,
        )

    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _batches(pairs):
    """Group ``(time, function)`` pairs into same-instant batches."""
    batch_time: Optional[float] = None
    batch: List[str] = []
    for time_s, function in pairs:
        if batch_time is not None and time_s != batch_time:
            yield batch_time, batch
            batch = []
        batch_time = time_s
        batch.append(function)
    if batch_time is not None:
        yield batch_time, batch


__all__ = ["ClusterSpec", "ShardedCluster", "ShardedRunStats"]
