"""The shard coordinator: lockstep-exact conservative-lookahead runs.

One simulation, N shards, bit-identical results.  The protocol exploits
a structural property of the MicroFaaS model: between *globally known
decision boundaries*, workers never interact — transfer latencies are
stateless functions of the (identical, fully replicated) topology,
per-worker RNG streams are name-derived and disjoint, and the only
coupling is the orchestrator's assignment policy.  The decision
boundaries are known in advance:

* ``t = 0`` for saturated submission bursts;
* the 1-second arrival interval marks of the paper's arrival process
  (the schedule is pre-computed and draw-free);
* every board-level chaos event's *detection* time (``event time +
  detection delay``), where the serial engine drains a dead board's
  queue through the policy — and the chaos plan is pre-sampled from
  dedicated named streams, so all parties know it up front.

So the coordinator advances every shard to the next boundary, replays
the assignment policy on integer virtual queue state (fed by the
shards' completion/liveness reports, applied in timestamp order), and
sends the resulting placements with the command that advances each
shard to the following boundary.  Shards run their windows in
parallel; no shard ever waits on another except at boundaries.
Conservative lookahead degenerates to an exact schedule: the lookahead
between boundaries is infinite because *no* cross-shard event can
occur inside a window.

Determinism caveat (documented bound): event timestamps are sums of
continuous draws (lognormal jitter, exponential gaps), so collisions
between completions, detections, and boundary marks have measure zero;
on the pinned configurations the regression tests assert exact
equality.  In streaming-telemetry mode, merged means carry
float-summation-order noise (see ``TelemetryCollector.merge``);
counts, throughput, energy, and duration remain bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.result import ClusterResult
from repro.core.platform import ARM, HYBRID, MICROFAAS, X86
from repro.core.telemetry import TelemetryCollector
from repro.obs.trace import merge_traces
from repro.shard.executors import InlineExecutor, ProcessExecutor
from repro.shard.partition import ShardPlan, plan_shards
from repro.shard.replay import VirtualCluster, make_replayer
from repro.shard.runtime import ClusterSpec, ShardSpec
from repro.workloads.base import ALL_FUNCTION_NAMES

#: Tie-break ranks for same-timestamp events, mirroring the serial
#: in-event order: a detection marks the worker dead, then salvages its
#: queue; revivals are separate events.  (Cross-kind timestamp
#: collisions have measure zero anyway — see the module docstring.)
_RANK_COMPLETION = 0
_RANK_DEAD = 1
_RANK_SALVAGE = 2
_RANK_ALIVE = 3


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
        self.plan: ShardPlan = plan_shards(spec.pool_shapes(), shards)
        platforms = spec.platforms()
        self.state = VirtualCluster(platforms)
        self.replayer = make_replayer(
            spec.policy_name,
            self.state,
            spec.seed,
            spill_threshold=spec.spill_threshold,
            preferred=ARM,
            signals=spec.carbon_signals,
            joules_weights=spec.carbon_weights,
        )
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
        #: Placements decided at the current boundary, per shard; they
        #: ride on the next ``advance`` (see :meth:`_round`).
        self._pending = self._empty_directives()
        # One blueprint for the whole fleet: each shard adopts the
        # precomputed construction skeleton instead of replaying the
        # full serial build to rediscover switch growth (see
        # repro.cluster.blueprint).
        blueprint = spec.blueprint()
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

    def _assign_new(self, function: str, directives: List[list]) -> None:
        """Mirror ``Orchestrator.submit_function``: allocate the id, let
        the replayer pick the worker, route to the owning shard."""
        job_id = self._next_job_id
        self._next_job_id += 1
        worker_id = self.replayer.select(None)
        self.state.loads[worker_id] += 1
        self.replayer.on_load_change(worker_id)
        directives[self._owner[worker_id]].append(
            ("new", job_id, function, worker_id)
        )
        self._submitted += 1

    def _empty_directives(self) -> List[list]:
        return [[] for _ in range(self.plan.shard_count)]

    # -- report processing -----------------------------------------------------

    def _process_reports(
        self, reports: Sequence[dict], directives: List[list]
    ) -> None:
        """Apply one window's events to the virtual state in timestamp
        order, deciding salvage placements as they occur."""
        events = []
        for report in reports:
            shard = report["shard"]
            for t, wid, job_id in report["completions"]:
                events.append((t, _RANK_COMPLETION, shard, 0, (wid, job_id)))
            for t, kind, wid in report["liveness"]:
                rank = _RANK_DEAD if kind == "dead" else _RANK_ALIVE
                events.append((t, rank, shard, 0, wid))
            for t, seq, job_id, state in report["salvages"]:
                events.append((t, _RANK_SALVAGE, shard, seq, (job_id, state)))
        events.sort(key=lambda e: e[:4])
        for t, rank, shard, _seq, payload in events:
            if rank == _RANK_COMPLETION:
                wid, _job_id = payload
                self.state.loads[wid] -= 1
                self.replayer.on_load_change(wid)
                self._completed += 1
                if t > self._last_completion:
                    self._last_completion = t
            elif rank == _RANK_DEAD:
                wid = payload
                # The serial engine drains the dead queue: every job it
                # held is salvaged (reported right after this event), so
                # its virtual load zeroes here and re-adds elsewhere.
                self.state.loads[wid] = 0
                self.state.mark_dead(wid)
                self.replayer.on_alive_change(wid)
            elif rank == _RANK_ALIVE:
                wid = payload
                self.state.mark_alive(wid)
                self.replayer.on_alive_change(wid)
            else:  # salvage
                job_id, job_snapshot = payload
                # Salvage decisions happen at the detection instant;
                # time-varying policies read their signals there.
                self.replayer.advance_to(t)
                target = self.replayer.select(None)
                self.state.loads[target] += 1
                self.replayer.on_load_change(target)
                self.stats.salvage_assignments += 1
                if self._owner[target] == shard:
                    directives[shard].append(("salvage", job_id, target))
                else:
                    self.stats.migrations += 1
                    directives[shard].append(("migrate_out", job_id))
                    directives[self._owner[target]].append(
                        ("adopt", job_snapshot, target)
                    )

    # -- the drive loop --------------------------------------------------------

    def _next_chaos_boundary(self) -> Optional[float]:
        if self._chaos_cursor < len(self._chaos_boundaries):
            return self._chaos_boundaries[self._chaos_cursor]
        return None

    def _round(self, until: Optional[float]) -> None:
        """One rendezvous, one message per shard: inject the placements
        decided at the previous boundary, advance every shard to
        ``until``, and fold the reports into fresh pending placements.

        Deferring the injection is exact: a shard's clock moves only
        inside a command, so between two messages it stays parked at the
        previous boundary, and injecting at the start of the next
        message happens at the same simulated instant, in the same
        order, as injecting right after the last reply."""
        directives, self._pending = self._pending, self._empty_directives()
        reports = self.executor.advance(until, directives)
        self.stats.rounds += 1
        self._process_reports(reports, self._pending)

    def _drain(self) -> None:
        """Run until every submitted job has completed, stopping at each
        remaining chaos boundary while work is still in flight."""
        while self._completed < self._submitted:
            boundary = self._next_chaos_boundary()
            if boundary is not None:
                self._chaos_cursor += 1
                self.stats.boundaries += 1
            self._round(boundary)

    def _consume_boundaries_until(self, t: float) -> None:
        """Rendezvous at every chaos boundary strictly before ``t``."""
        while True:
            boundary = self._next_chaos_boundary()
            if boundary is None or boundary >= t:
                return
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
        for _ in range(invocations_per_function):
            for function in functions:
                self._assign_new(function, self._pending)
        self._drain()
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
        ``paper_arrival_process`` and each interval mark is a boundary."""
        if jobs_per_second < 1:
            raise ValueError("jobs_per_second must be >= 1")
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        count = len(functions)
        batches = [
            [
                functions[issued % count]
                for issued in range(
                    first, min(first + jobs_per_second, total_jobs)
                )
            ]
            for first in range(0, total_jobs, jobs_per_second)
        ]
        for index, batch in enumerate(batches):
            t_batch = index * interval_s
            if index > 0:
                self._consume_boundaries_until(t_batch)
                # Advance to the arrival mark itself before submitting.
                self._round(t_batch)
                self.stats.boundaries += 1
            self.replayer.advance_to(t_batch)
            # Appended after any salvages decided at ``t_batch``: the
            # shards inject both, in that order, with the next advance.
            for function in batch:
                self._assign_new(function, self._pending)
        self._drain()
        return self._finish()

    def replay_trace(self, trace) -> ClusterResult:
        """Sharded twin of :func:`repro.cluster.replay.replay_trace`.

        Same-timestamp arrivals form one batch, exactly as the serial
        replay submits them; every distinct arrival time is a
        rendezvous boundary.  The measurement window runs to the later
        of the trace end and the last completion, matching the serial
        ``duration = max(env.now, trace.duration_s)``.
        """
        if hasattr(type(trace), "__len__") and len(trace) == 0:
            raise ValueError("empty trace")
        batch_time: Optional[float] = None
        batch: List[str] = []
        for time_s, function in trace.iter_pairs():
            if batch_time is not None and time_s != batch_time:
                self._submit_batch_at(batch_time, batch)
                batch = []
            batch_time = time_s
            batch.append(function)
        if batch_time is None:
            raise ValueError("empty trace")
        self._submit_batch_at(batch_time, batch)
        self._drain()
        return self._finish(end_time=trace.duration_s)

    def _submit_batch_at(self, t_batch: float, batch: List[str]) -> None:
        """Rendezvous at ``t_batch`` and submit one arrival batch."""
        if t_batch > 0:
            self._consume_boundaries_until(t_batch)
            self._round(t_batch)
            self.stats.boundaries += 1
        self.replayer.advance_to(t_batch)
        # Appended after any salvages decided at ``t_batch`` (see
        # run_paper_arrivals).
        for function in batch:
            self._assign_new(function, self._pending)

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


__all__ = ["ClusterSpec", "ShardedCluster", "ShardedRunStats"]
