"""Megatrace: a million-invocation replay through the fast path.

The ROADMAP's north star is "heavy traffic from millions of users";
this experiment is the existence proof that the simulator can carry
such a load end to end.  It generates a columnar Poisson trace
(:func:`repro.workloads.traces.poisson_trace` with ``columnar=True``),
replays it through a MicroFaaS cluster running the large-run fast path
— streaming telemetry (no per-record retention), batched arrivals, and
finished-job eviction at the OP — and reports what an operator would
ask about the run: wall-clock, peak RSS, sustained throughput, latency
tail, and energy per function.

Every per-invocation structure is bounded or evicted, so memory stays
O(in-flight + workers) regardless of trace length; the only O(N) state
left is the packed power-trace arrays (16 bytes per state change) that
exact energy integration needs.  A million invocations on 128 workers
completes in roughly a minute of wall-clock within a few hundred MiB.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.microfaas import MicroFaaSCluster
from repro.cluster.replay import replay_trace
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments.report import Table, format_table
from repro.experiments.runner import derive_seed, map_traced
from repro.obs.trace import FinishedTrace, TraceConfig
from repro.shard.runtime import ClusterSpec
from repro.sim.rng import RandomStreams
from repro.workloads.traces import ChunkedPoissonTrace, poisson_trace

#: Sustained per-worker service rate of a BeagleBone through the full
#: boot→execute→report cycle (the testbed does ~200 func/min across 10
#: boards, Sec. V) — used to size the arrival rate against capacity.
WORKER_JOBS_PER_S = 1.0 / 3.0

#: Above this many invocations, :func:`run` switches to the streaming
#: trace + bounded power traces automatically: the eager columnar trace
#: alone would cost ~16 bytes/arrival, and unbounded per-board power
#: traces another ~64 bytes/invocation.
STREAMING_THRESHOLD = 10_000_000

#: Retained change points per power trace in streaming mode (~1 MiB per
#: board at 16 bytes/point; older points fold into an energy prefix).
POWER_TRACE_MAX_POINTS = 65_536


def peak_rss_mib() -> float:
    """Process high-water RSS in MiB (Linux reports KiB).

    Read from ``VmHWM`` where ``/proc`` has it: ``ru_maxrss`` also keeps
    the peak of the image a process replaced at exec, so a child
    spawned from a large parent would report the parent's peak.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class MegatraceResult:
    """One megatrace replay, measured inside and out."""

    invocations: int
    worker_count: int
    rate_per_s: float
    sim_duration_s: float
    wall_clock_s: float
    peak_rss_mib: float
    throughput_per_min: float
    mean_latency_s: float
    p99_latency_s: float
    joules_per_function: float
    #: Collector state after the run — the bounded-memory evidence.
    records_retained: int
    sketch_buckets: int
    #: Tracing counters (zero when the recorder is off): sampled traces
    #: that sealed, sealed traces evicted by the ring buffer, and the
    #: bounded number actually retained for export.
    traces_finished: int = 0
    traces_dropped: int = 0
    traces_exported: int = 0
    #: Partitioned-deployment shards this replay ran across (1 = one
    #: cluster, one OP; N = the trace striped over N independent
    #: worker-slices, each with its own orchestrator).
    shards: int = 1
    #: Which arrival path ran: True for the bounded-RSS streaming path
    #: (chunked arrivals, autocompacting power traces), False for the
    #: eager columnar trace.
    streaming: bool = False

    @property
    def events_per_wall_s(self) -> float:
        """Simulator throughput: completed invocations per wall second."""
        return self.invocations / self.wall_clock_s


@dataclass(frozen=True)
class _StripeTask:
    """One partition of a megatrace replay (picklable).

    ``stripe`` is the whole trace for a one-partition replay, else an
    eager :class:`~repro.workloads.traces.ColumnarTrace` slice or a
    :class:`ChunkedPoissonTrace` stripe (a few parameters instead of
    arrays — what makes 10⁸-arrival partitioned replays picklable at
    all).
    """

    stripe: object
    worker_count: int
    seed: int
    trace: Optional[TraceConfig]
    streaming: bool = False
    #: Precomputed construction plan (a few hundred bytes of names and
    #: ints) so each partition process skips topology discovery.
    blueprint: Optional[object] = None


def _replay_stripe(task: _StripeTask) -> Tuple[dict, List[FinishedTrace]]:
    """Worker: replay one traffic stripe on its own cluster + OP."""
    cluster = MicroFaaSCluster(
        worker_count=task.worker_count,
        seed=task.seed,
        policy=LeastLoadedPolicy(),
        telemetry_exact=False,
        trace=task.trace,
        blueprint=task.blueprint,
    )
    cluster.orchestrator.evict_finished = True
    if task.streaming:
        cluster.bound_power_traces(POWER_TRACE_MAX_POINTS)
    result = replay_trace(cluster, task.stripe)
    traces = cluster.finished_traces()
    tracer = cluster.tracer
    return {
        "jobs_completed": result.jobs_completed,
        "duration_s": result.duration_s,
        "energy_joules": result.energy_joules,
        "telemetry": cluster.orchestrator.telemetry,
        "peak_rss_mib": peak_rss_mib(),
        "traces_finished": tracer.traces_finished if tracer is not None else 0,
        "traces_dropped": tracer.traces_dropped if tracer is not None else 0,
        "traces_exported": len(traces),
    }, traces


def run(
    invocations: int = 1_000_000,
    worker_count: int = 128,
    utilization: float = 0.85,
    seed: int = 1,
    trace_path: Optional[str] = None,
    trace_sample_rate: float = 0.001,
    trace_max: int = 2048,
    shards: int = 1,
    streaming: Optional[bool] = None,
) -> MegatraceResult:
    """Replay ``invocations`` Poisson arrivals at ``utilization`` of the
    cluster's sustained capacity.

    Runs serially on purpose: the run *is* the measurement (wall-clock
    and RSS).

    With ``trace_path`` set, the span recorder rides along under the
    same bounded-memory discipline as the rest of the fast path:
    head-based sampling keeps recording off most invocations, and the
    ``trace_max`` ring buffer caps retained traces no matter how many
    are sampled.  Boot-stage sub-spans are disabled to keep sampled
    traces lean at this scale.

    ``shards > 1`` switches to the partitioned deployment — N
    orchestrators, each owning ``worker_count / N`` boards and a
    round-robin slice of the traffic — and replays the partitions as
    parallel processes.  Unlike :class:`repro.shard.ShardedCluster`
    there is no cross-partition scheduling, so the numbers are those of
    the partitioned deployment, not bit-identical to the single-OP
    replay (each partition's least-loaded scheduler sees only its own
    slice).  Deterministic for a given (seed, shards) regardless of
    process scheduling: each partition carries a derived seed and its
    stripe, and results merge in partition order.  One partition
    replays the whole trace in-process under ``seed`` itself.

    ``streaming`` selects the bounded-RSS fast path for very long
    replays: the arrival trace is generated lazily in chunks
    (:class:`~repro.workloads.traces.ChunkedPoissonTrace`, bit-identical
    to the eager trace) and every power trace autocompacts into an
    exact running energy prefix — memory stays O(in-flight + workers)
    even at 10⁸ invocations.  ``None`` (the default) turns it on
    automatically past :data:`STREAMING_THRESHOLD`.
    """
    if invocations < 1:
        raise ValueError("invocations must be >= 1")
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    if not 0 < utilization < 1:
        raise ValueError("utilization must be in (0, 1)")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards > worker_count:
        raise ValueError("more shards than workers")
    rate = worker_count * WORKER_JOBS_PER_S * utilization
    duration = invocations / rate
    trace_config = (
        TraceConfig(
            sample_rate=trace_sample_rate,
            max_traces=trace_max,
            boot_stages=False,
        )
        if trace_path is not None
        else None
    )
    if streaming is None:
        streaming = invocations >= STREAMING_THRESHOLD
    start = time.perf_counter()
    if streaming:
        trace = ChunkedPoissonTrace(
            rate_per_s=rate, duration_s=duration, seed=seed
        )
    else:
        trace = poisson_trace(
            rate, duration, streams=RandomStreams(seed), columnar=True
        )
    base, extra = divmod(worker_count, shards)
    # One blueprint per distinct partition size (there are at most two:
    # base and base+1), computed once and shipped to every process.
    blueprints = {
        count: ClusterSpec(kind="microfaas", worker_count=count).blueprint()
        for count in ({base, base + 1} if extra else {base})
    }
    tasks = [
        _StripeTask(
            stripe=trace if shards == 1 else trace.stripe(index, shards),
            worker_count=base + (1 if index < extra else 0),
            seed=(
                seed if shards == 1
                else derive_seed(seed, "megatrace-shard", index)
            ),
            trace=trace_config,
            streaming=streaming,
            blueprint=blueprints[base + (1 if index < extra else 0)],
        )
        for index in range(shards)
    ]
    outs = map_traced(
        tasks, _replay_stripe, jobs=shards, trace_path=trace_path
    )
    wall = time.perf_counter() - start
    telemetry = outs[0]["telemetry"]
    for out in outs[1:]:
        telemetry.merge(out["telemetry"])
    jobs_completed = sum(out["jobs_completed"] for out in outs)
    sim_duration = max(out["duration_s"] for out in outs)
    energy = sum(out["energy_joules"] for out in outs)
    return MegatraceResult(
        invocations=jobs_completed,
        worker_count=worker_count,
        rate_per_s=rate,
        sim_duration_s=sim_duration,
        wall_clock_s=wall,
        peak_rss_mib=max(
            max(out["peak_rss_mib"] for out in outs), peak_rss_mib()
        ),
        throughput_per_min=jobs_completed * 60.0 / sim_duration,
        mean_latency_s=telemetry.mean_latency_s(),
        p99_latency_s=telemetry.percentile_latency_s(99),
        joules_per_function=energy / jobs_completed if jobs_completed else 0.0,
        records_retained=len(telemetry.records),
        sketch_buckets=telemetry._latency_sketch.bucket_count,
        traces_finished=sum(out["traces_finished"] for out in outs),
        traces_dropped=sum(out["traces_dropped"] for out in outs),
        traces_exported=sum(out["traces_exported"] for out in outs),
        shards=shards,
        streaming=streaming,
    )


def render(result: MegatraceResult) -> str:
    rows = [
        ("invocations replayed", f"{result.invocations:,}"),
        (
            "workers",
            f"{result.worker_count}"
            + (
                f" ({result.shards} partitions, one OP each)"
                if result.shards > 1
                else ""
            ),
        ),
        ("arrival rate", f"{result.rate_per_s:.1f} /s"),
        (
            "arrival path",
            "streaming (chunked arrivals, compacting power traces)"
            if result.streaming
            else "eager (columnar trace, full power traces)",
        ),
        ("simulated time", f"{result.sim_duration_s / 3600:.2f} h"),
        ("throughput", f"{result.throughput_per_min:.0f} func/min"),
        ("mean latency", f"{result.mean_latency_s:.2f} s"),
        ("p99 latency (sketch)", f"{result.p99_latency_s:.2f} s"),
        ("energy/function", f"{result.joules_per_function:.2f} J"),
        ("wall-clock", f"{result.wall_clock_s:.1f} s"),
        (
            "simulator speed",
            f"{result.events_per_wall_s:,.0f} invocations/s "
            f"({result.sim_duration_s / result.wall_clock_s:,.0f}x real time)",
        ),
        ("peak RSS", f"{result.peak_rss_mib:.0f} MiB"),
        (
            "records retained",
            f"{result.records_retained} "
            f"(sketch telemetry; {result.sketch_buckets} buckets)",
        ),
    ]
    if result.traces_finished or result.traces_exported:
        rows.append(
            (
                "traces sampled",
                f"{result.traces_finished:,} sealed, "
                f"{result.traces_exported} exported "
                f"({result.traces_dropped:,} evicted by ring)",
            )
        )
    return format_table(
        ["metric", "value"],
        rows,
        title="Megatrace - million-invocation replay on the fast path",
    )


def tables(result: MegatraceResult) -> List[Table]:
    """``megatrace.csv``: the replay's operator metrics, one row."""
    rows = [
        (result.invocations, result.worker_count, result.rate_per_s,
         result.sim_duration_s, result.throughput_per_min,
         result.mean_latency_s, result.p99_latency_s,
         result.joules_per_function, result.wall_clock_s,
         result.peak_rss_mib, result.records_retained,
         result.sketch_buckets)
    ]
    return [(
        "megatrace.csv",
        ["invocations", "workers", "rate_per_s", "sim_duration_s",
         "func_per_min", "mean_latency_s", "p99_latency_s",
         "joules_per_function", "wall_clock_s", "peak_rss_mib",
         "records_retained", "sketch_buckets"],
        rows,
    )]
