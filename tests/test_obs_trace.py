"""Tests for the trace recorder: lifecycle, sampling, bounded memory.

The subsystem's two load-bearing promises are tested end to end here:
(1) a disabled or absent recorder changes nothing — simulation results
are bit-identical with tracing off, on, or sampling at any rate; and
(2) an enabled recorder's memory is bounded by the ring buffer no
matter how many traces are sampled.
"""

import hashlib
import json
import pickle
import random

import pytest

from repro.client import FunctionExecutor
from repro.cluster import ConventionalCluster, MicroFaaSCluster
from repro.core.policies import RecoveryPolicy
from repro.core.scheduler import LeastLoadedPolicy
from repro.obs import trace as obs
from repro.obs.export import chrome_trace_events
from repro.obs.trace import (
    NULL_RECORDER,
    FinishedTrace,
    Span,
    TraceConfig,
    TraceRecorder,
    merge_traces,
)
from repro.reliability.chaos import ChaosEngine, ChaosPlan, ChaosProfile
from repro.sim.rng import RandomStreams
from repro.workloads.base import ALL_FUNCTION_NAMES


def make_cluster(worker_count=4, seed=7, trace=None):
    return MicroFaaSCluster(
        worker_count=worker_count,
        seed=seed,
        policy=LeastLoadedPolicy(),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Config / span model
# ---------------------------------------------------------------------------


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(sample_rate=-0.1)
    with pytest.raises(ValueError):
        TraceConfig(sample_rate=1.5)
    with pytest.raises(ValueError):
        TraceConfig(max_traces=0)


def test_span_rejects_negative_duration():
    with pytest.raises(ValueError):
        Span(1, 1, None, "boot", 2.0, 1.0)


def test_recorder_rejects_negative_duration_at_record_time():
    recorder = TraceRecorder()
    recorder.begin_trace(1, 0.0, "sha256")
    with pytest.raises(ValueError, match="before start"):
        recorder.span(1, obs.BOOT, 2.0, 1.0)
    assert recorder.spans_recorded == 1  # the root only


def test_span_as_dict_round_trip():
    span = Span(7, 3, 1, "execute", 1.0, 2.5, worker_id=4,
                attrs={"cpu_s": 1.2})
    row = span.as_dict()
    assert row["trace_id"] == 7
    assert row["span_id"] == 3
    assert row["parent_id"] == 1
    assert row["name"] == "execute"
    assert row["start_s"] == 1.0 and row["end_s"] == 2.5
    assert row["worker_id"] == 4
    assert row["attrs"] == {"cpu_s": 1.2}


# ---------------------------------------------------------------------------
# Recorder lifecycle
# ---------------------------------------------------------------------------


def test_recorder_lifecycle_seals_on_delivery_and_last_attempt():
    recorder = TraceRecorder()
    root = recorder.begin_trace(1, 0.0, "sha256")
    attempt = recorder.begin_attempt(1, 1.0, worker_id=0)
    recorder.span(1, obs.EXECUTE, 1.0, 2.0, parent_id=attempt, worker_id=0)
    # Delivered, but the attempt is still open: not sealed yet.
    recorder.mark_delivered(1, 2.0, attempt_id=attempt)
    assert recorder.traces() == []
    recorder.end_attempt(1, attempt, 2.5)
    traces = recorder.traces()
    assert len(traces) == 1
    sealed = traces[0]
    assert isinstance(sealed, FinishedTrace)
    assert sealed.status == "completed"
    assert sealed.delivered_attempt == attempt
    assert sealed.root.span_id == root
    # Root covers submission to the last event.
    assert sealed.start_s == 0.0 and sealed.end_s == 2.5
    assert [s.name for s in sealed.children_of(attempt)] == [obs.EXECUTE]


def test_losing_hedge_attempt_keeps_trace_open_until_it_closes():
    recorder = TraceRecorder()
    recorder.begin_trace(1, 0.0, "sha256")
    winner = recorder.begin_attempt(1, 1.0, worker_id=0)
    loser = recorder.begin_attempt(1, 1.5, worker_id=1)
    recorder.mark_delivered(1, 2.0, attempt_id=winner)
    recorder.end_attempt(1, winner, 2.0)
    assert recorder.traces() == []  # the hedge is still running
    recorder.end_attempt(1, loser, 3.0, attrs={"outcome": "discarded"})
    (sealed,) = recorder.traces()
    attempts = sealed.attempts()
    assert len(attempts) == 2
    assert attempts[1].attrs["outcome"] == "discarded"
    assert sealed.end_s == 3.0


def test_begin_trace_twice_raises():
    recorder = TraceRecorder()
    recorder.begin_trace(1, 0.0, "sha256")
    with pytest.raises(ValueError):
        recorder.begin_trace(1, 1.0, "sha256")


def test_spans_for_unknown_trace_are_counted_not_fatal():
    recorder = TraceRecorder()
    assert recorder.span(99, obs.EXECUTE, 0.0, 1.0) is None
    assert recorder.begin_attempt(99, 0.0, worker_id=0) is None
    recorder.end_attempt(99, 1, 0.0)  # no-op
    recorder.mark_delivered(99, 0.0)  # no-op
    assert recorder.spans_dropped == 2


def test_drain_seals_in_flight_traces_as_open():
    recorder = TraceRecorder()
    recorder.begin_trace(1, 0.0, "sha256")
    recorder.begin_attempt(1, 1.0, worker_id=0)
    (sealed,) = recorder.drain()
    assert sealed.status == "open"
    assert not recorder._live


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sampling_edge_rates_do_not_draw():
    always = TraceRecorder(TraceConfig(sample_rate=1.0))
    never = TraceRecorder(TraceConfig(sample_rate=0.0))
    assert all(always.sample(i) for i in range(100))
    assert not any(never.sample(i) for i in range(100))


def test_sampling_is_deterministic_per_seed():
    def decisions(seed):
        recorder = TraceRecorder(
            TraceConfig(sample_rate=0.3),
            streams=RandomStreams(seed).spawn("obs"),
        )
        return [recorder.sample(i) for i in range(200)]

    a, b = decisions(11), decisions(11)
    assert a == b
    assert 0 < sum(a) < 200  # actually selective
    assert decisions(12) != a  # and seed-dependent


def test_null_recorder_is_all_noops():
    assert NULL_RECORDER.enabled is False
    assert NULL_RECORDER.sample(1) is False
    assert NULL_RECORDER.begin_trace(1, 0.0, "f") is None
    assert NULL_RECORDER.begin_attempt(1, 0.0, 0) is None
    assert NULL_RECORDER.span(1, "x", 0.0, 1.0) is None
    assert NULL_RECORDER.annotate(1, "x", 0.0) is None
    assert NULL_RECORDER.end_attempt(1, 1, 0.0) is None
    assert NULL_RECORDER.mark_delivered(1, 0.0) is None
    assert NULL_RECORDER.drain() == []


# ---------------------------------------------------------------------------
# Ring buffer: bounded memory under full sampling
# ---------------------------------------------------------------------------


def test_ring_buffer_bounds_retained_traces_and_counts_evictions():
    cluster = make_cluster(
        trace=TraceConfig(sample_rate=1.0, max_traces=8, boot_stages=False)
    )
    cluster.run_saturated(invocations_per_function=3)
    traces = cluster.finished_traces()
    tracer = cluster.tracer
    assert len(traces) == 8  # ring capacity, not run size
    assert tracer.traces_finished == 3 * 17
    assert tracer.traces_dropped == 3 * 17 - 8
    assert not tracer._live
    # The survivors are the newest traces (deque semantics).
    sealed_ids = [t.trace_id for t in traces]
    assert len(set(sealed_ids)) == 8


def test_partial_sampling_traces_a_strict_subset():
    cluster = make_cluster(
        trace=TraceConfig(sample_rate=0.4, boot_stages=False)
    )
    cluster.run_saturated(invocations_per_function=4)
    traces = cluster.finished_traces()
    submitted = len(cluster.orchestrator.jobs)
    assert 0 < len(traces) < submitted
    # Untraced jobs never got a trace id.
    traced_ids = {t.trace_id for t in traces}
    for job_id, job in cluster.orchestrator.jobs.items():
        if job_id in traced_ids:
            assert job.trace_id == job_id
        else:
            assert job.trace_id is None


# ---------------------------------------------------------------------------
# End-to-end span trees from a real run
# ---------------------------------------------------------------------------


def test_cluster_run_produces_full_span_trees():
    cluster = make_cluster(trace=TraceConfig())
    result = cluster.run_saturated(invocations_per_function=2)
    traces = cluster.finished_traces()
    assert len(traces) == result.jobs_completed == 2 * 17
    for sealed in traces:
        assert sealed.status == "completed"
        assert sealed.root.name == obs.ROOT
        assert sealed.find(obs.SUBMIT) and sealed.find(obs.ASSIGN)
        (attempt,) = sealed.attempts()
        child_names = {s.name for s in sealed.children_of(attempt.span_id)}
        assert {obs.INPUT_TRANSFER, obs.EXECUTE,
                obs.RESULT_TRANSFER} <= child_names
        # Every span sits inside the root's window.
        for span in sealed.spans:
            assert sealed.start_s <= span.start_s
            assert span.end_s <= sealed.end_s
        # The boot span carries per-stage children (boot_stages=True).
        boots = [s for s in sealed.children_of(attempt.span_id)
                 if s.name == obs.BOOT]
        if boots:
            stages = sealed.children_of(boots[0].span_id)
            assert stages
            assert all(
                s.name.startswith(obs.BOOT_STAGE_PREFIX) for s in stages
            )
            assert abs(
                sum(s.duration_s for s in stages) - boots[0].duration_s
            ) < 1e-9


def test_queue_wait_links_to_its_attempt():
    cluster = make_cluster(trace=TraceConfig())
    cluster.run_saturated(invocations_per_function=2)
    for sealed in cluster.finished_traces():
        attempts = {a.span_id for a in sealed.attempts()}
        waits = sealed.find(obs.QUEUE_WAIT)
        assert len(waits) == len(attempts)
        for wait in waits:
            assert wait.attrs["attempt_span"] in attempts


def test_merge_traces_orders_and_preserves_labels():
    a = TraceRecorder(label="alpha")
    b = TraceRecorder(label="beta")
    for recorder, start in ((a, 5.0), (b, 1.0)):
        recorder.begin_trace(0, start, "f")
        attempt = recorder.begin_attempt(0, start, worker_id=0)
        recorder.mark_delivered(0, start + 1.0, attempt_id=attempt)
        recorder.end_attempt(0, attempt, start + 1.0)
    merged = merge_traces([a, b])
    assert [t.label for t in merged] == ["beta", "alpha"]
    assert merged[0].start_s < merged[1].start_s


# ---------------------------------------------------------------------------
# Zero-cost-when-disabled: the headline pin
# ---------------------------------------------------------------------------


def test_default_cluster_uses_the_null_recorder():
    cluster = make_cluster()
    assert cluster.tracer is None
    assert cluster.orchestrator.tracer is NULL_RECORDER
    assert cluster.finished_traces() == []


def test_tracing_does_not_perturb_simulation_results():
    """Sampling draws from a spawned stream, so traced and untraced
    runs of the same seed are bit-identical — at any sample rate."""
    baseline = make_cluster().run_saturated(invocations_per_function=2)
    for rate in (0.0, 0.5, 1.0):
        traced = make_cluster(
            trace=TraceConfig(sample_rate=rate)
        ).run_saturated(invocations_per_function=2)
        assert traced.duration_s == baseline.duration_s
        assert traced.energy_joules == baseline.energy_joules
        assert traced.jobs_completed == baseline.jobs_completed


def test_conventional_cluster_traces_too():
    cluster = ConventionalCluster(
        vm_count=3, seed=3, policy=LeastLoadedPolicy(), trace=TraceConfig()
    )
    result = cluster.run_saturated(invocations_per_function=2)
    traces = cluster.finished_traces()
    assert len(traces) == result.jobs_completed
    assert all(t.label == "conventional" for t in traces)
    for sealed in traces:
        (attempt,) = sealed.attempts()
        names = {s.name for s in sealed.children_of(attempt.span_id)}
        assert obs.EXECUTE in names


# ---------------------------------------------------------------------------
# Span rows: recorded as tuples, built into Span objects on read
# ---------------------------------------------------------------------------


def observed_shaped_run(recovery, chaos_scale, rounds=6, fanout=8):
    """A small closed-loop SDK run with the energy ledger, recovery, a
    sampled chaos plan (board, link, switch and backend faults) and
    full-rate tracing into a 16-trace ring."""
    workers = 8
    cluster = MicroFaaSCluster(
        worker_count=workers,
        seed=1,
        policy=LeastLoadedPolicy(),
        recovery=recovery,
        trace=TraceConfig(sample_rate=1.0, max_traces=16),
    )
    cluster.enable_energy_ledger()
    plan = ChaosPlan.sample(
        ChaosProfile(scale=chaos_scale),
        worker_count=workers,
        horizon_s=120.0,
        streams=cluster.streams.spawn("chaos"),
        switch_count=len(cluster.switches),
    )
    ChaosEngine(cluster).apply(plan)
    client = FunctionExecutor(cluster)
    rng = random.Random(3)
    for _ in range(rounds):
        client.wait(client.map(
            [rng.choice(ALL_FUNCTION_NAMES) for _ in range(fanout)]
        ))
    return cluster


def relabelled_chrome_trace(traces):
    """The exported Chrome trace with span ids renumbered canonically.

    Span ids count spans in the order they are written, which depends on
    when a worker writes its phase spans.  Relabelling ``span_id``,
    ``parent_id`` and ``attempt_span`` in sorted (trace, start, end,
    name, worker) order leaves every name, endpoint, worker, attribute
    and tree edge in the document, and nothing of the write order.
    """
    spans = [span for trace in traces for span in trace.spans]
    keys = sorted(
        ((span.trace_id, span.start_s, span.end_s, span.name,
          -1 if span.worker_id is None else span.worker_id), span.span_id)
        for span in spans
    )
    assert len({key for key, _ in keys}) == len(keys), "ambiguous relabel"
    label = {span_id: index for index, (_, span_id) in enumerate(keys, 1)}
    events = chrome_trace_events(traces)
    body = [event for event in events if event["ph"] != "M"]
    for event in body:
        args = event["args"]
        args["span_id"] = label[args["span_id"]]
        if args["parent_id"] is not None:
            args["parent_id"] = label[args["parent_id"]]
        if "attempt_span" in args:
            args["attempt_span"] = label[args["attempt_span"]]
    body.sort(key=lambda event: (event["ts"], event["args"]["span_id"]))
    return body + [event for event in events if event["ph"] == "M"]


@pytest.mark.parametrize(
    "recovery,chaos_scale,digest",
    [
        # Crash resubmissions and boot failures.
        (RecoveryPolicy(), 2.0,
         "a5e57e6c50af8175a9e2fc23c7a34ba6f0a8a8747e203fad39c21b019e9359b2"),
        # Hedges, a timeout retry and duplicate completions.
        (RecoveryPolicy(hedge_after_s=2.0, attempt_timeout_s=6.0), 1.0,
         "93a956832283d43591a3a78c8c95811c7f89266519e2575e80371018d5aeb25c"),
    ],
)
def test_observed_shaped_chrome_trace_matches_recorded_digest(
    recovery, chaos_scale, digest
):
    """Pinned from the worker that wrote each phase span as the phase
    ended, relabelled: booked jobs, which write theirs when they end,
    must export the same spans."""
    cluster = observed_shaped_run(recovery, chaos_scale)
    assert cluster.tracer.traces_dropped > 0
    document = json.dumps(
        {"traceEvents": relabelled_chrome_trace(cluster.finished_traces())},
        sort_keys=True,
    )
    assert hashlib.sha256(document.encode()).hexdigest() == digest


def span_fields(trace):
    return [span.as_dict() for span in trace.spans]


def test_finished_trace_pickle_round_trip():
    cluster = observed_shaped_run(
        RecoveryPolicy(hedge_after_s=2.0, attempt_timeout_s=6.0), 1.0,
        rounds=2,
    )
    traces = cluster.finished_traces()
    assert traces
    for index, trace in enumerate(traces):
        if index % 2:
            trace.spans  # built before pickling, or not
        copy = pickle.loads(pickle.dumps(trace))
        for field in ("trace_id", "function", "label", "status",
                      "delivered_attempt", "start_s", "end_s"):
            assert getattr(copy, field) == getattr(trace, field)
        assert span_fields(copy) == span_fields(trace)
        assert copy.root.span_id == trace.root.span_id


def test_spans_are_built_on_first_read_only():
    cluster = make_cluster(trace=TraceConfig(max_traces=4))
    cluster.run_saturated(invocations_per_function=1)
    ring = list(cluster.tracer.finished)
    assert all(trace._spans is None for trace in ring)
    merge_traces([cluster.tracer])  # sorts by start_s: reads rows only
    assert all(trace._spans is None for trace in ring)
    spans = ring[0].spans
    assert ring[0].spans is spans
    assert isinstance(spans[0], Span) and spans[0] is ring[0].root


def test_built_spans_replace_the_rows():
    cluster = make_cluster(trace=TraceConfig(max_traces=4))
    cluster.run_saturated(invocations_per_function=1)
    trace = cluster.tracer.traces()[0]
    start_s, end_s = trace.start_s, trace.end_s
    shipped = pickle.dumps(trace)
    spans = trace.spans
    assert trace._rows is None
    assert (trace.start_s, trace.end_s) == (start_s, end_s)
    assert (spans[0].start_s, spans[0].end_s) == (start_s, end_s)
    assert pickle.dumps(trace) == shipped
    assert span_fields(pickle.loads(shipped)) == span_fields(trace)


def test_end_attempt_patches_its_row_in_place():
    recorder = TraceRecorder()
    recorder.begin_trace(1, 0.0, "f")
    first = recorder.begin_attempt(1, 1.0, worker_id=0, attrs={"a": 1})
    second = recorder.begin_attempt(1, 1.5, worker_id=1)
    recorder.span(1, obs.EXECUTE, 1.0, 2.0, parent_id=first, worker_id=0)
    recorder.end_attempt(1, second, 4.0, attrs={"outcome": "crashed"})
    recorder.mark_delivered(1, 3.0, attempt_id=first)
    recorder.end_attempt(1, first, 3.5, attrs={"b": 2})
    (sealed,) = recorder.traces()
    attempts = {span.span_id: span for span in sealed.attempts()}
    assert (attempts[first].end_s, attempts[first].attrs) == (
        3.5, {"a": 1, "b": 2}
    )
    assert (attempts[second].end_s, attempts[second].attrs) == (
        4.0, {"outcome": "crashed"}
    )
    assert sealed.end_s == sealed.root.end_s == 4.0
