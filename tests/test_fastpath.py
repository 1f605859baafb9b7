"""Tests for the large-run fast path.

Covers the streaming telemetry contract (means bit-identical to exact
mode, sketch quantiles within their documented error bound, bounded
state), the sort-once discipline of the exact percentile paths, the
batched trace generators' recorded outputs, the megatrace experiment, the
module-level PROFILES hoisting in the scale study, and the headline
bit-identity pin the whole refactor must preserve.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import telemetry
from repro.core.telemetry import (
    InvocationRecord,
    QuantileSketch,
    TelemetryCollector,
    percentiles,
)
from repro.experiments import headline, megatrace, scale_study
from repro.sim.rng import RandomStreams
from repro.workloads.profiles import PROFILES
from repro.workloads.traces import (
    ChunkedPoissonTrace,
    ColumnarTrace,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
)


def _record(
    i: int,
    function: str = "sha256",
    queued: float = 0.0,
    started: float = 1.0,
    completed: float = 3.0,
    working: float = 1.5,
    overhead: float = 0.5,
) -> InvocationRecord:
    return InvocationRecord(
        job_id=i,
        function=function,
        worker_id=i % 4,
        platform="arm",
        t_queued=queued,
        t_started=started,
        t_completed=completed,
        boot_s=0.5,
        working_s=working,
        overhead_s=overhead,
    )


def _sketch_rank_quantile(values, p):
    """The true quantile under the sketch's own rank convention
    (1-based ``max(1, ceil(p/100 * n))``) — what its error bound is
    stated against."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _fill_pair(latencies):
    """Feed one synthetic record stream into an exact and a streaming
    collector; latency == the supplied value, queue wait == half of it."""
    exact = TelemetryCollector(exact=True)
    streaming = TelemetryCollector(exact=False)
    for i, latency in enumerate(latencies):
        queued = float(i)
        record = _record(
            i,
            function="sha256" if i % 2 == 0 else "dd",
            queued=queued,
            started=queued + latency / 2,
            completed=queued + latency,
            working=latency / 3,
            overhead=latency / 6,
        )
        exact.record(record)
        streaming.record(record)
    return exact, streaming


# -- streaming == exact -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        min_size=2,
        max_size=200,
    )
)
def test_property_streaming_matches_exact(latencies):
    exact, streaming = _fill_pair(latencies)
    # Means and counts: same IEEE additions in the same order -> the
    # 1e-9 contract is met with room to spare (they are bit-identical).
    assert streaming.count == exact.count
    assert abs(streaming.mean_latency_s() - exact.mean_latency_s()) <= 1e-9
    assert (
        abs(streaming.mean_queue_wait_s() - exact.mean_queue_wait_s()) <= 1e-9
    )
    assert abs(streaming.mean_cycle_s() - exact.mean_cycle_s()) <= 1e-9
    assert streaming.first_start() == exact.first_start()
    assert streaming.last_completion() == exact.last_completion()
    assert (
        abs(streaming.throughput_per_min() - exact.throughput_per_min())
        <= 1e-9
    )
    for name in exact.functions_seen:
        e = exact.function_stats(name)
        s = streaming.function_stats(name)
        assert s.count == e.count
        assert abs(s.mean_working_s - e.mean_working_s) <= 1e-9
        assert abs(s.mean_overhead_s - e.mean_overhead_s) <= 1e-9
        assert abs(s.mean_runtime_s - e.mean_runtime_s) <= 1e-9
    # Tail quantiles: the sketch guarantees relative error <= sqrt(gamma)-1
    # against the true nearest-rank quantile.
    bound = streaming._latency_sketch.relative_error_bound
    for p in (95.0, 99.0):
        truth = _sketch_rank_quantile(latencies, p)
        estimate = streaming.percentile_latency_s(p)
        assert abs(estimate - truth) <= bound * truth + 1e-12


def test_streaming_collector_state_is_bounded():
    _, streaming = _fill_pair([0.5 + (i % 7) * 0.1 for i in range(5000)])
    assert streaming.records == []  # no per-record growth
    assert streaming._latency_sketch.bucket_count < 2000


def test_streaming_mode_refuses_per_record_queries():
    _, streaming = _fill_pair([1.0, 2.0, 3.0])
    with pytest.raises(RuntimeError, match="streaming"):
        streaming.end_to_end_latencies_s()
    with pytest.raises(RuntimeError, match="streaming"):
        streaming.throughput_per_min(start=0.0, end=1.0)


def test_streaming_slo_attainment_matches_exact_coarsely():
    exact, streaming = _fill_pair([0.5, 1.0, 2.0, 4.0, 8.0] * 20)
    truth = exact.slo_attainment(2.5)
    estimate = streaming.slo_attainment(2.5)
    assert abs(estimate - truth) <= 0.05


# -- the quantile sketch ------------------------------------------------------


def test_sketch_error_bound_holds_across_magnitudes():
    sketch = QuantileSketch()
    values = [10.0 ** (i % 7 - 3) * (1 + (i % 13) / 13) for i in range(999)]
    for value in values:
        sketch.add(value)
    for p in (50.0, 90.0, 95.0, 99.0, 100.0):
        truth = _sketch_rank_quantile(values, p)
        estimate = sketch.quantile(p)
        assert abs(estimate - truth) <= sketch.relative_error_bound * truth


def test_sketch_merge_equals_single_sketch():
    left, right, combined = QuantileSketch(), QuantileSketch(), QuantileSketch()
    for i in range(500):
        value = 0.01 + (i % 91) * 0.37
        (left if i % 2 == 0 else right).add(value)
        combined.add(value)
    left.merge(right)
    assert left.count == combined.count
    for p in (50.0, 95.0, 99.0):
        assert left.quantile(p) == combined.quantile(p)


def test_sketch_merge_rejects_mismatched_geometry():
    with pytest.raises(ValueError, match="geometry"):
        QuantileSketch(gamma=1.02).merge(QuantileSketch(gamma=1.05))


# -- sort-once discipline -----------------------------------------------------


def test_one_sort_per_series_per_aggregate_pass():
    exact, _ = _fill_pair([0.5 + i * 0.01 for i in range(100)])
    before = telemetry.SORT_COUNT
    # A full aggregate pass: several quantiles of several series, each
    # series queried more than once.
    exact.percentile_latency_s(95)
    exact.percentile_latency_s(99)
    exact.percentile_latency_s(50)
    exact.percentile_queue_wait_s(95)
    exact.percentile_queue_wait_s(99)
    exact.all_function_stats()
    exact.all_function_stats()
    # Exactly one sort per distinct series: latency, queue wait, and one
    # runtime series per function (two functions in the fixture stream).
    assert telemetry.SORT_COUNT - before == 4


def test_sorted_cache_invalidated_by_new_records():
    exact, _ = _fill_pair([1.0, 2.0, 3.0])
    exact.percentile_latency_s(99)
    before = telemetry.SORT_COUNT
    exact.record(_record(99, queued=50.0, started=51.0, completed=52.0))
    exact.percentile_latency_s(99)
    assert telemetry.SORT_COUNT - before == 1  # re-sorted once, not zero


def test_percentiles_helper_sorts_once_for_many_quantiles():
    values = [float(i % 37) for i in range(200)]
    before = telemetry.SORT_COUNT
    linear = percentiles(values, [50, 90, 95, 99])
    assert telemetry.SORT_COUNT - before == 1
    assert linear == sorted(linear)
    # Nearest-rank mode preserves the fault study's historical formula.
    ordered = sorted(values)
    for p in (0, 50, 99, 100):
        index = min(len(values) - 1, max(0, round(p / 100 * (len(values) - 1))))
        assert percentiles(values, [p], method="nearest")[0] == ordered[index]
    with pytest.raises(ValueError, match="method"):
        percentiles(values, [50], method="cubic")


# -- batched / columnar traces ------------------------------------------------


#: sha256 of ``repr(list(trace.iter_pairs()))`` and the arrival count
#: for each generator below.  Recorded when every generator could also
#: return a tuple of per-event objects; both forms gave these digests.
RECORDED_TRACE_DIGESTS = {
    "poisson": (
        176, "4585838a86680fb4befe659037b4e591f5617e32fac6d6531f4485ac590e3299"
    ),
    "diurnal": (
        824, "409a38aba2b1c4944aef16c635ebdadab888e0e519f2598fe3b58e907ac2fcfd"
    ),
    "bursty": (
        950, "8ee00069bc1c2f5bdf5a0900e98fd65ea9568fbd63ef5eab98ff4621f5361f17"
    ),
}


def _generators():
    streams = lambda: RandomStreams(11)  # noqa: E731
    yield "poisson", poisson_trace(3.0, 60.0, streams=streams())
    yield "diurnal", diurnal_trace(1.0, 6.0, 120.0, 240.0, streams=streams())
    yield "bursty", bursty_trace(0.5, 8.0, 10.0, 20.0, 240.0, streams=streams())


def test_columnar_traces_match_row_wise_traces():
    for name, trace in _generators():
        assert isinstance(trace, ColumnarTrace)
        pairs = list(trace.iter_pairs())
        digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
        assert (len(pairs), digest) == RECORDED_TRACE_DIGESTS[name], name


def test_replay_is_identical_for_both_trace_layouts():
    from repro.cluster import MicroFaaSCluster
    from repro.cluster.replay import replay_trace
    from repro.core.scheduler import LeastLoadedPolicy

    results = []
    for trace in (
        poisson_trace(1.5, 120.0, streams=RandomStreams(5)),
        ChunkedPoissonTrace(rate_per_s=1.5, duration_s=120.0, seed=5),
    ):
        cluster = MicroFaaSCluster(
            worker_count=6, seed=5, policy=LeastLoadedPolicy()
        )
        results.append(replay_trace(cluster, trace))
    cols, chunked = results
    assert cols.jobs_completed == chunked.jobs_completed
    assert cols.duration_s == chunked.duration_s
    assert cols.throughput_per_min == chunked.throughput_per_min
    assert cols.energy_joules == chunked.energy_joules


# -- megatrace ----------------------------------------------------------------


def test_megatrace_smoke_is_bounded_and_complete():
    result = megatrace.run(invocations=2000, worker_count=16)
    assert abs(result.invocations - 2000) / 2000 < 0.1
    assert result.records_retained == 0
    assert result.sketch_buckets < 2000
    assert result.throughput_per_min > 0
    assert 0 < result.mean_latency_s < result.p99_latency_s * 1.01
    assert result.joules_per_function > 0
    assert result.events_per_wall_s > 0
    rendered = megatrace.render(result)
    assert "invocations replayed" in rendered
    assert "sketch telemetry" in rendered


def test_megatrace_validation():
    with pytest.raises(ValueError):
        megatrace.run(invocations=0)
    with pytest.raises(ValueError):
        megatrace.run(invocations=10, worker_count=0)
    with pytest.raises(ValueError):
        megatrace.run(invocations=10, utilization=1.5)


# -- scale frontier -----------------------------------------------------------


def test_profiles_import_is_module_level():
    # The satellite fix: op_link_utilization must not re-import PROFILES
    # per call.
    assert scale_study.PROFILES is PROFILES


def test_op_link_utilization_math_at_frontier_point():
    result = scale_study.ScaleStudyResult(
        points=[], control_plane=scale_study.ControlPlaneModel()
    )
    # At 5,000 workers the OP ceiling caps throughput; check the GigE
    # math at exactly that operating point against a hand computation.
    ceiling = result.control_plane_ceiling_per_min
    mean_payload = sum(
        p.input_bytes + p.output_bytes for p in PROFILES.values()
    ) / len(PROFILES)
    expected = (ceiling / 60.0) * mean_payload * 8 / 940e6
    assert result.op_link_utilization(ceiling) == pytest.approx(expected)
    # The paper-scale conclusion: even saturated, the OP's GigE link is
    # nowhere near the bottleneck.
    assert result.op_link_utilization(ceiling) < 0.05
    assert scale_study.FRONTIER_WORKER_COUNTS[-1] == 5000


def test_frontier_tasks_always_stream(monkeypatch):
    built = []

    def capture(tasks, fn, jobs=None):
        built.extend(tasks)
        return []

    monkeypatch.setattr(scale_study, "run_map", capture)
    scale_study.run_frontier(
        worker_counts=(
            *scale_study.FRONTIER_WORKER_COUNTS,
            scale_study.FRONTIER_LIMIT_WORKER_COUNT,
        ),
        shards=2,
    )
    assert [t.worker_count for t in built] == [
        *scale_study.FRONTIER_WORKER_COUNTS,
        scale_study.FRONTIER_LIMIT_WORKER_COUNT,
    ]
    assert all(t.streaming_telemetry for t in built)
    assert all(t.shards == 2 for t in built)


# -- the headline pin ---------------------------------------------------------


def test_headline_numbers_are_bit_identical_to_the_seed():
    result = headline.run(invocations_per_function=30, jobs=1)
    assert result.microfaas.throughput_per_min == 198.91024488371775
    assert result.conventional.throughput_per_min == 210.63421280389312
    assert result.microfaas.joules_per_function == 5.68976562485388
    assert result.conventional.joules_per_function == 31.981347387759136
