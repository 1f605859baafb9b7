"""Critical-path analysis reconciled against the telemetry collector.

The acceptance bar for the tracing subsystem: the per-function
working/overhead means recomputed from span trees must agree with
:class:`TelemetryCollector`'s Fig. 3 split to 1e-9 on the headline
run's clusters — the spans are emitted from the same timestamp
variables, so the gap is float-addition noise, not modelling error.
"""

from repro.cluster import ConventionalCluster, MicroFaaSCluster
from repro.core.scheduler import LeastLoadedPolicy
from repro.experiments import headline
from repro.obs.critical_path import (
    analyze,
    analyze_all,
    max_reconciliation_gap,
    reconcile,
)
from repro.obs.trace import TraceConfig


def traced_run(cluster, invocations_per_function):
    result = cluster.run_saturated(
        invocations_per_function=invocations_per_function
    )
    return result, cluster.finished_traces()


def test_critical_path_segments_sum_to_latency():
    cluster = MicroFaaSCluster(
        worker_count=4, seed=7, policy=LeastLoadedPolicy(),
        trace=TraceConfig(),
    )
    _, traces = traced_run(cluster, 2)
    paths = analyze_all(traces)
    assert len(paths) == len(traces)
    for path in paths:
        assert path.latency_s > 0
        assert path.working_s > 0
        # The delivering attempt's segments tile submission → result.
        assert abs(path.unattributed_s) < 1e-9
        assert path.overhead_s == (
            path.input_transfer_s + path.result_transfer_s
        )
        assert path.attempt_count >= 1
        assert 0 <= path.attempt_index < path.attempt_count


def test_critical_path_matches_telemetry_record_per_job():
    cluster = MicroFaaSCluster(
        worker_count=4, seed=7, policy=LeastLoadedPolicy(),
        trace=TraceConfig(),
    )
    _, traces = traced_run(cluster, 2)
    records = {r.job_id: r for r in cluster.orchestrator.telemetry.records}
    for trace in traces:
        path = analyze(trace)
        record = records[trace.trace_id]
        # Bit-for-bit: the spans reuse the worker's own timestamps.
        assert path.working_s == record.working_s
        assert path.overhead_s == record.overhead_s
        assert path.worker_id == record.worker_id
        assert path.queue_wait_s == record.queue_wait_s


def test_analyze_returns_none_without_a_delivered_attempt():
    from repro.obs.trace import TraceRecorder

    recorder = TraceRecorder()
    recorder.begin_trace(1, 0.0, "sha256")
    recorder.begin_attempt(1, 1.0, worker_id=0)
    (open_trace,) = recorder.drain()
    assert open_trace.status == "open"
    assert analyze(open_trace) is None


# ---------------------------------------------------------------------------
# The 1e-9 headline reconciliation (the PR's acceptance bar)
# ---------------------------------------------------------------------------


def test_headline_reconciliation_microfaas_below_1e9():
    cluster = MicroFaaSCluster(
        worker_count=10, seed=1, policy=LeastLoadedPolicy(),
        trace=TraceConfig(max_traces=1024),
    )
    _, traces = traced_run(cluster, 30)
    reconciliations = reconcile(traces, cluster.orchestrator.telemetry)
    assert len(reconciliations) == 17
    assert all(
        r.count_traces == r.count_records for r in reconciliations.values()
    )
    assert max_reconciliation_gap(reconciliations) <= 1e-9


def test_headline_reconciliation_conventional_below_1e9():
    cluster = ConventionalCluster(
        vm_count=6, seed=1, policy=LeastLoadedPolicy(),
        trace=TraceConfig(max_traces=1024),
    )
    _, traces = traced_run(cluster, 30)
    reconciliations = reconcile(traces, cluster.orchestrator.telemetry)
    assert len(reconciliations) == 17
    assert all(
        r.count_traces == r.count_records for r in reconciliations.values()
    )
    assert max_reconciliation_gap(reconciliations) <= 1e-9


def test_headline_numbers_unchanged_with_tracing_enabled(tmp_path):
    """The zero-cost pin, traced edition: running the headline with the
    recorder enabled reproduces the seed's exact numbers (the untraced
    pin lives in test_fastpath.py) and writes a valid trace."""
    trace_path = str(tmp_path / "headline.json")
    result = headline.run(
        invocations_per_function=30, trace_path=trace_path
    )
    assert result.microfaas.throughput_per_min == 198.91024488371775
    assert result.conventional.throughput_per_min == 210.63421280389312
    assert result.microfaas.joules_per_function == 5.68976562485388
    assert result.conventional.joules_per_function == 31.981347387759136
    from repro.obs.export import validate_chrome_trace_file

    assert validate_chrome_trace_file(trace_path) == []


def test_partial_sampling_reconciliation_reports_count_mismatch():
    cluster = MicroFaaSCluster(
        worker_count=4, seed=7, policy=LeastLoadedPolicy(),
        trace=TraceConfig(sample_rate=0.5, boot_stages=False),
    )
    _, traces = traced_run(cluster, 4)
    reconciliations = reconcile(traces, cluster.orchestrator.telemetry)
    assert any(
        r.count_traces != r.count_records
        for r in reconciliations.values()
    )
