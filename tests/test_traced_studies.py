"""Traced == untraced for every study that honours ``--trace``.

Each study records spans at its chosen point inside the sweep (see
:func:`repro.experiments.runner.map_traced`), so a traced run must
return the untraced run's result, and the trace file must not depend on
how many processes computed the points.
"""

from dataclasses import replace
from unittest import mock

import pytest

from repro.experiments import (
    energy_study,
    fault_study,
    federation_study,
    headline,
    hybrid_study,
    megatrace,
    runner,
    sdk_study,
)
from repro.obs.export import validate_chrome_trace_file


def _headline_view(result):
    # ClusterResult holds its TelemetryCollector, which compares by
    # identity: compare the records instead.
    return tuple(
        (replace(side, telemetry=None), side.telemetry.records)
        for side in (result.microfaas, result.conventional)
    )


def _megatrace_view(result):
    # Wall-clock and RSS are measurements of the host; the trace
    # counters are what tracing adds.
    return replace(
        result,
        wall_clock_s=0.0,
        peak_rss_mib=0.0,
        traces_finished=0,
        traces_dropped=0,
        traces_exported=0,
    )


def _megatrace(shards):
    def run(jobs=1, trace_path=None):
        kwargs = dict(
            invocations=400,
            worker_count=8,
            seed=3,
            shards=shards,
            trace_path=trace_path,
            trace_sample_rate=0.25,
            trace_max=32,
        )
        if jobs > 1:
            return megatrace.run(**kwargs)
        # megatrace runs one process per partition; jobs=1 keeps every
        # partition in this process.
        with mock.patch.object(
            megatrace,
            "map_traced",
            lambda tasks, fn, jobs, trace_path: runner.map_traced(
                tasks, fn, jobs=1, trace_path=trace_path
            ),
        ):
            return megatrace.run(**kwargs)

    return run


def _study(module, **kwargs):
    return lambda jobs=1, trace_path=None: module.run(
        jobs=jobs, trace_path=trace_path, **kwargs
    )


HYBRID = dict(mixes=((2, 0), (1, 1)), invocations_per_function=2)
ENERGY = dict(caps=(None, 1.0), budget_scales=(2.0, 0.5), duration_s=60.0)

CASES = {
    "headline": (_study(headline, invocations_per_function=2), _headline_view),
    "fault": (
        _study(
            fault_study,
            fault_rate_scales=(0.0, 2.0),
            worker_count=4,
            invocations_per_function=1,
        ),
        None,
    ),
    "sdk": (
        _study(
            sdk_study,
            user_counts=(1,),
            fanouts=(4,),
            kinds=("microfaas", "hybrid"),
        ),
        None,
    ),
    "federation": (
        _study(
            federation_study,
            user_counts=(100_000,),
            region_counts=(3,),
            outage_rate_scales=(0.0, 2.0),
            duration_s=40.0,
            seed=7,
        ),
        None,
    ),
    "hybrid": (_study(hybrid_study, **HYBRID), None),
    "hybrid-shards2": (_study(hybrid_study, shards=2, **HYBRID), None),
    "energy": (_study(energy_study, **ENERGY), None),
    "energy-shards2": (_study(energy_study, shards=2, **ENERGY), None),
    "megatrace-shards1": (_megatrace(1), _megatrace_view),
    "megatrace-shards2": (_megatrace(2), _megatrace_view),
}


@pytest.mark.parametrize("case", list(CASES))
def test_traced_run_matches_untraced_and_any_jobs(case, tmp_path):
    run, view = CASES[case]
    view = view or (lambda result: result)
    serial_path = tmp_path / "jobs1.json"
    parallel_path = tmp_path / "jobs2.json"

    untraced = run()
    traced = run(trace_path=str(serial_path))
    run(jobs=2, trace_path=str(parallel_path))

    assert view(traced) == view(untraced)
    assert validate_chrome_trace_file(str(serial_path)) == []
    assert serial_path.read_bytes() == parallel_path.read_bytes()
    if case.startswith("megatrace"):
        assert traced.traces_exported > 0
        assert untraced.traces_exported == 0
