"""Tests for the SBC:VM mix sweep experiment."""

import csv
import json

import pytest

from repro.experiments import hybrid_study
from repro.experiments.report import write_tables

STUDY_KWARGS = dict(mixes=((2, 0), (1, 1), (0, 2)), invocations_per_function=2)


def test_sweep_reports_per_platform_splits():
    result = hybrid_study.run(**STUDY_KWARGS)
    assert len(result.points) == 3
    sbc_only, mixed, vm_only = result.points
    for point in result.points:
        assert point.jobs_completed == 34
        assert point.arm_jobs + point.x86_jobs == point.jobs_completed
    assert sbc_only.x86_jobs == 0
    assert sbc_only.x86_energy_joules == 0.0
    assert sbc_only.x86_p99_latency_s is None
    assert vm_only.arm_jobs == 0
    assert vm_only.arm_p99_latency_s is None
    assert mixed.arm_jobs > 0 and mixed.x86_jobs > 0
    assert mixed.arm_energy_joules > 0 and mixed.x86_energy_joules > 0
    # SBC-only is the efficiency end of the spectrum.
    assert result.best_joules_per_function() is sbc_only
    assert sbc_only.predicted_throughput_per_min == pytest.approx(
        2 * 200.6 / 10, abs=0.5
    )


def test_parallel_and_cache_identical_to_serial():
    serial = hybrid_study.run(jobs=1, **STUDY_KWARGS)
    parallel = hybrid_study.run(jobs=2, **STUDY_KWARGS)
    assert serial.points == parallel.points


def test_jobs_4_identical_to_jobs_1():
    """``--jobs 1`` and ``--jobs 4`` give bit-identical points."""
    kwargs = dict(
        mixes=((4, 0), (2, 2), (0, 3)),
        invocations_per_function=2,
    )
    serial = hybrid_study.run(jobs=1, **kwargs)
    parallel = hybrid_study.run(jobs=4, **kwargs)
    assert serial.points == parallel.points


def test_validation():
    with pytest.raises(ValueError):
        hybrid_study.run(mixes=())
    with pytest.raises(ValueError):
        hybrid_study.run(mixes=((1, -1),))
    with pytest.raises(ValueError):
        hybrid_study.run(mixes=((0, 0),))
    with pytest.raises(ValueError):
        hybrid_study.run(invocations_per_function=0)


def test_render_mentions_best_mixes():
    result = hybrid_study.run(**STUDY_KWARGS)
    text = hybrid_study.render(result)
    assert "SBC:VM mix sweep" in text
    assert "most efficient mix" in text
    assert "fastest mix" in text


def test_trace_path_writes_platform_tagged_spans(tmp_path):
    trace_path = tmp_path / "hybrid_trace.json"
    hybrid_study.run(trace_path=str(trace_path), **STUDY_KWARGS)
    events = json.loads(trace_path.read_text())["traceEvents"]
    platforms = {
        e["args"]["platform"]
        for e in events
        if e.get("name") == "attempt" and "platform" in e.get("args", {})
    }
    assert platforms == {"arm", "x86"}


def test_csv_export_schema(tmp_path):
    [path] = write_tables(
        str(tmp_path),
        hybrid_study.tables(hybrid_study.run(invocations_per_function=2)),
    )
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "sbc_count", "vm_count", "workers", "jobs", "duration_s",
        "func_per_min", "predicted_func_per_min", "energy_joules",
        "joules_per_function", "arm_jobs", "x86_jobs", "arm_energy_joules",
        "x86_energy_joules", "arm_p99_latency_s", "x86_p99_latency_s",
    ]
    assert len(rows) == 1 + len(hybrid_study.DEFAULT_MIXES)
    # The pure-SBC row has no x86 p99 to report.
    sbc_only = rows[1]
    assert sbc_only[0] == "10" and sbc_only[1] == "0"
    assert sbc_only[-1] == ""
