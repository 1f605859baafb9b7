"""Tests for the federation sweep experiment and its CSV export."""

import csv
import json

import pytest

from repro.experiments import federation_study
from repro.experiments.report import write_tables
from repro.obs.export import validate_chrome_trace_file

# A small sweep: one faultless and one faulty point, short horizon.
STUDY_KWARGS = dict(
    user_counts=(100_000,),
    region_counts=(3,),
    outage_rate_scales=(0.0, 2.0),
    duration_s=40.0,
    seed=7,
)


def test_sweep_loses_nothing_and_reconciles():
    result = federation_study.run(**STUDY_KWARGS)
    assert len(result.points) == 2
    clean, faulty = result.points
    assert result.total_jobs_lost == 0
    for point in result.points:
        assert point.jobs_submitted > 0
        assert (
            point.jobs_delivered + point.jobs_shed == point.jobs_submitted
        )
        assert point.region_count == 3
        assert len(point.regions) == 3
        assert len(point.geo_latency) == 3
        assert point.worst_p99_s >= point.median_p50_s > 0
        assert point.energy_joules > 0
    assert clean.outage_rate_scale == 0.0
    assert clean.outages == 0
    assert clean.mean_recovery_s is None


def test_workers_scale_with_population():
    small = federation_study.FederationStudyTask(100_000, 3, 0.0, 60.0, 1)
    large = federation_study.FederationStudyTask(10_000_000, 3, 0.0, 60.0, 1)
    assert large.workers_per_region > small.workers_per_region
    assert abs(large.rate_per_s - 100.0) < 1e-9
    # 100 func/s at 1/3 func/s-worker and 60% utilization over 3 regions.
    assert large.workers_per_region == 167


@pytest.mark.parametrize(
    "kwargs, jobs",
    [
        (STUDY_KWARGS, 2),
        (
            dict(
                user_counts=(100_000,),
                outage_rate_scales=(0.0, 2.0),
                duration_s=40.0,
            ),
            4,
        ),
    ],
    ids=["seed7-jobs2", "default-seed-jobs4"],
)
def test_parallel_identical_to_serial(kwargs, jobs):
    serial = federation_study.run(jobs=1, **kwargs)
    parallel = federation_study.run(jobs=jobs, **kwargs)
    assert serial.points == parallel.points


def test_validation():
    import pytest

    with pytest.raises(ValueError):
        federation_study.run(duration_s=0)


def test_render_reports_the_invariant():
    result = federation_study.run(**STUDY_KWARGS)
    text = federation_study.render(result)
    assert "Federation study" in text
    assert "delivered exactly once" in text
    assert "WARNING" not in text


def test_trace_path_writes_validator_clean_trace(tmp_path):
    trace_path = tmp_path / "federation_trace.json"
    federation_study.run(trace_path=str(trace_path), **STUDY_KWARGS)
    assert validate_chrome_trace_file(str(trace_path)) == []
    events = json.loads(trace_path.read_text())["traceEvents"]
    # Per-region merged traces: process names carry the region labels.
    names = {
        e["args"]["name"]
        for e in events
        if e.get("name") == "process_name"
    }
    assert {"region-0", "region-1", "region-2"} <= names


def test_csv_export_schema(tmp_path):
    result = federation_study.run(user_counts=(100_000,), duration_s=30.0)
    [path] = write_tables(str(tmp_path), federation_study.tables(result))
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "users", "region_count", "outage_rate_scale", "region", "workers",
        "jobs_in", "jobs_delivered", "jobs_lost", "goodput_per_min",
        "worst_p99_s", "outages", "mean_recovery_s", "cross_region_jobs",
        "cross_region_bytes", "energy_joules", "joules_per_function",
    ]
    # Default outage scales (0.0, 1.0) x 3 regions + an ALL row each.
    assert len(rows) == 1 + 2 * 4
    all_rows = [r for r in rows[1:] if r[3] == "ALL"]
    assert len(all_rows) == 2
    for row in all_rows:
        assert row[7] == "0"  # jobs_lost
