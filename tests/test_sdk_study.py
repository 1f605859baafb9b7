"""The SDK study: sweep mechanics, determinism, trace/CSV surfaces."""

import csv
import json
import os

import pytest

from repro.experiments import sdk_study
from repro.experiments.report import write_tables
from repro.obs.export import validate_chrome_trace_file


def tiny_run(**kwargs):
    defaults = dict(
        user_counts=(1,), fanouts=(4,), kinds=("microfaas",)
    )
    defaults.update(kwargs)
    return sdk_study.run(**defaults)


def test_points_cover_the_cross_product():
    result = tiny_run(user_counts=(1, 2), kinds=("microfaas", "hybrid"))
    assert len(result.points) == 4
    assert {(p.users, p.kind) for p in result.points} == {
        (1, "microfaas"), (1, "hybrid"), (2, "microfaas"), (2, "hybrid")
    }
    for p in result.points:
        # users map_reduces: fanout maps + one reduce each, all clean.
        assert p.calls == p.users * (p.fanout + 1)
        assert p.succeeded == p.calls and p.errors == 0
        assert p.jobs_completed == p.calls
        assert p.batches_flushed >= 1
        assert p.duplicates_suppressed == 0
        assert p.client_p50_s <= p.client_p99_s
        # The reduce waits on every map, so it is never faster than
        # the slowest map future.
        assert p.reduce_latency_s >= p.client_p99_s


@pytest.mark.parametrize(
    "kinds, jobs",
    [(("microfaas",), 2), (("microfaas", "hybrid"), 4)],
    ids=["microfaas-jobs2", "both-kinds-jobs4"],
)
def test_sweep_is_bit_identical_across_jobs(kinds, jobs):
    serial = tiny_run(user_counts=(1, 2), kinds=kinds, jobs=1)
    parallel = tiny_run(user_counts=(1, 2), kinds=kinds, jobs=jobs)
    assert serial == parallel


def test_run_validates_inputs():
    with pytest.raises(ValueError):
        tiny_run(user_counts=())
    with pytest.raises(ValueError):
        tiny_run(user_counts=(0,))
    with pytest.raises(ValueError):
        tiny_run(fanouts=(0,))
    with pytest.raises(ValueError):
        tiny_run(kinds=("mainframe",))
    with pytest.raises(ValueError):
        sdk_study.build_backend("mainframe", seed=1)


def test_render_names_the_most_efficient_point():
    result = tiny_run(kinds=("microfaas", "conventional"))
    text = sdk_study.render(result)
    assert "SDK study" in text
    best = result.best_joules_per_function()
    assert best.kind == "microfaas"  # the paper's energy headline
    assert f"most efficient point: {best.kind}" in text


def test_trace_path_writes_a_valid_chrome_trace(tmp_path):
    path = os.path.join(tmp_path, "sdk_trace.json")
    tiny_run(trace_path=path)
    validate_chrome_trace_file(path)
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    # The client spans landed inside the platform span trees.
    names = {event.get("name") for event in events}
    assert "client_submit" in names
    assert "client_wait" in names


def test_csv_export_round_trips(tmp_path):
    result = sdk_study.run(user_counts=(1,), fanouts=(4,))
    [path] = write_tables(str(tmp_path), sdk_study.tables(result))
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(sdk_study.BACKEND_KINDS)
    for row in rows:
        assert row["backend"] in sdk_study.BACKEND_KINDS
        assert int(row["calls"]) == 5
        assert int(row["errors"]) == 0
        assert float(row["joules_per_function"]) > 0
