"""Tests for replication statistics and CSV export."""

import csv
import os

import pytest

from repro.cli import ARTIFACTS, main
from repro.experiments import megatrace
from repro.experiments.report import write_tables
from repro.experiments.stats import (
    Estimate,
    estimate,
    headline_replication,
    replicate,
)


# -- estimates -------------------------------------------------------------------


def test_estimate_of_constant_samples_has_zero_width():
    result = estimate([5.0, 5.0, 5.0, 5.0])
    assert result.mean == 5.0
    assert result.half_width == 0.0
    assert result.contains(5.0)
    assert not result.contains(5.1)


def test_estimate_interval_widens_with_variance():
    tight = estimate([10.0, 10.1, 9.9, 10.0])
    loose = estimate([5.0, 15.0, 2.0, 18.0])
    assert loose.half_width > 10 * tight.half_width


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate([1.0])
    with pytest.raises(ValueError):
        estimate([1.0, 2.0], confidence=1.5)


def test_estimate_matches_known_t_interval():
    """n=4, s=1, mean=0: 95 % half-width = t(3) * 1/2 = 1.591."""
    samples = [-1.0, 1.0, -1.0, 1.0]  # mean 0, sample std 2/sqrt(3)
    result = estimate(samples)
    import math

    expected = 3.182 * (math.sqrt(4 / 3) / 2)
    assert result.half_width == pytest.approx(expected, rel=0.01)


def test_replicate_aggregates_metrics():
    def run(seed):
        return {"a": float(seed), "b": 2.0 * seed}

    estimates = replicate(run, seeds=(1, 2, 3))
    assert estimates["a"].mean == pytest.approx(2.0)
    assert estimates["b"].mean == pytest.approx(4.0)


def test_replicate_validation():
    with pytest.raises(ValueError):
        replicate(lambda s: {"a": 1.0}, seeds=(1,))

    def inconsistent(seed):
        return {"a": 1.0} if seed == 1 else {"b": 1.0}

    with pytest.raises(ValueError):
        replicate(inconsistent, seeds=(1, 2))


def test_headline_replication_brackets_paper_numbers():
    """Across seeds, the published values sit inside (or within a few
    percent of) the replication intervals."""
    estimates = headline_replication(
        seeds=(1, 2, 3), invocations_per_function=20
    )
    assert estimates["microfaas_jpf"].mean == pytest.approx(5.7, rel=0.03)
    assert estimates["conventional_jpf"].mean == pytest.approx(32.0, rel=0.04)
    assert estimates["ratio"].mean == pytest.approx(5.6, rel=0.05)
    assert estimates["microfaas_fpm"].mean == pytest.approx(200.6, rel=0.04)


# -- export ----------------------------------------------------------------------


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


def test_export_fig1(tmp_path):
    assert main(["fig1", "--export-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "fig1_boot.csv")
    assert rows[0][0] == "change"
    assert len(rows) == 11  # header + baseline + 9 changes
    assert float(rows[-1][2]) == pytest.approx(1.51)


def test_export_table2(tmp_path):
    assert main(["table2", "--export-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "table2_tco.csv")
    assert len(rows) == 5
    totals = {(r[0], r[1]): int(r[5]) for r in rows[1:]}
    assert totals[("ideal", "conventional")] == 124_701


def test_export_megatrace(tmp_path):
    [path] = write_tables(
        str(tmp_path), megatrace.tables(megatrace.run(invocations=500))
    )
    rows = read_csv(path)
    assert rows[0][0] == "invocations"
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert int(record["records_retained"]) == 0
    assert float(record["peak_rss_mib"]) > 0


#: The CSV files each artifact's entry exports.
EXPORTED = {
    "fig1": {"fig1_boot.csv"},
    "fig3": {"fig3_runtime.csv"},
    "fig4": {"fig4_vmsweep.csv"},
    "fig5": {"fig5_power.csv"},
    "table2": {"table2_tco.csv"},
    "headline": {"headline.csv"},
    "fault-study": {"fault_study.csv"},
    "federation-study": {"federation_study.csv"},
    "hybrid-study": {"hybrid_study.csv"},
    "scale": {"scale_study.csv"},
    "sdk-study": {"sdk_study.csv"},
    "energy-study": {"energy_study.csv", "energy_study_tenants.csv"},
    "megatrace": {"megatrace.csv"},
}


def test_exported_artifacts_are_the_ones_with_tables():
    assert set(EXPORTED) == {
        name for name, artifact in ARTIFACTS.items()
        if artifact.tables is not None
    }


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_export_dir_writes_the_artifact_tables(name, tmp_path, capsys):
    target = tmp_path / "artifacts"
    assert main([name, "--invocations", "4", "--export-dir", str(target)]) == 0
    assert set(os.listdir(target)) == EXPORTED[name]
    for filename in EXPORTED[name]:
        assert len(read_csv(target / filename)) >= 2  # header + data


def test_traced_headline_writes_a_valid_trace(tmp_path, capsys):
    from repro.obs.export import validate_chrome_trace_file

    trace = tmp_path / "headline_trace.json"
    assert main(["headline", "--invocations", "4", "--trace", str(trace)]) == 0
    assert validate_chrome_trace_file(str(trace)) == []
