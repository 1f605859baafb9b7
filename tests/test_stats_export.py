"""Tests for the headline across seeds and for CSV export."""

import csv
import os

import pytest

from repro.cli import ARTIFACTS, main
from repro.experiments import headline, megatrace
from repro.experiments.report import write_tables


def test_headline_replication_brackets_paper_numbers():
    """Averaged across seeds, the headline stays within a few percent
    of the published values."""
    results = [
        headline.run(invocations_per_function=20, seed=seed)
        for seed in (1, 2, 3)
    ]

    def mean(metric):
        return sum(metric(result) for result in results) / len(results)

    microfaas_jpf = mean(lambda r: r.microfaas.joules_per_function)
    conventional_jpf = mean(lambda r: r.conventional.joules_per_function)
    assert microfaas_jpf == pytest.approx(5.7, rel=0.03)
    assert conventional_jpf == pytest.approx(32.0, rel=0.04)
    assert mean(lambda r: r.efficiency_ratio) == pytest.approx(5.6, rel=0.05)
    assert mean(
        lambda r: r.microfaas.throughput_per_min
    ) == pytest.approx(200.6, rel=0.04)


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
